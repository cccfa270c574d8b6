"""Cross-model agreement: PACE vs LogGP vs the Los Alamos model.

Section 6 of the paper notes that its speculative predictions "concur with
those gained through other related analytical models".  This module sets a
PACE prediction beside the two analytic models for the same workload and
reports their relative spread, which the model-agreement benchmark asserts
stays within a modest band.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytic.hoisie import HoisieWavefrontModel
from repro.analytic.loggp import LogGPParameters, LogGPWavefrontModel
from repro.core.hmcl.model import HardwareModel
from repro.core.workload import SweepWorkload


@dataclass
class ModelComparison:
    """Predictions of the three models for one workload."""

    workload: SweepWorkload
    pace: float
    loggp: float
    hoisie: float

    @property
    def values(self) -> dict[str, float]:
        return {"pace": self.pace, "loggp": self.loggp, "hoisie": self.hoisie}

    @property
    def spread(self) -> float:
        """Relative spread: (max - min) / mean of the three predictions."""
        values = list(self.values.values())
        mean = sum(values) / len(values)
        if mean == 0:
            return 0.0
        return (max(values) - min(values)) / mean

    def max_relative_difference(self, reference: str = "pace") -> float:
        """Largest relative deviation of the other models from ``reference``."""
        base = self.values[reference]
        if base == 0:
            return 0.0
        return max(abs(value - base) / base for key, value in self.values.items()
                   if key != reference)

    def describe(self) -> str:
        return (f"{self.workload.describe()}\n"
                f"  PACE   : {self.pace:10.3f} s\n"
                f"  LogGP  : {self.loggp:10.3f} s\n"
                f"  Hoisie : {self.hoisie:10.3f} s\n"
                f"  spread : {self.spread * 100:.1f}%")


def compare_models(workload: SweepWorkload, hardware: HardwareModel,
                   pace: float) -> ModelComparison:
    """Set a PACE prediction beside the LogGP and Los Alamos models.

    ``pace`` is the PACE model's predicted time for ``workload`` on
    ``hardware`` (the agreement study takes it from a batched scenario
    sweep); the two closed-form models are evaluated here.
    """
    seconds_per_flop = hardware.cpu.seconds_per_flop
    loggp_model = LogGPWavefrontModel(LogGPParameters.from_hardware(hardware))
    loggp = loggp_model.predict(workload, seconds_per_flop)

    hoisie_model = HoisieWavefrontModel(hardware)
    hoisie = hoisie_model.predict(workload, seconds_per_flop)

    return ModelComparison(workload=workload, pace=pace, loggp=loggp, hoisie=hoisie)
