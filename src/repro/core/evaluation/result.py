"""Prediction results produced by the evaluation engine."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units


@dataclass
class SubtaskBreakdown:
    """Accumulated contribution of one subtask to a prediction."""

    name: str
    time: float = 0.0
    calls: int = 0
    compute_time: float = 0.0
    communication_time: float = 0.0

    @property
    def fraction_communication(self) -> float:
        if self.time <= 0:
            return 0.0
        return self.communication_time / self.time


@dataclass
class PredictionResult:
    """A complete prediction for one application/hardware/parameter combination."""

    #: Predicted elapsed (wall-clock) time of the application, in seconds.
    total_time: float
    #: Per-subtask contributions, keyed by subtask name.
    breakdown: dict[str, SubtaskBreakdown] = field(default_factory=dict)
    #: The externally supplied variables the prediction was evaluated with.
    variables: dict[str, float | str] = field(default_factory=dict)
    #: Name of the HMCL hardware object used.
    hardware_name: str = ""
    #: Name of the application object evaluated.
    application_name: str = ""

    @property
    def compute_time(self) -> float:
        """Total predicted single-processor compute time across all subtasks."""
        return sum(item.compute_time for item in self.breakdown.values())

    @property
    def communication_time(self) -> float:
        """Total predicted communication / pipeline-wait time."""
        return sum(item.communication_time for item in self.breakdown.values())

    def subtask(self, name: str) -> SubtaskBreakdown:
        return self.breakdown[name]

    def describe(self) -> str:
        """Multi-line human readable summary of the prediction."""
        lines = [
            f"prediction for {self.application_name or 'application'} "
            f"on {self.hardware_name or 'hardware'}: "
            f"{units.format_seconds(self.total_time)}"
        ]
        for name in sorted(self.breakdown, key=lambda n: -self.breakdown[n].time):
            item = self.breakdown[name]
            share = item.time / self.total_time * 100 if self.total_time > 0 else 0.0
            lines.append(
                f"  {name:<16} {units.format_seconds(item.time):>12}  "
                f"({share:5.1f}%, {item.calls} call(s), "
                f"{item.fraction_communication * 100:4.1f}% comm)")
        return "\n".join(lines)
