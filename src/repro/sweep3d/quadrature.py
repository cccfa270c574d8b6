"""Level-symmetric S_N angular quadrature sets.

The discrete ordinates method replaces the continuous angular variable by a
finite set of directions (ordinates) with associated weights.  SWEEP3D uses
level-symmetric (LQ_N) sets; the default production configuration is S6,
i.e. 6 angles per octant, which with the paper's angle-blocking factor
``mmi = 3`` yields two angle blocks per octant.

The direction cosines and weights below are the standard LQ_N values (see
Lewis & Miller, *Computational Methods of Neutron Transport*).  Weights are
normalised so that the full-sphere weights sum to one; each octant therefore
carries a total weight of 1/8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import InputDeckError

if TYPE_CHECKING:
    import numpy as np

# Level-symmetric quadrature tables: for each N, the distinct positive
# direction cosines and, for each point type (a multiset of cosine indices
# summing appropriately), the per-octant-normalised weight.
_LQN_TABLES: dict[int, dict] = {
    2: {
        "mu": [0.5773503],
        "points": [((0, 0, 0), 1.0)],
    },
    4: {
        "mu": [0.3500212, 0.8688903],
        "points": [((0, 0, 1), 1.0 / 3.0), ((0, 1, 0), 1.0 / 3.0), ((1, 0, 0), 1.0 / 3.0)],
    },
    6: {
        "mu": [0.2666355, 0.6815076, 0.9261808],
        "points": [
            ((0, 0, 2), 0.1761263), ((0, 2, 0), 0.1761263), ((2, 0, 0), 0.1761263),
            ((0, 1, 1), 0.1572071), ((1, 0, 1), 0.1572071), ((1, 1, 0), 0.1572071),
        ],
    },
    8: {
        "mu": [0.2182179, 0.5773503, 0.7867958, 0.9511897],
        "points": [
            ((0, 0, 3), 0.1209877), ((0, 3, 0), 0.1209877), ((3, 0, 0), 0.1209877),
            ((0, 1, 2), 0.0907407), ((0, 2, 1), 0.0907407),
            ((1, 0, 2), 0.0907407), ((2, 0, 1), 0.0907407),
            ((1, 2, 0), 0.0907407), ((2, 1, 0), 0.0907407),
            ((1, 1, 1), 0.0925926),
        ],
    },
}


@dataclass(frozen=True)
class OctantAngles:
    """The ordinates of one octant.

    Attributes
    ----------
    mu, eta, xi:
        Positive direction cosines along i, j and k for each ordinate
        (arrays of length ``n_angles``); the octant's sign pattern is applied
        by the sweep code.
    weight:
        Quadrature weights, normalised so the full sphere sums to one.
    """

    mu: np.ndarray
    eta: np.ndarray
    xi: np.ndarray
    weight: np.ndarray

    @property
    def n_angles(self) -> int:
        return len(self.mu)

    def angle_block(self, start: int, count: int) -> "OctantAngles":
        """Slice out a block of ``count`` ordinates starting at ``start``."""
        stop = start + count
        return OctantAngles(self.mu[start:stop], self.eta[start:stop],
                            self.xi[start:stop], self.weight[start:stop])


class LevelSymmetricQuadrature:
    """A level-symmetric S_N quadrature set.

    Parameters
    ----------
    sn:
        The S_N order: one of 2, 4, 6 or 8.  The number of ordinates per
        octant is ``sn * (sn + 2) / 8``.
    """

    def __init__(self, sn: int = 6):
        if sn not in _LQN_TABLES:
            raise InputDeckError(
                f"unsupported S_N order {sn}; available: {sorted(_LQN_TABLES)}")
        self.sn = sn
        #: The octant's ordinates as arrays, built by the first
        #: :meth:`angle_blocks` call (deck validation needs no numpy).
        self._octant: OctantAngles | None = None

    # ------------------------------------------------------------------

    @property
    def angles_per_octant(self) -> int:
        """Number of ordinates in each octant (= sn(sn+2)/8)."""
        return len(_LQN_TABLES[self.sn]["points"])

    @property
    def total_angles(self) -> int:
        """Total ordinates over all eight octants."""
        return 8 * self.angles_per_octant

    def angle_blocks(self, mmi: int) -> list[OctantAngles]:
        """Split the octant's ordinates into blocks of at most ``mmi`` angles.

        Mirrors SWEEP3D's angle-blocking: the last block may be smaller when
        ``mmi`` does not divide the per-octant angle count.
        """
        if mmi < 1:
            raise InputDeckError("mmi (angle block size) must be >= 1")
        if self._octant is None:
            import numpy as np

            table = _LQN_TABLES[self.sn]
            mu_values = np.asarray(table["mu"], dtype=float)
            mu, eta, xi, weight = [], [], [], []
            for (a, b, c), w in table["points"]:
                mu.append(mu_values[a])
                eta.append(mu_values[b])
                xi.append(mu_values[c])
                weight.append(w / 8.0)  # full-sphere normalisation
            self._octant = OctantAngles(np.asarray(mu), np.asarray(eta),
                                        np.asarray(xi), np.asarray(weight))
        blocks = []
        start = 0
        while start < self.angles_per_octant:
            count = min(mmi, self.angles_per_octant - start)
            blocks.append(self._octant.angle_block(start, count))
            start += count
        return blocks

    def n_angle_blocks(self, mmi: int) -> int:
        """Number of angle blocks per octant for a blocking factor of ``mmi``."""
        if mmi < 1:
            raise InputDeckError("mmi (angle block size) must be >= 1")
        return -(-self.angles_per_octant // mmi)

    # -- sanity ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"LevelSymmetricQuadrature(S{self.sn}, {self.angles_per_octant} angles/octant)"
