"""Point-to-point link cost model with an eager/rendezvous protocol.

The MPI implementations of the era behave piece-wise linearly in the message
size: short messages are sent *eagerly* (copied into a receive buffer,
costing mostly latency), long messages use a *rendezvous* protocol (an extra
handshake, then a bandwidth-dominated transfer).  The paper's communication
resource model (Section 4.4, equation 3) is exactly a two-piece linear fit
of this behaviour, with the break point ``A`` at the protocol switch.

The link model here is the *ground truth* that the MPI micro-benchmark
substitute measures and fits; the fitted A-E parameters then populate the
HMCL hardware object used for prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetworkConfigError
from repro.units import snap_to_grid


@dataclass(frozen=True)
class LinkModel:
    """Cost model of a point-to-point channel between two ranks.

    Parameters
    ----------
    name:
        Label, e.g. ``"Myrinet 2000"``.
    latency:
        End-to-end zero-byte latency in seconds (eager path).
    bandwidth:
        Asymptotic bandwidth in bytes/second (rendezvous path).
    eager_threshold:
        Message size in bytes at which the library switches from the eager
        to the rendezvous protocol (the paper's parameter ``A``).
    eager_bandwidth:
        Effective bandwidth of the eager path (copies through pre-registered
        buffers are typically slower than the large-message DMA path).
    rendezvous_latency:
        Additional fixed cost of the rendezvous handshake in seconds.
    send_overhead / recv_overhead:
        CPU time consumed on the sender/receiver for every message (the
        LogGP ``o`` parameter); charged to the rank's clock in addition to
        the wire time.
    per_byte_cpu:
        CPU time per byte spent packing/copying on each side.
    """

    name: str
    latency: float
    bandwidth: float
    eager_threshold: float = 16 * 1024
    eager_bandwidth: float | None = None
    rendezvous_latency: float = 0.0
    send_overhead: float = 0.0
    recv_overhead: float = 0.0
    per_byte_cpu: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise NetworkConfigError(f"{self.name}: latency must be >= 0")
        if self.bandwidth <= 0:
            raise NetworkConfigError(f"{self.name}: bandwidth must be positive")
        if self.eager_threshold < 0:
            raise NetworkConfigError(f"{self.name}: eager threshold must be >= 0")
        if self.eager_bandwidth is not None and self.eager_bandwidth <= 0:
            raise NetworkConfigError(f"{self.name}: eager bandwidth must be positive")
        for attr in ("rendezvous_latency", "send_overhead", "recv_overhead", "per_byte_cpu"):
            if getattr(self, attr) < 0:
                raise NetworkConfigError(f"{self.name}: {attr} must be >= 0")

    # ------------------------------------------------------------------

    def is_eager(self, nbytes: float) -> bool:
        """Whether a message of ``nbytes`` uses the eager protocol."""
        return nbytes <= self.eager_threshold

    def wire_time(self, nbytes: float) -> float:
        """Time for the payload to traverse the channel (no CPU overheads).

        Piece-wise linear in the message size, with a discontinuity in the
        intercept at the eager threshold — the behaviour the paper's A-E
        parameters capture.
        """
        if nbytes < 0:
            raise NetworkConfigError("message size must be >= 0")
        if self.is_eager(nbytes):
            eager_bw = self.eager_bandwidth or self.bandwidth
            return self.latency + nbytes / eager_bw
        return self.latency + self.rendezvous_latency + nbytes / self.bandwidth

    def sender_cpu_time(self, nbytes: float) -> float:
        """CPU time the sending rank spends on a message of ``nbytes``."""
        return self.send_overhead + nbytes * self.per_byte_cpu

    def receiver_cpu_time(self, nbytes: float) -> float:
        """CPU time the receiving rank spends on a message of ``nbytes``."""
        return self.recv_overhead + nbytes * self.per_byte_cpu

    def describe(self) -> str:
        return (f"{self.name}: {self.latency * 1e6:.1f}us + "
                f"{self.bandwidth / 1e6:.0f}MB/s (eager<= {self.eager_threshold:.0f}B)")


@dataclass(frozen=True)
class QuantizedLink(LinkModel):
    """A link whose every modelled cost snaps to a dyadic time grid.

    Identical to :class:`LinkModel` except that wire times and per-message
    CPU overheads are rounded to the nearest multiple of ``time_quantum``
    seconds (a power of two, e.g. ``2**-30`` ≈ 0.93 ns).  On a machine
    built entirely from quantized components every event duration is an
    exact binary multiple of one shared quantum, which makes the max-plus
    replay of :mod:`repro.simmpi.trace` exact integer arithmetic — the
    precondition under which the steady-state tier
    (:mod:`repro.simmpi.steady`) can extrapolate periodic traces
    bit-identically.  A sub-nanosecond tick is far below every modelled
    latency/overhead in the repository, so quantized presets stay
    physically indistinguishable from their continuous parents.

    ``time_quantum = 0`` degrades to the continuous behaviour.
    """

    time_quantum: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.time_quantum < 0:
            raise NetworkConfigError(f"{self.name}: time_quantum must be >= 0")

    def wire_time(self, nbytes: float) -> float:
        return snap_to_grid(super().wire_time(nbytes), self.time_quantum)

    def sender_cpu_time(self, nbytes: float) -> float:
        return snap_to_grid(super().sender_cpu_time(nbytes), self.time_quantum)

    def receiver_cpu_time(self, nbytes: float) -> float:
        return snap_to_grid(super().receiver_cpu_time(nbytes), self.time_quantum)
