"""MPI micro-benchmark substitute.

Runs timed sends, receives and ping-pongs for increasing message sizes on
the *simulated* cluster (two ranks, the same discrete-event engine the
application uses) and fits each data set with the piece-wise linear model of
equation (3).  The three fitted A-E parameter sets — send, receive and
ping-pong — populate the ``mpi`` section of the HMCL hardware object
(Figure 7 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.profiling.curvefit import PiecewiseLinearModel, fit_piecewise_linear
from repro.simmpi.engine import ClusterEngine
from repro.simnet.noise import NoiseModel
from repro.simnet.topology import ClusterTopology

#: Default message sizes benchmarked, in bytes (mirrors a typical ping-pong
#: sweep: a few words up to half a megabyte).
DEFAULT_SIZES: tuple[int, ...] = (
    8, 64, 256, 1024, 2048, 4096, 8192, 12288, 16384,
    24576, 32768, 65536, 131072, 262144, 524288,
)

_TAG_BENCH = 900
_TAG_BACK = 901


@dataclass
class CommBenchmarkData:
    """Raw measurements and fitted models of one benchmark campaign."""

    sizes: list[float] = field(default_factory=list)
    send_times: list[float] = field(default_factory=list)
    recv_times: list[float] = field(default_factory=list)
    pingpong_times: list[float] = field(default_factory=list)

    def fit(self) -> dict[str, PiecewiseLinearModel]:
        """Fit the three A-E parameter sets (send, recv, pingpong)."""
        return {
            "send": fit_piecewise_linear(self.sizes, self.send_times),
            "recv": fit_piecewise_linear(self.sizes, self.recv_times),
            "pingpong": fit_piecewise_linear(self.sizes, self.pingpong_times),
        }

def _benchmark_program(comm, sizes: Sequence[int], repetitions: int, inter_rank: int):
    """Two-rank benchmark program: rank 0 drives, rank ``inter_rank`` echoes.

    Ranks other than 0 and ``inter_rank`` idle (they exist only when the
    benchmark is placed across nodes of an SMP cluster).
    """
    peer = inter_rank
    results = {"sizes": [], "send": [], "recv": [], "pingpong": []}
    if comm.rank not in (0, peer):
        # Idle placeholder ranks (present only to force an inter-node pairing).
        yield comm.compute(0.0)
        return results

    for nbytes in sizes:
        payload = None  # timing-only: the byte count is what matters
        # --- ping-pong ---------------------------------------------------
        pingpong_total = 0.0
        for _ in range(repetitions):
            if comm.rank == 0:
                start = yield comm.now()
                yield comm.send(payload, dest=peer, tag=_TAG_BENCH, nbytes=nbytes)
                yield comm.recv(source=peer, tag=_TAG_BACK)
                stop = yield comm.now()
                pingpong_total += stop - start
            else:
                yield comm.recv(source=0, tag=_TAG_BENCH)
                yield comm.send(payload, dest=0, tag=_TAG_BACK, nbytes=nbytes)
        # --- send (sender-side return time) -------------------------------
        send_total = 0.0
        for _ in range(repetitions):
            if comm.rank == 0:
                start = yield comm.now()
                yield comm.send(payload, dest=peer, tag=_TAG_BENCH, nbytes=nbytes)
                stop = yield comm.now()
                send_total += stop - start
            else:
                yield comm.recv(source=0, tag=_TAG_BENCH)
        # --- recv (receiver arrives late, message already delivered) --------
        recv_total = 0.0
        settle_delay = 10e-3  # generous delay so eager messages have landed
        for _ in range(repetitions):
            if comm.rank == 0:
                yield comm.send(payload, dest=peer, tag=_TAG_BENCH, nbytes=nbytes)
                yield comm.compute(settle_delay)
            else:
                yield comm.compute(settle_delay)
                start = yield comm.now()
                yield comm.recv(source=0, tag=_TAG_BENCH)
                stop = yield comm.now()
                recv_total += stop - start
        if comm.rank == 0:
            results["sizes"].append(float(nbytes))
            results["send"].append(send_total / repetitions)
            results["pingpong"].append(pingpong_total / repetitions)
        else:
            results["sizes"].append(float(nbytes))
            results["recv"].append(recv_total / repetitions)
    return results


class MpiBenchmark:
    """Runs the communication benchmark campaign on a simulated cluster."""

    def __init__(self, topology: ClusterTopology, noise: NoiseModel | None = None,
                 repetitions: int = 5):
        self.topology = topology
        self.noise = noise if noise is not None else NoiseModel.disabled()
        self.repetitions = repetitions

    def run(self, sizes: Sequence[int] = DEFAULT_SIZES,
            inter_node: bool = True) -> CommBenchmarkData:
        """Benchmark messages between two ranks.

        ``inter_node=True`` places the two ranks on different SMP nodes (the
        configuration that matters for the pipeline's east-west/north-south
        messages); ``False`` benchmarks the intra-node shared-memory path.
        """
        if inter_node:
            peer = self.topology.processors_per_node
            nranks = peer + 1
        else:
            peer, nranks = 1, 2
        limit = self.topology.rank_limit
        if limit is not None and nranks > limit:
            peer, nranks = 1, 2
        result = ClusterEngine(self.topology).run(
            _benchmark_program, nranks=nranks,
            program_args=(tuple(sizes), self.repetitions, peer),
            noise=self.noise)
        driver = result.return_values[0]
        echo = result.return_values[peer]
        data = CommBenchmarkData(
            sizes=list(driver["sizes"]),
            send_times=list(driver["send"]),
            recv_times=list(echo["recv"]),
            pingpong_times=list(driver["pingpong"]),
        )
        if not (len(data.sizes) == len(data.send_times)
                == len(data.recv_times) == len(data.pingpong_times)):
            raise AssertionError("benchmark bookkeeping mismatch")
        return data
