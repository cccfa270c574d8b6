"""Tests for the MPI micro-benchmark substitute."""

import oracles
import pytest

from repro.core.hmcl.model import MpiCostModel
from repro.profiling.mpibench import DEFAULT_SIZES, MpiBenchmark
from repro.simnet.presets import opteron_cluster_topology, pentium3_cluster_topology


@pytest.fixture(scope="module")
def benchmark_data():
    benchmark = MpiBenchmark(pentium3_cluster_topology(), repetitions=3)
    return benchmark.run(sizes=(64, 512, 2048, 8192, 16384, 65536, 262144))


class TestMpiBenchmark:
    def test_collects_all_series(self, benchmark_data):
        n = len(benchmark_data.sizes)
        assert n == 7
        assert len(benchmark_data.send_times) == n
        assert len(benchmark_data.recv_times) == n
        assert len(benchmark_data.pingpong_times) == n

    def test_pingpong_exceeds_send(self, benchmark_data):
        for send, pingpong in zip(benchmark_data.send_times, benchmark_data.pingpong_times):
            assert pingpong > send

    def test_times_grow_with_message_size(self, benchmark_data):
        pingpong = benchmark_data.pingpong_times
        assert pingpong[-1] > pingpong[0]

    def test_fit_produces_three_models(self, benchmark_data):
        fits = benchmark_data.fit()
        assert set(fits) == {"send", "recv", "pingpong"}
        for model in fits.values():
            assert model.evaluate(1024) >= 0

    def test_fitted_pingpong_matches_link_ground_truth(self, benchmark_data):
        """The fitted curve reproduces the underlying link's one-way cost."""
        link = pentium3_cluster_topology().inter_node
        model = benchmark_data.fit()["pingpong"]
        for nbytes in (1024, 8192, 131072):
            truth = oracles.ping_pong_time(link, nbytes)
            assert model.evaluate(nbytes) == pytest.approx(truth, rel=0.15)

    def test_one_way_model_is_half_pingpong(self, benchmark_data):
        """The HMCL delivery cost, half the fitted ping-pong, tracks the
        link's one-way time (sender CPU, wire, receiver CPU)."""
        fits = benchmark_data.fit()
        mpi = MpiCostModel(send=fits["send"], recv=fits["recv"],
                           pingpong=fits["pingpong"])
        link = pentium3_cluster_topology().inter_node
        for nbytes in (1024, 8192, 131072):
            truth = oracles.ping_pong_time(link, nbytes) / 2.0
            assert mpi.delivery_cost(nbytes) == pytest.approx(truth, rel=0.15)

    def test_effective_bandwidth_close_to_link(self, benchmark_data):
        """Above the protocol switch a ping-pong moves each byte twice, so
        the fitted per-byte slope recovers the link's bandwidth."""
        pingpong = benchmark_data.fit()["pingpong"]
        link = pentium3_cluster_topology().inter_node
        assert 2.0 / pingpong.E == pytest.approx(link.bandwidth, rel=0.30)

    def test_intra_node_faster_than_inter_node(self):
        benchmark = MpiBenchmark(opteron_cluster_topology(), repetitions=2)
        sizes = (512, 4096, 16384, 65536)
        inter = benchmark.run(sizes=sizes, inter_node=True)
        intra = benchmark.run(sizes=sizes, inter_node=False)
        assert intra.pingpong_times[0] < inter.pingpong_times[0]

    def test_default_sizes_span_protocol_switch(self):
        assert min(DEFAULT_SIZES) < 1024
        assert max(DEFAULT_SIZES) > 128 * 1024
