"""Tests for the link cost model."""

import oracles
import pytest

from repro import units
from repro.errors import NetworkConfigError
from repro.simmpi.engine import ClusterEngine
from repro.simnet.link import LinkModel
from repro.simnet.presets import gigabit_ethernet_link, myrinet2000_link, numalink4_link
from repro.simnet.topology import ClusterTopology


@pytest.fixture
def link() -> LinkModel:
    return LinkModel(name="test", latency=units.usec(10), bandwidth=units.mbytes_per_s(100),
                     eager_threshold=1024, eager_bandwidth=units.mbytes_per_s(80),
                     rendezvous_latency=units.usec(20),
                     send_overhead=units.usec(2), recv_overhead=units.usec(3),
                     per_byte_cpu=1e-9)


class TestLinkModel:
    def test_validation(self):
        with pytest.raises(NetworkConfigError):
            LinkModel("bad", latency=-1.0, bandwidth=1e6)
        with pytest.raises(NetworkConfigError):
            LinkModel("bad", latency=1e-6, bandwidth=0.0)
        with pytest.raises(NetworkConfigError):
            LinkModel("bad", latency=1e-6, bandwidth=1e6, send_overhead=-1e-6)

    def test_eager_threshold(self, link):
        assert link.is_eager(512)
        assert link.is_eager(1024)
        assert not link.is_eager(1025)

    def test_wire_time_monotone(self, link):
        sizes = [0, 128, 1024, 2048, 65536, 1 << 20]
        times = [link.wire_time(size) for size in sizes]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_piecewise_formula(self, link):
        # Below the threshold: eager path (latency + size / eager bandwidth).
        assert link.wire_time(1024) == pytest.approx(
            link.latency + 1024 / link.eager_bandwidth)
        # Above the threshold: rendezvous handshake + full-bandwidth transfer.
        assert link.wire_time(1025) == pytest.approx(
            link.latency + link.rendezvous_latency + 1025 / link.bandwidth)
        # The protocol switch is visibly discontinuous (the paper's breakpoint A).
        assert link.wire_time(1025) > link.wire_time(1024)

    def test_zero_byte_message_costs_latency(self, link):
        assert link.wire_time(0) == pytest.approx(link.latency)

    def test_negative_size_rejected(self, link):
        with pytest.raises(NetworkConfigError):
            link.wire_time(-1)

    def test_cpu_overheads(self, link):
        assert link.sender_cpu_time(1000) == pytest.approx(units.usec(2) + 1000e-9)
        assert link.receiver_cpu_time(1000) == pytest.approx(units.usec(3) + 1000e-9)

    def test_bandwidth_dominates_large_messages(self, link):
        size = 10 * units.MIB
        expected = size / link.bandwidth
        assert link.wire_time(size) == pytest.approx(expected, rel=0.05)

    def test_pingpong_is_twice_one_way(self, link):
        """On the engine a ping-pong costs two one-way trips (sender CPU,
        wire, receiver CPU), under either protocol."""
        def program(comm, nbytes):
            peer = 1 - comm.rank
            if comm.rank == 0:
                yield comm.send(None, dest=peer, nbytes=nbytes)
                yield comm.recv(source=peer)
            else:
                yield comm.recv(source=peer)
                yield comm.send(None, dest=peer, nbytes=nbytes)
            return None

        engine = ClusterEngine(ClusterTopology(
            name="pair", processors_per_node=1, inter_node=link))
        assert link.is_eager(64) and not link.is_eager(4096)
        for nbytes in (64, 4096):
            result = engine.run(program, 2, program_args=(nbytes,))
            assert result.ranks[0].finish_time == pytest.approx(
                oracles.ping_pong_time(link, nbytes), rel=1e-12)


class TestPresets:
    def test_relative_latencies(self):
        # NUMAlink < Myrinet < Gigabit Ethernet, as for the real interconnects.
        assert numalink4_link().latency < myrinet2000_link().latency < \
            gigabit_ethernet_link().latency

    def test_relative_bandwidths(self):
        assert numalink4_link().bandwidth > myrinet2000_link().bandwidth > \
            gigabit_ethernet_link().bandwidth

    def test_describe(self):
        assert "Myrinet" in myrinet2000_link().describe()
