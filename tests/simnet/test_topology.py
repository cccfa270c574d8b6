"""Tests for cluster topologies."""

import pytest

from repro.errors import NetworkConfigError
from repro.simnet.presets import (
    altix_topology,
    hypothetical_cluster_topology,
    opteron_cluster_topology,
    pentium3_cluster_topology,
)
from repro.simnet.topology import LinkUsageStats


class TestClusterTopology:
    def test_node_assignment_is_blocked(self, p3_topology):
        assert p3_topology.node_of(0) == 0
        assert p3_topology.node_of(1) == 0
        assert p3_topology.node_of(2) == 1
        assert p3_topology.node_of(3) == 1

    def test_same_node(self, p3_topology):
        assert p3_topology.same_node(0, 1)
        assert not p3_topology.same_node(1, 2)

    def test_link_selection(self, p3_topology):
        intra = p3_topology.link_for(0, 1)
        inter = p3_topology.link_for(0, 2)
        assert intra is p3_topology.intra_node
        assert inter is p3_topology.inter_node
        assert intra.latency < inter.latency

    def test_self_message_uses_intra_link(self, p3_topology):
        assert p3_topology.link_for(3, 3) is p3_topology.intra_node

    def test_rank_limit(self, p3_topology):
        assert p3_topology.rank_limit == 128
        p3_topology.validate_rank_count(128)
        with pytest.raises(NetworkConfigError):
            p3_topology.validate_rank_count(129)

    def test_invalid_rank(self, p3_topology):
        with pytest.raises(NetworkConfigError):
            p3_topology.node_of(-1)

    def test_altix_is_single_node(self):
        altix = altix_topology()
        assert altix.rank_limit == 56
        assert altix.same_node(0, 55)

    def test_opteron_cluster_capacity(self):
        assert opteron_cluster_topology().rank_limit == 32

    def test_hypothetical_hosts_8000(self):
        hypothetical = hypothetical_cluster_topology()
        hypothetical.validate_rank_count(8000)


class TestLinkUsageStats:
    def test_records_intra_and_inter(self, p3_topology):
        stats = LinkUsageStats()
        stats.record(p3_topology, 0, 1, 100.0, tag=7)
        stats.record(p3_topology, 0, 2, 200.0, tag=7)
        stats.record(p3_topology, 2, 3, 300.0, tag=9)
        assert stats.messages == 3
        assert stats.bytes == 600.0
        assert stats.intra_node_messages == 2
        assert stats.inter_node_messages == 1
        assert stats.by_tag == {7: 2, 9: 1}
