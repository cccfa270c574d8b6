"""Interconnect presets for the machines of the paper.

Latency/bandwidth values are representative published figures for the
interconnect generations used in the paper's clusters:

* **Myrinet 2000** (Pentium-3 cluster, and the hypothetical machine of the
  speculative study): ~7-9 us MPI latency, ~240 MB/s sustained bandwidth.
* **Gigabit Ethernet** (Opteron cluster): ~45-60 us MPI/TCP latency,
  ~100 MB/s bandwidth.
* **SGI NUMAlink-4** (Altix 56-way SMP): ~1.5 us MPI latency over shared
  memory / NUMAlink, ~1.2 GB/s per-pair bandwidth.
* **Intra-node shared memory** of the 2-way SMP nodes: ~1 us latency,
  several hundred MB/s copy bandwidth (chipset-limited on the Pentium-3).
"""

from __future__ import annotations

from repro import units
from repro.simnet.link import LinkModel
from repro.simnet.topology import ClusterTopology


# ---------------------------------------------------------------------------
# Links
# ---------------------------------------------------------------------------


def myrinet2000_link() -> LinkModel:
    """Myrinet 2000 with GM-era MPICH-GM parameters."""
    return LinkModel(
        name="Myrinet 2000",
        latency=units.usec(8.0),
        bandwidth=units.mbytes_per_s(240.0),
        eager_threshold=16 * 1024,
        eager_bandwidth=units.mbytes_per_s(170.0),
        rendezvous_latency=units.usec(10.0),
        send_overhead=units.usec(1.2),
        recv_overhead=units.usec(1.5),
        per_byte_cpu=0.25e-9,
    )


def gigabit_ethernet_link() -> LinkModel:
    """Gigabit Ethernet with TCP-based MPICH parameters."""
    return LinkModel(
        name="Gigabit Ethernet",
        latency=units.usec(48.0),
        bandwidth=units.mbytes_per_s(105.0),
        eager_threshold=64 * 1024,
        eager_bandwidth=units.mbytes_per_s(90.0),
        rendezvous_latency=units.usec(55.0),
        send_overhead=units.usec(6.0),
        recv_overhead=units.usec(8.0),
        per_byte_cpu=1.0e-9,
    )


def numalink4_link() -> LinkModel:
    """SGI NUMAlink-4 / shared-memory MPI inside the Altix."""
    return LinkModel(
        name="SGI NUMAlink 4",
        latency=units.usec(1.6),
        bandwidth=units.mbytes_per_s(1200.0),
        eager_threshold=32 * 1024,
        eager_bandwidth=units.mbytes_per_s(850.0),
        rendezvous_latency=units.usec(2.5),
        send_overhead=units.usec(0.5),
        recv_overhead=units.usec(0.6),
        per_byte_cpu=0.1e-9,
    )


def smp_shared_memory_link(copy_bandwidth_mb: float = 500.0) -> LinkModel:
    """Intra-node shared memory channel of a 2-way SMP node."""
    return LinkModel(
        name="SMP shared memory",
        latency=units.usec(1.0),
        bandwidth=units.mbytes_per_s(copy_bandwidth_mb),
        eager_threshold=32 * 1024,
        eager_bandwidth=units.mbytes_per_s(copy_bandwidth_mb * 0.8),
        rendezvous_latency=units.usec(1.0),
        send_overhead=units.usec(0.4),
        recv_overhead=units.usec(0.4),
        per_byte_cpu=0.3e-9,
    )


# Backwards-friendly aliases used by machine definitions.
myrinet2000 = myrinet2000_link
gigabit_ethernet = gigabit_ethernet_link
numalink4 = numalink4_link
smp_shared_memory = smp_shared_memory_link


# ---------------------------------------------------------------------------
# Topologies
# ---------------------------------------------------------------------------


def pentium3_cluster_topology() -> ClusterTopology:
    """64 dual-Pentium-3 nodes on Myrinet 2000 (128 processors)."""
    return ClusterTopology(
        name="Pentium-3 / Myrinet 2000 cluster",
        processors_per_node=2,
        inter_node=myrinet2000_link(),
        intra_node=smp_shared_memory_link(copy_bandwidth_mb=400.0),
        max_nodes=64,
    )


def opteron_cluster_topology() -> ClusterTopology:
    """16 dual-Opteron nodes on Gigabit Ethernet (32 processors)."""
    return ClusterTopology(
        name="Opteron / Gigabit Ethernet cluster",
        processors_per_node=2,
        inter_node=gigabit_ethernet_link(),
        intra_node=smp_shared_memory_link(copy_bandwidth_mb=900.0),
        max_nodes=16,
    )


def altix_topology() -> ClusterTopology:
    """Single 56-way SGI Altix node: every rank pair uses NUMAlink/shared memory."""
    return ClusterTopology(
        name="SGI Altix Itanium-2 56-way SMP",
        processors_per_node=56,
        inter_node=numalink4_link(),
        intra_node=numalink4_link(),
        max_nodes=1,
    )


def hypothetical_cluster_topology() -> ClusterTopology:
    """The speculative machine of Section 6: Opteron SMP nodes on Myrinet 2000.

    The paper swaps the Opteron cluster's Gigabit Ethernet for the Myrinet
    2000 communication model and scales the machine to 8000 processors.
    """
    return ClusterTopology(
        name="Hypothetical Opteron / Myrinet 2000 cluster",
        processors_per_node=2,
        inter_node=myrinet2000_link(),
        intra_node=smp_shared_memory_link(copy_bandwidth_mb=900.0),
        max_nodes=4096,
    )
