"""Simulated cluster interconnect models.

This package replaces the physical interconnects of the paper's clusters
(Myrinet 2000, Gigabit Ethernet, SGI NUMAlink-4 and the intra-node shared
memory of the 2-way SMP nodes).  A :class:`~repro.simnet.link.LinkModel`
describes point-to-point message cost with an eager/rendezvous protocol and
piece-wise linear latency/bandwidth; a
:class:`~repro.simnet.topology.ClusterTopology` maps rank pairs onto links
(intra-node vs inter-node); and a :class:`~repro.simnet.noise.NoiseModel`
injects the operating-system/background-load jitter the paper blames for
the variance in its measurements.
"""
