"""Machine definitions: the clusters of the paper as simulated systems.

A :class:`~repro.machines.machine.Machine` bundles a processor model, a
cluster topology and a noise model, and knows how to

* derive its HMCL hardware object by running the PAPI-substitute profiler
  and the MPI micro-benchmarks against its own simulated hardware
  (:meth:`~repro.machines.machine.Machine.hardware_model`), and
* produce a "measured" run time by executing the parallel sweep on the
  discrete-event cluster simulator
  (:meth:`~repro.machines.machine.Machine.simulate`).

Four machines are registered, mirroring Section 5 and Section 6 of the
paper: the Pentium-3/Myrinet cluster, the Opteron/Gigabit-Ethernet cluster,
the SGI Altix, and the hypothetical 8000-processor Opteron/Myrinet system
of the speculative study.
"""
