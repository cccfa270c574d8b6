"""A Python implementation of the ASCI SWEEP3D wavefront benchmark.

SWEEP3D solves a 1-group, time-independent, discrete-ordinates (S_N)
neutron transport problem on a 3-D Cartesian grid (Section 2 of the paper).
The spatial grid is decomposed over a 2-D ``Px x Py`` processor array; the
k dimension and the angles are blocked (parameters ``mk`` and ``mmi``) and
pipelined through the array as sweeps from each of the 8 octants.

The package provides

* :mod:`repro.sweep3d.quadrature` — level-symmetric S_N quadrature sets,
* :mod:`repro.sweep3d.geometry` — grids, octants and 2-D decomposition,
* :mod:`repro.sweep3d.input` — input decks mirroring the original code's
  parameters (it, jt, kt, mk, mmi, epsi ...),
* :mod:`repro.sweep3d.kernel` — the serial diamond-difference compute
  kernel (numpy) plus its operation-count characterisation,
* :mod:`repro.sweep3d.serial` — a single-process reference solver,
* :mod:`repro.sweep3d.parallel` — the KBA pipelined solver expressed as a
  :mod:`repro.simmpi` rank program,
* :mod:`repro.sweep3d.driver` — simulation plans that run the solver on a
  simulated cluster,
* :mod:`repro.sweep3d.execution` — the names of the simulation tiers,
* :mod:`repro.sweep3d.verification` — physics invariants used by tests.
"""
