"""Profiling and benchmarking substitutes.

The paper's hardware layer is populated from two measurement campaigns:

* **PAPI profiling** of the serial kernel, yielding the achieved floating
  point operation rate for the target per-processor problem size
  (:mod:`repro.profiling.papi`), and
* **MPI micro-benchmarks** (timed sends, receives and ping-pongs over a
  range of message sizes) whose results are fitted with the piece-wise
  linear model of equation (3) (:mod:`repro.profiling.mpibench` and
  :mod:`repro.profiling.curvefit`).

Both campaigns run against the simulated processor/network models, so the
derived hardware parameters carry genuine measurement/fitting error into
the PACE predictions — exactly as in the paper's methodology.
"""
