"""Hardware Modelling and Configuration Language (HMCL).

An HMCL hardware object (Figure 7 of the paper) records, for one machine,

* the ``cpu`` section: the time cost of each clc operation.  With the
  paper's *coarse* approach the floating point mnemonics all carry the
  achieved seconds-per-flop measured by profiling and the bookkeeping
  mnemonics are zero; with the *legacy* approach every mnemonic carries its
  micro-benchmarked latency.
* the ``mpi`` section: three sets of the piece-wise-linear A-E parameters
  (send, receive, ping-pong) fitted from MPI micro-benchmarks.
* a ``meta`` section with descriptive fields (name, processors per node).

:mod:`repro.core.hmcl.model` holds the in-memory model;
:mod:`repro.core.hmcl.parser` reads and writes the textual HMCL format used
by the resource scripts.
"""
