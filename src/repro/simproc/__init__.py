"""Simulated commodity-processor cost models.

This package stands in for the *physical processors* of the clusters used in
the paper (Intel Pentium-3, AMD Opteron, Intel Itanium-2).  A
:class:`~repro.simproc.processor.ProcessorModel` combines

* per-opcode issue/latency cost tables (:mod:`repro.simproc.opcodes`),
* a multi-level memory hierarchy model (:mod:`repro.simproc.cache`),
* a superscalar/ILP throughput model and
* a compiler optimisation model (:mod:`repro.simproc.compiler`)

and can answer two very different questions about a serial kernel:

``execute_time(mix)``
    How long does this instruction mix *actually* take, accounting for
    multiple operation pipelines, on-the-fly optimisation and the memory
    hierarchy?  This is the behaviour PAPI profiling observes, and the basis
    of the paper's *coarse* benchmarking approach.

``legacy_opcode_time(mix)``
    What would the *original PACE* per-opcode micro-benchmark approach
    predict (summing isolated opcode latencies)?  On modern superscalar
    processors this badly over-estimates the run time — the effect the paper
    reports as prediction errors "as large as 50 %" — and is retained here to
    reproduce that ablation.
"""
