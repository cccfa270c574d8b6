"""The PACE evaluation stack: a two-phase **compile -> execute** pipeline.

The paper's whole point is *cheap* predictive evaluation — a PACE model
should sweep hundreds of (problem size, blocking factor, processor array,
hardware) points in the time a simulator takes to run one.  The stack is
therefore split into two phases:

compile (:mod:`repro.core.evaluation.compiler`)
    :class:`~repro.core.evaluation.compiler.CompiledModel` lowers a parsed
    :class:`~repro.core.ir.ModelSet` once: object linkage is resolved,
    expressions become pre-bound closures, cflows are constant-folded and
    memoised on exactly the variables they reference, and ``proc`` bodies
    become flat executable plans.  Compilation is hardware-independent and
    shareable across executors and sweep workers.

execute (:class:`~repro.core.evaluation.compiler.CompiledExecutor`)
    Binds a compiled model to one HMCL
    :class:`~repro.core.hmcl.model.HardwareModel` and carries the
    evaluation-time caches, keyed on the hardware fingerprint so hardware
    swaps and mutations can never produce stale predictions.

A prediction is ``CompiledModel(model).executor(hardware).predict(...)``;
:func:`repro.api.predict` does the same over a process-wide compiled model.
Batch evaluation over scenario grids lives one layer up, in
:mod:`repro.experiments.sweep`, where this pipeline is registered as the
``"predict"`` scenario backend (:mod:`repro.experiments.backends`)
alongside the discrete-event ``"simulate"`` backend;
:func:`~repro.core.evaluation.compiler.hardware_fingerprint` doubles as
the hardware component of the disk-backed sweep-cache keys.
"""
