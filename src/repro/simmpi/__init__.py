"""A discrete-event MPI simulator for single-process cluster simulation.

The paper validates its performance model against SWEEP3D runs on real MPI
clusters.  Those machines are not available here, so this package provides a
*virtual cluster*: rank programs are ordinary Python generator functions
that ``yield`` MPI-like operations (send, recv, allreduce, compute, ...) to
one scheduling loop (:func:`~repro.simmpi.engine.run_ranks`), which hands
every event to a sink.  With a timing sink the loop is the engine
(:class:`~repro.simmpi.engine.ClusterEngine`), which

* moves real payloads between ranks (numeric application runs produce
  bit-correct results),
* advances per-rank virtual clocks by the :mod:`repro.simnet`
  link/topology cost models and the compute durations the rank programs
  charge (``comm.compute(seconds)``),
* injects seeded OS/network noise, and
* reports per-rank timing breakdowns.

With a column sink the same loop is the trace recorder
(:class:`~repro.simmpi.trace.TraceRecorder`), which captures a modelled
run's event table once for fast max-plus replay
(:class:`~repro.simmpi.trace.CompiledTrace`).

A minimal rank program::

    def program(comm):
        if comm.rank == 0:
            yield comm.send(payload, dest=1, tag=0)
        else:
            msg = yield comm.recv(source=0, tag=0)
        yield comm.compute(1.5e-3)           # charge 1.5 ms of CPU time
        total = yield comm.allreduce(1.0, op="sum")
        return total

    engine = ClusterEngine(topology)
    result = engine.run(program, nranks=2)
    print(result.elapsed_time)
"""
