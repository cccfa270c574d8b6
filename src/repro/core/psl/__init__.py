"""The Performance Specification Language (PSL).

A dialect of PACE's CHIP3S language with three object kinds:

``application``
    The entry point of a performance model.  Its ``init`` procedure encodes
    the control flow of the program (Figure 4 of the paper): loops over
    iterations calling subtask objects.

``subtask``
    A serial phase of the application together with the parallel template
    that evaluates it (Figure 5).  Its ``cflow`` procedures characterise the
    serial computation as clc operation tallies (obtained from ``capp`` and
    run-time profiling).

``partmp``
    A parallel template (Figure 6): the computation/communication structure
    used to evaluate a subtask on the processor array.  Its ``stage``
    procedure lists the per-stage steps (receives, compute, sends); the
    named *strategy* (``pipeline``, ``globalsum``, ``globalmax``, ``async``)
    supplies the dependency structure across processors.

The module provides the lexer, parser and AST; evaluation (expressions,
cflows and objects, compiled to closures) lives in
:mod:`repro.core.evaluation`.
"""

from repro.core.psl.parser import parse_psl, load_psl_resource
from repro.core.psl import ast

__all__ = ["parse_psl", "load_psl_resource", "ast"]
