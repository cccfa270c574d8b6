"""``capp`` — the PACE static C source analyser.

``capp`` parses the serial kernel's C source, extracts its control flow
(loops, branches) and tallies the performance-critical operations of each
statement into clc vectors.  The result is a *flow description*: a tree of
loops/branches/straight-line blocks whose leaves carry operation counts and
whose loop trip counts may be symbolic (resolved later from the problem
parameters or from run-time profiles, as the paper does for the ``ndiag``
value and the branch probabilities).

Only the C subset needed by the bundled ``sweep_kernel.c`` is supported;
unsupported constructs raise :class:`~repro.errors.CappSyntaxError` rather
than being silently ignored.
"""
