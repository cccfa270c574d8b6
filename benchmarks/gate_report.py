"""Machine-readable benchmark-gate reporting for the CI perf trajectory.

When the ``BENCH_JSON`` environment variable names a file, every
acceptance gate records its observed value there as it runs::

    {"gates": [{"gate": "...", "observed": 15.3, "threshold": 5.0,
                "unit": "x speedup", "passed": true}, ...]}

A gate may add a ``"details"`` object of named readings that explain
its ratio (for example, how each side's time splits).

CI points ``BENCH_JSON`` at ``BENCH_sweep.json`` and uploads it as a
build artifact, so the speedup trajectory is tracked per commit instead
of living only in scrollback.  Without the variable this module is a
no-op, so local ``pytest benchmarks/`` runs are unaffected.
"""

from __future__ import annotations

import json
import os


def record_gate(name: str, observed: float, threshold: float,
                unit: str = "x speedup",
                details: dict[str, float] | None = None) -> None:
    """Append one gate observation to the ``BENCH_JSON`` report file.

    Re-recording a gate (a retry loop's second pass) replaces its entry;
    the file is rewritten whole on every call, so a crashed later gate
    still leaves the earlier observations on disk.  ``details`` are
    written with the entry, each value rounded like ``observed``.
    """
    path = os.environ.get("BENCH_JSON")
    if not path:
        return
    gates = []
    if os.path.exists(path):
        try:
            with open(path) as handle:
                gates = json.load(handle).get("gates", [])
        except (OSError, ValueError):
            gates = []
    gates = [gate for gate in gates if gate.get("gate") != name]
    entry = {
        "gate": name,
        "observed": round(float(observed), 3),
        "threshold": threshold,
        "unit": unit,
        "passed": bool(observed >= threshold),
    }
    if details:
        entry["details"] = {key: round(float(value), 3)
                            for key, value in details.items()}
    gates.append(entry)
    gates.sort(key=lambda gate: gate["gate"])
    with open(path, "w") as handle:
        json.dump({"gates": gates}, handle, indent=2, sort_keys=True)
        handle.write("\n")
