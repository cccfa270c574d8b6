"""A fresh program process, optionally traced.

Usage::

    python3 perfbench/child.py probe STATS_JSON
    python3 perfbench/child.py cli STATS_JSON REPRO_CLI_ARGS...

``probe`` imports ``repro.api`` and builds a study context's PSL model and
compiled model (the set-up every fresh process pays); ``cli`` runs the
``repro`` command line with the given arguments.  With ``PERFBENCH_TRACE=1``
in the environment every layer boundary is wrapped (``tracing.install``);
``SIGUSR1`` then writes a snapshot of the spans to ``$PERFBENCH_SNAPSHOT``.
On exit the process writes ``{"import_s", "peak_rss_mb", "trace"}`` to
STATS_JSON.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import tracing


def _write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def main(argv: list[str]) -> int:
    mode, stats_path, rest = argv[0], argv[1], argv[2:]
    tracing.add_source_path()
    start = time.perf_counter()
    import repro.api as api
    import_s = time.perf_counter() - start

    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        tracer = tracing.Tracer()
        tracing.install(tracer, service=bool(rest) and rest[0] == "serve")
        snapshot_path = os.environ.get("PERFBENCH_SNAPSHOT")
        if snapshot_path:
            sequence = [0]

            def snapshot(signum, frame):
                sequence[0] += 1
                _write_json(snapshot_path, {"seq": sequence[0],
                                            **tracer.snapshot()})

            signal.signal(signal.SIGUSR1, snapshot)

    if mode == "probe":
        context = api.StudyContext()
        context.model()
        context.compiled_model()
        code = 0
    else:
        from repro.cli import main as cli_main
        code = cli_main(rest)

    _write_json(stats_path, {
        "import_s": import_s,
        "peak_rss_mb": tracing.peak_rss_mb(),
        "trace": tracer.snapshot() if tracer is not None else None,
    })
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
