#!/usr/bin/env python
"""Validation study: reproduce a slice of the paper's Tables 1-3.

The validation tables are registered studies, so this example is four
lines of :mod:`repro.api`: build a spec, run it, print the report, write
the JSON/CSV artifacts.  The spec is serializable — the printed TOML can
be saved and re-run verbatim with ``repro-sweep3d run <file>.toml``.

Run with::

    python examples/validate_cluster.py --table table2
    python examples/validate_cluster.py --table table1 --max-pes 32 --iterations 4
    python examples/validate_cluster.py --table table3 --out artifacts/
"""

from __future__ import annotations

import argparse

import repro.api as api
from repro.experiments.report import format_validation_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--table", default="table2",
                        choices=["table1", "table2", "table3"],
                        help="which of the paper's validation tables to reproduce")
    parser.add_argument("--max-pes", type=int, default=30,
                        help="largest processor count to run (keeps the example fast)")
    parser.add_argument("--iterations", type=int, default=12,
                        help="source iterations (the paper always uses 12)")
    parser.add_argument("--no-measurement", action="store_true",
                        help="skip the discrete-event measurement and only predict")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write the JSON/CSV artifacts and manifest here")
    args = parser.parse_args()

    spec = api.build_spec(args.table,
                          simulate_measurement=not args.no_measurement,
                          max_iterations=args.iterations,
                          max_pes=args.max_pes)
    print(f"spec (hash {spec.spec_hash()[:12]}):\n{spec.to_toml()}")

    result = api.run_study(spec)
    print(format_validation_table(result.payload))

    errors = result.payload.errors()
    if errors:
        print(f"\nall {len(errors)} reproduced errors are below 10%: "
              f"{all(abs(e) < 10 for e in errors)}")
    else:
        print("\n(measurement skipped; compare the Predicted column against "
              "the Paper Meas. column)")

    if args.out is not None:
        manifest = api.write_study_artifacts([result], args.out)
        print(f"artifacts written; manifest: {manifest}")


if __name__ == "__main__":
    main()
