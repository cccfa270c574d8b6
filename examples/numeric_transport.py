#!/usr/bin/env python
"""Numeric transport run: SWEEP3D as a real solver on the virtual cluster.

The other examples use the simulated cluster purely as a timing instrument
(modelled compute).  This example runs the *numeric* solver — the actual
diamond-difference S_N transport sweep — both serially and decomposed over
a 2x2 processor array on the simulated machine, and checks the physics:

* the parallel flux field is identical to the serial one (the KBA
  decomposition does not change the mathematics),
* the converged solution satisfies particle balance
  (production = absorption + boundary leakage),
* the flux is everywhere non-negative and approaches the infinite-medium
  value deep inside the domain.

Run with::

    python examples/numeric_transport.py [--cells 8 --iterations 20]

The script exits with status 1 when the parallel and serial solutions
differ.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

import repro.api as api
from repro.sweep3d.driver import run_serial_sweep
from repro.sweep3d.verification import (
    infinite_medium_flux,
    interior_flux_ratio,
    flux_is_nonnegative,
    particle_balance,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=8,
                        help="cells per direction per processor (keep small: numeric mode)")
    parser.add_argument("--iterations", type=int, default=20)
    parser.add_argument("--sn", type=int, default=6, choices=[2, 4, 6, 8])
    args = parser.parse_args()

    deck = api.Sweep3DInput(it=2 * args.cells, jt=2 * args.cells, kt=args.cells,
                            mk=max(1, args.cells // 2), mmi=3, sn=args.sn,
                            epsi=1e-6, max_iterations=args.iterations,
                            sigma_t=1.0, sigma_s=0.5, fixed_source=1.0,
                            label="numeric-example")
    print(deck.describe())

    print("\n=== serial reference solve ===")
    serial = run_serial_sweep(deck)
    print(f"iterations: {serial.iterations} (converged: {serial.converged})")
    print(f"mean scalar flux: {serial.mean_flux():.6f}")
    balance = particle_balance(deck, serial.phi, serial.boundary_leakage)
    print(f"particle balance residual: {balance.relative_residual:.2e}")
    print(f"flux non-negative: {flux_is_nonnegative(serial.phi)}")
    print(f"centre flux / infinite-medium flux "
          f"({infinite_medium_flux(deck):.3f}): {interior_flux_ratio(deck, serial.phi):.3f}")

    print("\n=== parallel solve on the simulated Pentium-3 cluster (2x2) ===")
    run = api.simulate("pentium3-myrinet", 2, 2, deck=deck, numeric=True,
                       with_noise=False)
    phi_parallel = run.global_flux()
    difference = float(np.abs(phi_parallel - serial.phi).max())
    print(f"simulated run time: {run.elapsed_time * 1e3:.2f} ms "
          f"({run.total_messages} messages)")
    print(f"max |parallel - serial| flux difference: {difference:.3e}")
    print(f"iterations (parallel): {run.iterations}")
    print(f"final global flux error: {run.error_history[-1]:.3e}")

    if difference < 1e-12:
        print("\nThe 2-D pipelined decomposition reproduces the serial solution exactly.")
        return 0
    print("\nWARNING: parallel and serial solutions differ beyond round-off!")
    return 1


if __name__ == "__main__":
    sys.exit(main())
