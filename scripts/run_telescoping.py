#!/usr/bin/env python3
"""Telescoping sanity experiment.

The chain T_n = diag(1, (1+1/n)/2) has the closed-form product
S_n e2 = (n+1)/2^n e2, which makes it the canonical calibration run:
any discrepancy here is an engine bug, not an interesting phenomenon.
"""

import argparse
from pathlib import Path

import numpy as np

from contraction_lab import (
    const,
    diagonal_chain,
    harmonic_to,
    iterate_products,
    trace_summary,
    write_opnorm_csv,
    write_trace_csv,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=50)
    ap.add_argument(
        "--out",
        default=None,
        help="optional directory for trace.csv and opnorm.csv, as simulate "
        "writes them",
    )
    args = ap.parse_args()

    chain = diagonal_chain(
        [const(1.0), harmonic_to(0.5)], horizon=args.horizon
    )
    trace = iterate_products(
        chain, probes=np.eye(2), probe_ids=["e1", "e2"]
    )

    print(f"{'n':>4}  {'sot_err(e2)':>14}  {'(n+1)/2^n':>14}  {'rel err':>10}")
    worst = 0.0
    for n in range(1, args.horizon + 1):
        measured = trace.sot_err[n - 1, 1]
        expected = (n + 1) / 2.0**n
        rel = abs(measured - expected) / expected
        worst = max(worst, rel)
        if n <= 10 or n % 10 == 0:
            print(f"{n:>4}  {measured:>14.6e}  {expected:>14.6e}  {rel:>10.2e}")

    summary = trace_summary(trace)
    print(f"\nworst relative error vs closed form: {worst:.3e}")
    print(
        f"status: {summary['status']} "
        f"(final sot_err {summary['final']['sot_err_max']:.2e} vs "
        f"threshold {summary['threshold']:.0e} at horizon {args.horizon})"
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_trace_csv(trace, out / "trace.csv")
        write_opnorm_csv(trace, out / "opnorm.csv")
        print(f"trace.csv and opnorm.csv written to {out}")


if __name__ == "__main__":
    main()
