#!/usr/bin/env python3
"""Unitary-orbit nonexample experiment.

Builds the orbit of small-step rotations, checks the step-distance
formula and the vanishing conditions, factors the orbit into Givens
rotations, and tabulates greedy epsilon-net growth: the net keeps
growing with the truncation, the finite shadow of a sequence with no
norm-convergent subsequence arrangement into a totally bounded set.
"""

import argparse

from contraction_lab import (
    build_nonexample,
    givens_factorization,
    reconstruction_error,
    verify_not_totally_bounded,
    verify_step_distances,
    verify_vanishing_conditions,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=30)
    ap.add_argument("--epsilon", type=float, default=0.5)
    args = ap.parse_args()

    seq = build_nonexample(args.nmax)
    print(f"orbit: {seq.count} vectors in dimension {seq.ambient_dim}")

    distances = verify_step_distances(seq)
    print(f"within-row deviation from 2 sin(theta_n/2): "
          f"{distances.max_within_deviation:.3e}")
    print(f"cross-row deviation from the same formula:  "
          f"{distances.max_cross_deviation:.3e}")

    vanishing = verify_vanishing_conditions(seq)
    print(f"vanishing conditions ok: {vanishing.all_ok} "
          f"(norm deviation {vanishing.max_norm_deviation:.1e})")

    steps = givens_factorization(seq)
    recon = reconstruction_error(seq, steps)
    print(f"Givens reconstruction error over {len(steps)} steps: {recon:.3e}")

    table = verify_not_totally_bounded(seq, args.epsilon)
    print(f"\ngreedy {args.epsilon}-net growth (size >= rows completed: "
          f"{table.dominates_row_count})")
    print(f"{'rows':>6} {'points':>8} {'net size':>9}")
    for row in table.rows:
        if row.rows_completed <= 5 or row.rows_completed % 5 == 0:
            print(f"{row.rows_completed:>6} {row.prefix_count:>8} "
                  f"{row.net_size:>9}")


if __name__ == "__main__":
    main()
