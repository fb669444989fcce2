"""Command-line driver: simulate | gap | nonexample | verify.

Exit codes are a stable contract:

    0   all verdicts pass
    1   a verdict failed
    2   inconclusive (empirical limit not trusted, or no rate table
        within an empirical certificate's horizon)
    3   no gap certificate at this grid resolution
    64  usage error

All outputs are byte-stable for a fixed (config, seed): floats print
with 17 significant digits, JSON keys are sorted, and nothing
timestamp- or path-dependent is written.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .chains import ContractionChain, build_chain, parse_chain_spec
from .config import DEFAULT, DELTA_GRID, SEED_ENV_VAR
from .corpus import (
    CORPUS_DIMS,
    CORPUS_SEED_COUNT,
    corpus_chains,
    descent_triple_corpus,
    equivalence_corpus,
    monotone_pair_corpus,
)
from .errors import (
    ChainGenerationError,
    ChainSpecError,
    ContractionLabError,
    InvariantError,
    PreconditionError,
)
from .gaps import (
    GapCertificate,
    certificate_search,
    rank_strict_descent_check,
    rate_bound_check,
    write_rate_csv,
)
from .nonexample import (
    build_nonexample,
    givens_factorization,
    givens_to_json,
    sequence_to_json,
    verify_not_totally_bounded,
    verify_step_distances,
    verify_vanishing_conditions,
    write_net_csv,
)
from .operators import (
    check_fixed_vector_equivalence,
    check_projection_monotone,
    diagonal,
)
from .products import (
    check_projection_convergence,
    consecutive_difference_report,
    is_decreasing,
    iterate_products,
    trace_summary,
    write_trace_csv,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_NO_CERTIFICATE = 3
EXIT_USAGE = 64

# The orbit is stored densely: nmax(nmax+1)/2 vectors of dimension nmax+1,
# so memory grows as nmax^3 and the greedy net's time as nmax^4 (about
# 40 s and 230 MB at 250 on a 2-core x86-64 machine, one BLAS thread).
NMAX_CEILING = 250


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract says 64, with a
    single stderr line (``-h`` prints the usage)."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    """A tolerance option: a finite float ``>= 0``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}"
        )
    return value


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ChainSpecError([f"{SEED_ENV_VAR} must be an integer, got {raw!r}"])


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_chain(args, parser: argparse.ArgumentParser) -> ContractionChain:
    try:
        document = Path(args.spec).read_text()
    except OSError as exc:
        parser.error(f"cannot read spec file: {exc}")
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        parser.error(f"spec is not valid JSON: {exc}")
    seed = args.seed if args.seed is not None else _env_seed()
    if isinstance(raw, dict) and "seed" not in raw and seed is not None:
        raw["seed"] = seed
    return build_chain(parse_chain_spec(raw))


def _run_horizon(args, chain: ContractionChain, parser) -> int:
    if args.horizon is None:
        return chain.horizon
    if not 1 <= args.horizon <= chain.horizon:
        parser.error(
            f"--horizon {args.horizon} outside the chain's materialized "
            f"range 1..{chain.horizon}"
        )
    return args.horizon


def _status_exit(status: str) -> int:
    return {
        "pass": EXIT_PASS,
        "inconclusive": EXIT_INCONCLUSIVE,
        "fail": EXIT_FAIL,
    }[status]


def cmd_simulate(args, parser) -> int:
    chain = _load_chain(args, parser)
    horizon = _run_horizon(args, chain, parser)
    trace = iterate_products(
        chain,
        horizon=horizon,
        tol_eig=args.tol_eig,
        tol_psd=args.tol_psd,
        fixed_spaces=True,
    )
    proj_trace = check_projection_convergence(chain, trace)
    ab = consecutive_difference_report(trace)
    summary = trace_summary(trace, projection_trace=proj_trace, ab_report=ab)
    out = _out_dir(args)
    write_trace_csv(trace, out / "trace.csv")
    _json_dump(summary, out / "summary.json")
    return _status_exit(summary["status"])


def cmd_gap(args, parser) -> int:
    chain = _load_chain(args, parser)
    horizon = _run_horizon(args, chain, parser)
    if args.epsilon < 0.0:
        parser.error(f"--epsilon must be >= 0, got {args.epsilon}")
    if args.grid is None:
        grid = DELTA_GRID
    else:
        try:
            grid = tuple(float(x) for x in args.grid.split(","))
        except ValueError:
            parser.error(f"--grid must be a comma list of floats: {args.grid!r}")
    try:
        result = certificate_search(
            chain, horizon, grid, tol_eig=args.tol_eig, tol_psd=args.tol_psd
        )
    except ContractionLabError as exc:
        if isinstance(exc, InvariantError):
            print(f"invariant violated during search: {exc}", file=sys.stderr)
            return EXIT_FAIL
        parser.error(str(exc))
    out = _out_dir(args)
    if isinstance(result, GapCertificate):
        _json_dump(result.to_json_dict(), out / "certificate.json")
        try:
            report = rate_bound_check(
                chain,
                result,
                epsilon=args.epsilon,
                tol_eig=args.tol_eig,
                tol_psd=args.tol_psd,
            )
        except PreconditionError as exc:
            print(f"rate bound inconclusive: {exc}", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        write_rate_csv(report, out / "rate_table.csv")
        return EXIT_PASS if report.bound_holds else EXIT_FAIL
    _json_dump(result.to_json_dict(), out / "failure.json")
    return EXIT_NO_CERTIFICATE


def cmd_nonexample(args, parser) -> int:
    if not 2 <= args.nmax <= NMAX_CEILING:
        parser.error(
            f"--nmax must lie in 2..{NMAX_CEILING}, got {args.nmax}"
        )
    if args.epsilon <= 0.0:
        parser.error(f"--epsilon must be positive, got {args.epsilon}")
    seq = build_nonexample(args.nmax)
    distances = verify_step_distances(seq)
    vanishing = verify_vanishing_conditions(seq, k_max=3)
    net = verify_not_totally_bounded(seq, args.epsilon)
    steps = givens_factorization(seq)

    recon_err = 0.0
    carried = seq.vector(1)
    for step in steps:
        carried = step.apply(carried)
        recon_err = max(
            recon_err,
            float(np.linalg.norm(carried - seq.vector(step.m + 1))),
        )
    rank_ok = all(step.rank_ok for step in steps)

    verdicts = {
        "within_row_distances": distances.within_row_ok,
        "vanishing_conditions": vanishing.all_ok,
        "givens_reconstruction": recon_err <= 1e-9,
        "givens_rank": rank_ok,
        "net_dominates_rows": net.dominates_row_count,
    }
    summary = {
        "n_max": seq.n_max,
        "count": seq.count,
        "ambient_dim": seq.ambient_dim,
        "epsilon": args.epsilon,
        "max_within_deviation": distances.max_within_deviation,
        "max_cross_deviation": distances.max_cross_deviation,
        "cross_row_matches_formula": distances.cross_row_ok,
        "reconstruction_error": recon_err,
        "net_sizes": list(net.sizes),
        "verdicts": verdicts,
        "status": "pass" if all(verdicts.values()) else "fail",
    }

    out = _out_dir(args)
    _json_dump(sequence_to_json(seq), out / "sequence.json")
    _json_dump(givens_to_json(steps), out / "givens.json")
    write_net_csv(net, out / "net_growth.csv")
    with open(out / "step_distances.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("m", "row", "kind", "measured", "expected", "deviation"))
        for s in distances.steps:
            writer.writerow(
                [
                    s.m,
                    s.row,
                    s.kind,
                    format(s.measured, ".17g"),
                    format(s.expected, ".17g"),
                    format(s.deviation, ".17g"),
                ]
            )
    _json_dump(summary, out / "summary.json")
    return EXIT_PASS if summary["status"] == "pass" else EXIT_FAIL


def _faulty_chain() -> ContractionChain:
    """Deliberately broken fixture: eigenvalues increase with n, so the
    chain is not decreasing even though each step is a contraction."""
    return ContractionChain(
        dim=2,
        kind="faulty_increasing",
        horizon=40,
        factory=lambda n: diagonal([1.0, 0.5 + 0.005 * n]),
        analytic_limit=None,
        seed=0,
    )


def _tally(verdicts) -> dict:
    """Pass/fail/inconclusive counts of per-item verdicts: true, false,
    or None for inconclusive."""
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for verdict in verdicts:
        if verdict is None:
            counts["inconclusive"] += 1
        else:
            counts["pass" if verdict else "fail"] += 1
    counts["total"] = sum(counts.values())
    return counts


def cmd_verify(args, parser) -> int:
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    if args.dims is None:
        dims = CORPUS_DIMS
    else:
        try:
            dims = tuple(int(x) for x in args.dims.split(","))
        except ValueError:
            parser.error(f"--dims must be a comma list of integers: {args.dims!r}")
        if not dims or any(d < 2 for d in dims):
            parser.error("--dims values must all be >= 2")

    chains = corpus_chains(dims, args.seeds)
    if args.include_faulty_fixture:
        chains.append(_faulty_chain())

    chain_verdicts: dict[str, list] = {
        "chain_ordering": [],
        "ab_interleaving": [],
        "adjoint_convergence": [],
        "operator_norm_convergence": [],
    }
    for chain in chains:
        chain_verdicts["chain_ordering"].append(
            is_decreasing(chain, tol_psd=args.tol_psd)
        )
        trace = iterate_products(
            chain, tol_eig=args.tol_eig, tol_psd=args.tol_psd
        )
        report = consecutive_difference_report(trace)
        chain_verdicts["ab_interleaving"].append(report.all_ok)
        trusted = trace.limit.trustworthy
        chain_verdicts["adjoint_convergence"].append(
            float(trace.adj_err[-1].max()) < DEFAULT.convergence
            if trusted
            else None
        )
        chain_verdicts["operator_norm_convergence"].append(
            float(trace.opnorm_err[-1]) < DEFAULT.convergence
            if trusted
            else None
        )
    properties = {name: _tally(v) for name, v in chain_verdicts.items()}

    equivalence = (
        check_fixed_vector_equivalence(op, xi, tol_psd=args.tol_psd)
        for op, xi in equivalence_corpus(200 * args.seeds)
    )
    properties["fixed_vector_equivalence"] = _tally(
        None if r.ambiguous else r.agree for r in equivalence
    )
    properties["projection_monotonicity"] = _tally(
        check_projection_monotone(
            lower, upper, tol_eig=args.tol_eig, tol_psd=args.tol_psd
        )
        for upper, lower in monotone_pair_corpus(100 * args.seeds)
    )
    properties["rank_strict_descent"] = _tally(
        rank_strict_descent_check(
            upper, lower, delta, tol_eig=args.tol_eig, tol_psd=args.tol_psd
        )
        for upper, lower, delta in descent_triple_corpus(12 * args.seeds)
    )

    failed = any(p["fail"] > 0 for p in properties.values())
    inconclusive = any(p["inconclusive"] > 0 for p in properties.values())
    status = "fail" if failed else ("inconclusive" if inconclusive else "pass")
    verdicts = {
        "corpus": {
            "dims": list(dims),
            "seeds": args.seeds,
            "chains": len(chains),
            "faulty_fixture": bool(args.include_faulty_fixture),
        },
        "properties": properties,
        "status": status,
    }
    _json_dump(verdicts, _out_dir(args) / "verdicts.json")
    return _status_exit(status)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="contraction-lab",
        description=(
            "Numerical laboratory for products of decreasing positive "
            "contractions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def out_option(p):
        p.add_argument("--out", default=".", help="output directory")

    def chain_options(p):
        out_option(p)
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help=f"seed (default: ${SEED_ENV_VAR} if set)",
        )
        p.add_argument(
            "--tol-eig",
            type=_tolerance,
            default=DEFAULT.eig,
            help=f"eigenvalue clustering tolerance (default {DEFAULT.eig})",
        )
        p.add_argument(
            "--tol-psd",
            type=_tolerance,
            default=None,
            help="PSD slack tolerance (default 1e-10 per dimension)",
        )

    sim = sub.add_parser("simulate", help="run the product engine on a chain")
    sim.add_argument("--spec", required=True, help="chain spec JSON path")
    sim.add_argument("--horizon", type=int, default=None)
    chain_options(sim)

    gap = sub.add_parser("gap", help="search for a spectral gap certificate")
    gap.add_argument("--spec", required=True, help="chain spec JSON path")
    gap.add_argument("--horizon", type=int, default=None)
    gap.add_argument(
        "--grid", default=None, help="descending comma list of candidate deltas"
    )
    gap.add_argument(
        "--epsilon", type=float, default=1e-8, help="rate bound epsilon"
    )
    chain_options(gap)

    non = sub.add_parser("nonexample", help="build and verify the unitary orbit")
    non.add_argument(
        "--nmax",
        type=int,
        default=10,
        help=f"number of rows, 2..{NMAX_CEILING}",
    )
    non.add_argument(
        "--epsilon", type=float, default=0.5, help="greedy net epsilon"
    )
    out_option(non)

    ver = sub.add_parser("verify", help="run the property suite on the corpus")
    ver.add_argument("--seeds", type=int, default=CORPUS_SEED_COUNT)
    ver.add_argument(
        "--dims", default=None, help="comma list of dimensions (default 2,4,8,16)"
    )
    ver.add_argument(
        "--include-faulty-fixture",
        action="store_true",
        help="inject a deliberately non-decreasing chain (negative test)",
    )
    chain_options(ver)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            code = cmd_simulate(args, parser)
        elif args.command == "gap":
            code = cmd_gap(args, parser)
        elif args.command == "nonexample":
            code = cmd_nonexample(args, parser)
        else:
            code = cmd_verify(args, parser)
    except ChainSpecError as exc:
        parser.error("; ".join(exc.violations))
    except ChainGenerationError as exc:
        parser.error(str(exc))
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_FAIL
    sys.exit(code)


if __name__ == "__main__":
    main()
