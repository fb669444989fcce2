"""Command-line driver: simulate | gap | nonexample | verify.

Exit codes are a stable contract:

    0   all verdicts pass
    1   a verdict failed (for ``simulate``, a theorem-backed one)
    2   inconclusive (empirical limit not trusted, products not yet
        converged by the horizon, no rate table within the searched
        horizon, a PSD-slack verdict that only the default slack
        absorbs under a lower ``--tol-psd``, a verdict on a fixed space
        or a gap search that runs out of grid, where an eigenvalue
        counts as 1 under only one of ``--tol-eig`` and the default,
        or, for ``verify``, a corpus chain or item that is not a
        positive contraction under the given tolerances)
    3   no gap certificate at this grid resolution
    64  usage error, in one stderr line (a bad option, spec or grid, a
        chain with a step or limit that is not a positive contraction
        under the given tolerances, an eigensolver failure, an ``--out``
        that is not a directory and cannot be made into one, or an
        output that cannot be written)

All outputs are byte-stable for a fixed (config, seed): floats print
with 17 significant digits, JSON keys are sorted, and nothing
timestamp- or path-dependent is written.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import NoReturn

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
    _RECON_TOL,
    build_nonexample,
    givens_factorization,
    reconstruction_error,
    verify_not_totally_bounded,
    verify_step_distances,
    verify_vanishing_conditions,
    write_givens_csv,
    write_net_csv,
    write_sequence_csv,
    write_step_distances_csv,
)
from .operators import (
    _slack_verdict,
    check_fixed_vector_equivalence,
    check_projection_monotone,
    diagonal,
)
from .products import (
    is_decreasing,
    iterate_products,
    trace_summary,
    write_opnorm_csv,
    write_trace_csv,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_NO_CERTIFICATE = 3
EXIT_USAGE = 64

# The orbit is stored sparsely, nmax(nmax+1)/2 points of two coordinates
# each, and the greedy net measures each row against the previous one, so
# memory grows as nmax^2 and time about as nmax^2 at moderate epsilon (as
# nmax^3 when epsilon is so small that every point joins the net).  On a
# 2-core x86-64 machine with one BLAS thread, 1000 took 5.3-5.6 s and
# 139 MB peak RSS at epsilon 0.5, writing 83 MB of artifacts, and 28 s
# and 165 MB at 1e-6 (wall and RSS of the child process from os.wait4),
# inside the 40 s and 230 MB that the dense orbit needed at 250.
NMAX_CEILING = 1000


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract says 64, with a
    single stderr line (``-h`` prints the usage)."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite(text: str, positive: bool) -> float:
    """``text`` as a finite float, ``> 0`` if ``positive`` else ``>= 0``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    in_range = value > 0.0 if positive else value >= 0.0
    if not (math.isfinite(value) and in_range):
        bound = "> 0" if positive else ">= 0"
        raise argparse.ArgumentTypeError(
            f"must be a finite number {bound}, got {text!r}"
        )
    return value


def _tolerance(text: str) -> float:
    """A tolerance or bound option: a finite float ``>= 0``."""
    return _finite(text, positive=False)


def _positive(text: str) -> float:
    """A finite float ``> 0``."""
    return _finite(text, positive=True)


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


def _out_refusal(text: str) -> str | None:
    """Why ``--out text`` can be neither the output directory nor made
    into it, or None.  Nothing is created: a refused run leaves no
    directory behind."""
    out = Path(text)
    # the nearest existing path, which mkdir(parents=True) would build on
    found = next(p for p in (out, *out.parents) if os.path.exists(p))
    if not os.path.isdir(found):
        if found == out:
            return f"--out {text!r} is not a directory"
        return f"--out {text!r} lies below {str(found)!r}, not a directory"
    if not os.access(found, os.W_OK | os.X_OK):
        return f"--out {text!r} cannot be written: {str(found)!r} is read-only"
    return None


@contextlib.contextmanager
def _out_dir(args, parser: argparse.ArgumentParser):
    """The output directory, made if missing; an ``OSError`` while it is
    made or written leaves as a usage error, in one stderr line."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except OSError as exc:
        parser.error(f"cannot write output to --out {args.out!r}: {exc}")


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
    if isinstance(raw, dict) and raw.get("seed") is None and seed is not None:
        raw["seed"] = seed
    return build_chain(parse_chain_spec(raw))


def _status_exit(status: str) -> int:
    return {
        "pass": EXIT_PASS,
        "inconclusive": EXIT_INCONCLUSIVE,
        "fail": EXIT_FAIL,
    }[status]


def cmd_simulate(args, parser) -> int:
    chain = _load_chain(args, parser)
    trace = iterate_products(
        chain,
        horizon=args.horizon,
        tol_eig=args.tol_eig,
        tol_psd=args.tol_psd,
        fixed_spaces=True,
    )
    summary = trace_summary(trace)
    with _out_dir(args, parser) as out:
        write_trace_csv(trace, out / "trace.csv")
        write_opnorm_csv(trace, out / "opnorm.csv")
        _json_dump(summary, out / "summary.json")
    return _status_exit(summary["status"])


def cmd_gap(args, parser) -> int:
    chain = _load_chain(args, parser)
    if args.grid is None:
        grid = DELTA_GRID
    else:
        try:
            grid = tuple(float(x) for x in args.grid.split(","))
        except ValueError:
            parser.error(f"--grid must be a comma list of floats: {args.grid!r}")
    result = certificate_search(
        chain, args.horizon, grid, tol_eig=args.tol_eig,
        tol_psd=args.tol_psd,
    )
    with _out_dir(args, parser) as out:
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
    if result.band is not None:
        print(
            f"gap search inconclusive: eigenvalue {result.band} counts as "
            f"1 under only one of tol_eig {args.tol_eig} and the default",
            file=sys.stderr,
        )
        return EXIT_INCONCLUSIVE
    return EXIT_NO_CERTIFICATE


def cmd_nonexample(args, parser) -> int:
    if not 2 <= args.nmax <= NMAX_CEILING:
        parser.error(
            f"--nmax must lie in 2..{NMAX_CEILING}, got {args.nmax}"
        )
    seq = build_nonexample(args.nmax)
    distances = verify_step_distances(seq)
    vanishing = verify_vanishing_conditions(seq)
    net = verify_not_totally_bounded(seq, args.epsilon)
    steps = givens_factorization(seq)
    recon_err = reconstruction_error(seq, steps)
    rank_ok = bool(steps.rank_ok.all())

    verdicts = {
        "within_row_distances": distances.within_row_ok,
        "vanishing_conditions": vanishing.all_ok,
        "givens_reconstruction": recon_err <= _RECON_TOL,
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

    with _out_dir(args, parser) as out:
        write_sequence_csv(seq, out / "sequence.csv")
        write_givens_csv(steps, out / "givens.csv")
        write_net_csv(net, out / "net_growth.csv")
        write_step_distances_csv(distances, out / "step_distances.csv")
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


_CHAIN_PROPERTIES = (
    "chain_ordering",
    "ab_interleaving",
    "adjoint_convergence",
    "operator_norm_convergence",
)


def _unless_refused(check, *args, **kwargs):
    """``check(*args, **kwargs)``, or None when its precondition fails
    under the given tolerances: the theorem it checks says nothing
    there."""
    try:
        return check(*args, **kwargs)
    except PreconditionError:
        return None


def _chain_verdicts(chain: ContractionChain, args) -> tuple:
    """``verify``'s verdicts on one chain, in ``_CHAIN_PROPERTIES``
    order: the order by ``_slack_verdict``, the rest from
    ``trace_summary``.  All inconclusive (None) when a step or the limit
    is not a positive contraction under the given tolerances, or when
    the norm is; a norm that fails raises :class:`InvariantError`."""
    try:
        order = is_decreasing(chain, tol_psd=args.tol_psd)
        # the verdicts read the convergence errors at the horizon only
        trace = iterate_products(
            chain, tol_eig=args.tol_eig, tol_psd=args.tol_psd,
            per_step_errors=False,
        )
    except PreconditionError:
        return (None,) * len(_CHAIN_PROPERTIES)
    verdicts = trace_summary(trace)["verdicts"]
    bounded = verdicts["product_norm_bounded"]
    if bounded is False:
        raise InvariantError(
            f"product norm exceeded 1: max {trace.product_norm}"
        )
    if bounded is None:
        return (None,) * len(_CHAIN_PROPERTIES)
    ordering = order.ok
    if order.witness is not None:
        ordering = _slack_verdict(order.witness, chain.dim, args.tol_psd)
    return (ordering,) + tuple(
        None if verdicts[name] == "inconclusive" else verdicts[name]
        for name in ("ab_chain", "adj_converged", "opnorm_converged")
    )


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

    # corpus_chains refuses a dim it cannot build before building a chain
    chains = corpus_chains(dims, args.seeds)
    if args.include_faulty_fixture:
        chains = itertools.chain(chains, [_faulty_chain()])
    # map holds each chain only while its verdicts are taken, so a
    # finished chain and its stored steps are garbage before the next
    # chain is built
    rows = list(map(lambda chain: _chain_verdicts(chain, args), chains))
    properties = {
        name: _tally(column)
        for name, column in zip(_CHAIN_PROPERTIES, zip(*rows))
    }

    equivalence = (
        _unless_refused(
            check_fixed_vector_equivalence, op, xi, tol_psd=args.tol_psd
        )
        for op, xi in equivalence_corpus(200 * args.seeds)
    )
    properties["fixed_vector_equivalence"] = _tally(
        None if r is None or r.ambiguous else r.agree for r in equivalence
    )
    monotone = (
        (lower.dim, _unless_refused(
            check_projection_monotone, lower, upper,
            tol_eig=args.tol_eig, tol_psd=args.tol_psd,
        ))
        for upper, lower in monotone_pair_corpus(100 * args.seeds)
    )
    properties["projection_monotonicity"] = _tally(
        None if r is None else _slack_verdict(r.witness, dim, args.tol_psd)
        for dim, r in monotone
    )
    # tol_psd moves only this check's preconditions, which raise; its
    # verdict, a rank comparison, has no margin for the slack rule
    properties["rank_strict_descent"] = _tally(
        _unless_refused(
            rank_strict_descent_check,
            upper,
            lower,
            delta,
            tol_eig=args.tol_eig,
            tol_psd=args.tol_psd,
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
            "chains": len(rows),
            "faulty_fixture": bool(args.include_faulty_fixture),
        },
        "properties": properties,
        "status": status,
    }
    with _out_dir(args, parser) as out:
        _json_dump(verdicts, out / "verdicts.json")
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

    def tolerance_options(p):
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

    def chain_options(p):
        out_option(p)
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help=f"seed (default: ${SEED_ENV_VAR} if set)",
        )
        tolerance_options(p)

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
        "--epsilon",
        type=_tolerance,
        default=1e-8,
        help="rate bound epsilon, a finite number >= 0",
    )
    chain_options(gap)

    non = sub.add_parser("nonexample", help="build and verify the unitary orbit")
    non.add_argument(
        "--nmax",
        type=int,
        default=10,
        help=f"number of rows, 2..{NMAX_CEILING} (nmax(nmax+1)/2 points)",
    )
    non.add_argument(
        "--epsilon",
        type=_positive,
        default=0.5,
        help="greedy net epsilon, a finite number > 0",
    )
    out_option(non)

    # no abbreviations: ``--seed`` would otherwise be read as ``--seeds``
    ver = sub.add_parser(
        "verify",
        help="run the property suite on the corpus",
        allow_abbrev=False,
    )
    ver.add_argument("--seeds", type=int, default=CORPUS_SEED_COUNT)
    ver.add_argument(
        "--dims", default=None, help="comma list of dimensions (default 2,4,8,16)"
    )
    ver.add_argument(
        "--include-faulty-fixture",
        action="store_true",
        help="inject a deliberately non-decreasing chain (negative test)",
    )
    out_option(ver)
    tolerance_options(ver)

    return parser


def main(argv=None) -> NoReturn:
    """Run one command; every outcome, a failed invariant included,
    leaves as ``SystemExit`` with its exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # before any work, so a bad --out costs no run
    refusal = _out_refusal(args.out)
    if refusal is not None:
        parser.error(refusal)
    try:
        if args.command == "simulate":
            code = cmd_simulate(args, parser)
        elif args.command == "gap":
            code = cmd_gap(args, parser)
        elif args.command == "nonexample":
            code = cmd_nonexample(args, parser)
        else:
            code = cmd_verify(args, parser)
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        code = EXIT_FAIL
    except ContractionLabError as exc:
        parser.error(str(exc))
    sys.exit(code)


if __name__ == "__main__":
    main()
