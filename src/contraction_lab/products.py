"""Ordered products of chain operators and their convergence diagnostics.

The central object is ``S_n = T_n T_{n-1} ... T_1`` (left multiplication,
``S_0 = I``).  For a decreasing chain of positive contractions ``S_n``
converges to the projection onto the limit operator's fixed space; the
trace produced here records how fast, in several topologies at once, and
carries the scalar sequences

    b_n = <S_n xi, S_n xi>,   a_n = <S_{n+1} xi, S_n xi>,

whose interleaving ``0 <= a_n <= b_n`` and ``b_{n+1} <= a_n`` is what the
convergence argument rests on.  The identity

    ||S_{n+1} xi - S_n xi||^2 = b_{n+1} + b_n - 2 Re a_n

is checked against the directly measured step difference.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .chains import ContractionChain, stream_rng
from .config import DEFAULT
from .errors import InvariantError, PreconditionError
from .operators import (
    Operator,
    Projection,
    Witnessed,
    _fixed_space,
    _projection_onto,
    loewner_margin,
    spectral_decompose,
)

__all__ = [
    "LimitInfo",
    "ConvergenceTrace",
    "ABChainReport",
    "ProjectionTrace",
    "EpsilonNet",
    "limit_operator",
    "default_probes",
    "iterate_products",
    "is_decreasing",
    "consecutive_difference_report",
    "check_projection_convergence",
    "orbit_epsilon_net",
    "write_trace_csv",
    "trace_summary",
]

_STREAM_PROBES = 11

# Per-step work over a chain is stacked in blocks of consecutive steps
# whose complex dim x dim matrices fit in this many bytes: one numpy or
# LAPACK call per block instead of per step where matrices are tiny and
# call overhead dominates, and one step per block from dim 64 up.  A
# 1 MiB budget was no faster on ``verify`` and cost 3 MB of resident
# memory.
_BLOCK_BYTES = 64 * 1024

# trace.csv is formatted and written in blocks of steps of about this
# many rows, so the text in memory stays bounded at any horizon.
_CSV_BLOCK_ROWS = 256

TRACE_CSV_HEADER = (
    "n",
    "probe_id",
    "sot_err",
    "adj_err",
    "consec_diff",
    "a_n",
    "b_n",
    "wot_err",
    "opnorm_err",
)


@dataclass(frozen=True)
class LimitInfo:
    """The chain limit together with how much to trust it.

    ``provenance`` is ``"analytic"`` when the generator knows its limit in
    closed form; otherwise the limit is the last materialized operator and
    ``cauchy_gap`` records ``||T_horizon - T_{horizon/2}||`` as a sanity
    measure.  Empirical limits with a large gap should downgrade verdicts
    to inconclusive rather than failing them.
    """

    operator: Operator
    provenance: str
    cauchy_gap: float | None

    @property
    def trustworthy(self) -> bool:
        if self.provenance == "analytic":
            return True
        return self.cauchy_gap is not None and (
            self.cauchy_gap < DEFAULT.cauchy_gap_max
        )


def limit_operator(chain: ContractionChain) -> LimitInfo:
    """Analytic limit when the generator provides one, else empirical."""
    if chain.analytic_limit is not None:
        return LimitInfo(chain.analytic_limit, "analytic", None)
    h = chain.horizon
    last = chain.operator_at(h)
    mid = chain.operator_at(max(1, h // 2))
    gap = float(np.linalg.norm(last.entries - mid.entries, 2))
    return LimitInfo(last, "empirical", gap)


def default_probes(
    dim: int, projection: Projection, seed: int
) -> tuple[list[str], np.ndarray]:
    """Standard basis + 3 seeded unit vectors + one vector on each side
    of the limit projection (when the ranks allow)."""
    rng = stream_rng(seed, _STREAM_PROBES)
    eye = np.eye(dim)
    columns = [eye[:, k] for k in range(dim)]
    ids = [f"e{k + 1}" for k in range(dim)]
    for k in range(3):
        v = rng.standard_normal(dim)
        columns.append(v / np.linalg.norm(v))
        ids.append(f"rand{k + 1}")
    draw = rng.standard_normal(dim)
    if projection.rank > 0:
        v = projection.matrix @ draw
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            columns.append(v / norm)
            ids.append("in_P")
    if projection.rank < dim:
        v = draw - projection.matrix @ draw
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            columns.append(v / norm)
            ids.append("perp_P")
    matrix = np.stack(columns, axis=1)
    if np.iscomplexobj(projection.matrix):
        matrix = matrix.astype(np.complex128)
    return ids, matrix


@dataclass(frozen=True, eq=False)
class ConvergenceTrace:
    """Per-step, per-probe convergence record of a product run.

    Arrays are indexed ``[n - 1, probe]`` for ``n = 1..horizon``; the
    ``a`` and ``consec_diff`` arrays stop at ``horizon - 1`` because they
    look one step ahead.  ``tol_psd`` is the slack the engine allowed on
    ``||S_n|| <= 1``; the summary verdict reuses it.  ``tol_eig`` is the
    clustering tolerance that picked out ``projection``.

    ``fixed_spaces`` is None unless the run was asked for the per-step
    fixed spaces.  Then it holds, for ``n = 1..horizon``, the orthonormal
    ``dim x rank_n`` basis of ``T_n``'s fixed space under the same two
    tolerances; if some ``T_n`` is not a positive contraction, its failed
    check ends the tuple instead.
    """

    chain_kind: str
    dim: int
    horizon: int
    probe_ids: tuple[str, ...]
    probes: np.ndarray
    sot_err: np.ndarray
    adj_err: np.ndarray
    wot_err: np.ndarray
    b: np.ndarray
    a: np.ndarray
    consec_diff: np.ndarray
    opnorm_err: np.ndarray
    product_norm: np.ndarray
    limit: LimitInfo
    projection: Projection
    tol_eig: float
    tol_psd: float
    fixed_spaces: tuple[np.ndarray | Witnessed, ...] | None = None

    @property
    def probe_count(self) -> int:
        return len(self.probe_ids)


def _block_steps(dim: int) -> int:
    """Consecutive steps stacked per block in dimension ``dim``."""
    return max(1, _BLOCK_BYTES // (16 * dim * dim))


def _fixed_space_walk(
    chain: ContractionChain, horizon: int, tol_eig: float, tol_psd: float
) -> tuple[np.ndarray | Witnessed, ...]:
    """Fixed-space bases of ``T_1 .. T_horizon``, each read off the
    chain's one ``eigh`` of that step.

    Asked in step order, ``decomposition_at(n)`` hands a Schur chain's
    ``eigh`` of ``T_n`` from its generator to this walk.  A step that is
    not a positive contraction ends the walk with its failed check; the
    error is raised by :func:`check_projection_convergence`, where a
    per-step :func:`~contraction_lab.operators.fixed_point_projection`
    would raise it.
    """
    spaces: list[np.ndarray | Witnessed] = []
    for n in range(1, horizon + 1):
        space = _fixed_space(chain.decomposition_at(n), tol_eig, tol_psd)
        spaces.append(space)
        if isinstance(space, Witnessed):
            break
    return tuple(spaces)


def iterate_products(
    chain: ContractionChain,
    probes: np.ndarray | None = None,
    horizon: int | None = None,
    *,
    probe_ids: list[str] | None = None,
    tol_eig: float = DEFAULT.eig,
    tol_psd: float | None = None,
    seed: int | None = None,
    fixed_spaces: bool = False,
) -> ConvergenceTrace:
    """Run the product ``S_n = T_n S_{n-1}`` and record the trace.

    Probes default to :func:`default_probes`.  Structural facts that hold
    by theorem (``||S_n|| <= 1``, ``b`` nonincreasing, finiteness) are
    enforced here and raise :class:`InvariantError`; convergence
    quality is recorded, not judged.

    The product advances one step at a time, and the per-step metrics are
    taken over stacked blocks of steps (see ``_BLOCK_BYTES``); stacked
    ``matmul``, axis reductions and spectral norms give the same bits as
    one call per step.

    With ``fixed_spaces`` the trace also records each step's fixed space
    for :func:`check_projection_convergence`.  They are taken before the
    limit, in the walk that materializes the chain, so each ``T_n`` is
    diagonalized once; an empirical limit (``T_horizon``) reuses the
    last step's ``eigh`` when the run goes to the chain's horizon.
    """
    h = chain.horizon if horizon is None else horizon
    if h > chain.horizon:
        raise PreconditionError(
            f"requested horizon {h} exceeds chain horizon {chain.horizon}"
        )
    if h < 1:
        raise PreconditionError(f"horizon must be >= 1, got {h}")
    dim = chain.dim
    tol = DEFAULT.psd(dim) if tol_psd is None else tol_psd

    spaces = None
    if fixed_spaces:
        spaces = _fixed_space_walk(chain, h, tol_eig, tol)
    info = limit_operator(chain)
    if info.provenance == "empirical":
        # the empirical limit is T_horizon, the chain's own step
        limit_decomp = chain.decomposition_at(chain.horizon)
    else:
        limit_decomp = spectral_decompose(info.operator)
    proj = _projection_onto(_fixed_space(limit_decomp, tol_eig, tol))

    if probes is None:
        effective_seed = seed if seed is not None else chain.seed
        ids, mat = default_probes(
            dim, proj, 0 if effective_seed is None else effective_seed
        )
    else:
        mat = np.asarray(probes)
        if mat.ndim == 1:
            mat = mat[:, None]
        if mat.shape[0] != dim:
            raise PreconditionError(
                f"probes live in dimension {mat.shape[0]}, chain in {dim}"
            )
        ids = probe_ids or [f"p{k}" for k in range(mat.shape[1])]
    probe_norms = np.linalg.norm(mat, axis=0)
    if np.any(probe_norms == 0.0):
        raise PreconditionError("zero probe vector")
    if len(ids) != mat.shape[1]:
        raise PreconditionError("probe_ids length does not match probes")

    count = mat.shape[1]
    p_mat = proj.matrix
    p_probes = p_mat @ mat
    # each probe's weak-convergence partner is the next probe, cyclically
    partners = np.roll(mat, -1, axis=1)

    sot = np.empty((h, count))
    adj = np.empty((h, count))
    wot = np.empty((h, count))
    b = np.empty((h, count))
    a = np.empty((max(h - 1, 0), count))
    consec = np.empty((max(h - 1, 0), count))
    opnorm = np.empty(h)
    snorm = np.empty(h)

    def record(
        products: np.ndarray, done: int, behind: np.ndarray | None
    ) -> np.ndarray:
        """Fill steps ``done + 1 ..`` from a stack of consecutive products;
        ``behind`` holds the probes applied at step ``done`` (None at the
        start).  Returns the probes applied at the block's last step."""
        finite = np.isfinite(products).all(axis=(1, 2))
        if not finite.all():
            # before the spectral norms, whose SVD fails on inf or nan
            n = done + 1 + int(np.argmin(finite))
            raise InvariantError(f"non-finite values in the product S_{n}")
        steps = slice(done, done + len(products))
        applied = products @ mat
        deviation = applied - p_probes
        sot[steps] = np.linalg.norm(deviation, axis=1)
        adj[steps] = np.linalg.norm(
            products.conj().swapaxes(1, 2) @ mat - p_probes, axis=1
        )
        wot[steps] = np.abs(np.sum(partners.conj() * deviation, axis=1))
        b[steps] = np.real(np.sum(applied.conj() * applied, axis=1))
        if behind is not None:
            applied_from = np.concatenate((behind[None], applied))
        else:
            applied_from = applied
        ahead, back = applied_from[1:], applied_from[:-1]
        # a and consec are indexed by the earlier step of each pair
        pairs = slice(steps.stop - 1 - len(ahead), steps.stop - 1)
        a[pairs] = np.real(np.sum(ahead.conj() * back, axis=1))
        consec[pairs] = np.linalg.norm(ahead - back, axis=1)
        opnorm[steps] = np.linalg.norm(products - p_mat, 2, axis=(1, 2))
        snorm[steps] = np.linalg.norm(products, 2, axis=(1, 2))
        return applied[-1]

    block = min(_block_steps(dim), h)
    stack = np.empty((block, dim, dim), dtype=p_mat.dtype)
    product = np.eye(dim, dtype=p_mat.dtype)
    done = 0
    behind = None
    for n in range(1, h + 1):
        product = chain.operator_at(n).entries @ product
        if product.dtype != stack.dtype:
            # a complex step after real ones: a stack holds one dtype
            if n - 1 > done:
                behind = record(stack[: n - 1 - done], done, behind)
                done = n - 1
            stack = np.empty(stack.shape, dtype=product.dtype)
        stack[n - 1 - done] = product
        if n - done == block or n == h:
            behind = record(stack[: n - done], done, behind)
            done = n

    for name, arr in (
        ("sot_err", sot), ("adj_err", adj), ("wot_err", wot),
        ("b", b), ("a", a), ("consec_diff", consec),
        ("opnorm_err", opnorm), ("product_norm", snorm),
    ):
        if not np.all(np.isfinite(arr)):
            raise InvariantError(f"non-finite values in trace field {name}")
    if np.any(snorm > 1.0 + tol):
        raise InvariantError(
            f"product norm exceeded 1: max {float(snorm.max())}"
        )
    if h > 1:
        growth = np.diff(b, axis=0) / np.maximum(probe_norms**2, 1.0)
        if np.any(growth > DEFAULT.chain(dim)):
            raise InvariantError("b_n increased along the product")

    return ConvergenceTrace(
        chain_kind=chain.kind,
        dim=dim,
        horizon=h,
        probe_ids=tuple(ids),
        probes=mat,
        sot_err=sot,
        adj_err=adj,
        wot_err=wot,
        b=b,
        a=a,
        consec_diff=consec,
        opnorm_err=opnorm,
        product_norm=snorm,
        limit=info,
        projection=proj,
        tol_eig=tol_eig,
        tol_psd=tol,
        fixed_spaces=spaces,
    )


def is_decreasing(
    chain: ContractionChain, *, tol_psd: float | None = None
) -> bool:
    """Whether ``T_{n+1} <= T_n`` in the Loewner order at every step up to
    the chain's horizon, up to PSD slack.

    Every consecutive pair is checked, so by transitivity ``T_m <= T_n``
    for all ``m > n``; the pairs are decided in stacked blocks of steps,
    one ``eigvalsh`` call per block.
    """
    tol = DEFAULT.psd(chain.dim) if tol_psd is None else tol_psd
    block = _block_steps(chain.dim)
    for first in range(1, chain.horizon, block):
        last = min(first + block, chain.horizon)
        stack = np.stack(
            [chain.operator_at(n).entries for n in range(first, last + 1)]
        )
        if not np.all(loewner_margin(stack[:-1], stack[1:]) >= -tol):
            return False
    return True


@dataclass(frozen=True)
class ABChainReport:
    """Verdicts for the scalar interleaving along a trace.

    ``worst_*`` entries give the largest violation found (negative or
    zero means the inequality held everywhere with room to spare).
    """

    tol_chain: float
    tol_identity: float
    worst_a_negative: float
    worst_a_above_b: float
    worst_b_next_above_a: float
    worst_identity_error: float
    a_nonnegative: bool
    a_below_b: bool
    b_next_below_a: bool
    identity_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.a_nonnegative
            and self.a_below_b
            and self.b_next_below_a
            and self.identity_ok
        )


def consecutive_difference_report(
    trace: ConvergenceTrace,
    *,
    tol_chain: float | None = None,
    tol_identity: float = 1e-10,
) -> ABChainReport:
    """Check ``0 <= a_n <= b_n``, ``b_{n+1} <= a_n`` and the step-difference
    identity on every step and probe of a trace."""
    tol = DEFAULT.chain(trace.dim) if tol_chain is None else tol_chain
    if trace.horizon < 2:
        return ABChainReport(
            tol, tol_identity, 0.0, 0.0, 0.0, 0.0, True, True, True, True
        )
    a = trace.a
    b_now = trace.b[:-1]
    b_next = trace.b[1:]
    worst_neg = float((-a).max())
    worst_ab = float((a - b_now).max())
    worst_ba = float((b_next - a).max())
    identity_err = np.abs(
        trace.consec_diff**2 - (b_next + b_now - 2.0 * a)
    )
    worst_id = float(identity_err.max())
    return ABChainReport(
        tol_chain=tol,
        tol_identity=tol_identity,
        worst_a_negative=worst_neg,
        worst_a_above_b=worst_ab,
        worst_b_next_above_a=worst_ba,
        worst_identity_error=worst_id,
        a_nonnegative=worst_neg <= tol,
        a_below_b=worst_ab <= tol,
        b_next_below_a=worst_ba <= tol,
        identity_ok=worst_id <= tol_identity,
    )


@dataclass(frozen=True, eq=False)
class ProjectionTrace:
    """Per-step fixed-space projections compared against the limit's."""

    ranks: np.ndarray
    probe_errors: np.ndarray
    probe_ids: tuple[str, ...]
    limit_rank: int
    ranks_nonincreasing: bool
    final_rank_dominates: bool


def check_projection_convergence(
    chain: ContractionChain, trace: ConvergenceTrace
) -> ProjectionTrace:
    """Track ``||(P_n - P) xi||`` per probe and the rank staircase.

    ``trace`` is what :func:`iterate_products` returned for ``chain``
    with ``fixed_spaces=True``: its per-step fixed spaces, its validated
    probes and ids and its limit projection are used as they are, so
    both records of a run describe the same probes against the same
    limit, and no step is diagonalized again.  ``P_n`` is built from
    the recorded basis exactly as ``fixed_point_projection(T_n)`` builds
    it.  For a decreasing chain the ranks can only step down and can
    never end below the limit's rank; both facts are reported as
    verdicts.
    """
    if (trace.chain_kind, trace.dim) != (chain.kind, chain.dim):
        raise PreconditionError(
            f"trace of a {trace.chain_kind} chain in dimension {trace.dim} "
            f"does not match a {chain.kind} chain in dimension {chain.dim}"
        )
    if trace.fixed_spaces is None:
        raise PreconditionError(
            "trace has no per-step fixed spaces: run iterate_products "
            "with fixed_spaces=True"
        )
    h = trace.horizon
    mat = trace.probes
    proj = trace.projection
    ranks = np.empty(h, dtype=int)
    errors = np.empty((h, trace.probe_count))
    p_probes = proj.matrix @ mat
    for n, space in enumerate(trace.fixed_spaces, 1):
        step = _projection_onto(space)  # raises at a failed check
        ranks[n - 1] = step.rank
        errors[n - 1] = np.linalg.norm(step.matrix @ mat - p_probes, axis=0)
    return ProjectionTrace(
        ranks=ranks,
        probe_errors=errors,
        probe_ids=trace.probe_ids,
        limit_rank=proj.rank,
        ranks_nonincreasing=bool(np.all(np.diff(ranks) <= 0)),
        final_rank_dominates=bool(ranks[-1] >= proj.rank),
    )


@dataclass(frozen=True, eq=False)
class EpsilonNet:
    """Greedy net: members are pairwise more than ``epsilon`` apart and
    every scanned point is within ``epsilon`` of some member."""

    epsilon: float
    member_indices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.member_indices)


def orbit_epsilon_net(points: np.ndarray, epsilon: float) -> EpsilonNet:
    """Greedy epsilon-net in scan order.

    A point joins the net iff its distance to every current member
    exceeds ``epsilon``.  A net that keeps growing as more of an orbit is
    scanned is direct evidence against total boundedness.  Accepted
    members are copied into a preallocated array, so each point is tested
    against all of them in one vectorized distance computation.
    """
    if epsilon <= 0.0:
        raise PreconditionError(f"epsilon must be positive, got {epsilon}")
    pts = np.asarray(points)
    if pts.ndim != 2:
        raise PreconditionError("points must be a (count, dim) array")
    members = np.empty_like(pts)
    indices: list[int] = []
    for i, point in enumerate(pts):
        k = len(indices)
        if k == 0 or np.all(
            np.linalg.norm(members[:k] - point, axis=1) > epsilon
        ):
            members[k] = point
            indices.append(i)
    return EpsilonNet(epsilon=epsilon, member_indices=tuple(indices))


def _csv_field(text) -> str:
    """``text`` as ``csv.writer`` writes it between two other fields."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow((text, ""))
    return buffer.getvalue()[: -len(",\r\n")]


def _trace_rows(
    trace: ConvergenceTrace,
    steps: range,
    middles: list[str],
    fields: tuple[np.ndarray, ...],
) -> str:
    """The rows of consecutive ``steps``, each a ``%``-format: the step
    index, ``middles[p]`` filled with the ``fields`` of probe ``p``, and
    the step's ``opnorm_err``."""
    rows = slice(steps.start - 1, steps.stop - 1)
    opnorm = ["%.17g" % x for x in trace.opnorm_err[rows].tolist()]
    template = "".join(
        f"{n}{middle}{op}\r\n"
        for n, op in zip(steps, opnorm)
        for middle in middles
    )
    cells = np.stack([field[rows] for field in fields], axis=-1)
    return template % tuple(cells.ravel().tolist())


def write_trace_csv(trace: ConvergenceTrace, path) -> None:
    """One row per (step, probe); fields that look one step ahead are
    blank on the final step.

    The bytes are those of ``csv.writer`` with each float formatted by
    ``format(x, ".17g")``: CRLF line ends, probe ids quoted where csv
    quotes them.  Each block of steps (about ``_CSV_BLOCK_ROWS``
    rows) is one ``%``-format of all its floats, and ``"%.17g" % x`` is
    ``format(x, ".17g")``.
    """
    h, count = trace.horizon, trace.probe_count
    ids = [_csv_field(i).replace("%", "%%") for i in trace.probe_ids]
    block = max(1, _CSV_BLOCK_ROWS // max(count, 1))
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(TRACE_CSV_HEADER)
        fields = (
            trace.sot_err, trace.adj_err, trace.consec_diff, trace.a,
            trace.b, trace.wot_err,
        )
        middles = [f",{i},%.17g,%.17g,%.17g,%.17g,%.17g,%.17g," for i in ids]
        for first in range(1, h, block):
            steps = range(first, min(first + block, h))
            handle.write(_trace_rows(trace, steps, middles, fields))
        # a_n and consec_diff look one step ahead: blank on the final step
        fields = (trace.sot_err, trace.adj_err, trace.b, trace.wot_err)
        middles = [f",{i},%.17g,%.17g,,,%.17g,%.17g," for i in ids]
        handle.write(_trace_rows(trace, range(h, h + 1), middles, fields))


def trace_summary(
    trace: ConvergenceTrace,
    *,
    threshold: float = DEFAULT.convergence,
    projection_trace: ProjectionTrace | None = None,
    ab_report: ABChainReport | None = None,
) -> dict:
    """Final values plus verdicts, ready for JSON.

    Convergence verdicts become ``"inconclusive"`` rather than booleans
    when the limit is empirical and its Cauchy gap is too large to trust.
    """
    if ab_report is None:
        ab_report = consecutive_difference_report(trace)
    final = {
        "sot_err_max": float(trace.sot_err[-1].max()),
        "adj_err_max": float(trace.adj_err[-1].max()),
        "wot_err_max": float(trace.wot_err[-1].max()),
        "opnorm_err": float(trace.opnorm_err[-1]),
        "consec_diff_max": (
            float(trace.consec_diff[-1].max()) if trace.horizon > 1 else 0.0
        ),
    }
    conclusive = trace.limit.trustworthy
    def convergence_verdict(value: float):
        if not conclusive:
            return "inconclusive"
        return bool(value < threshold)

    verdicts = {
        "product_norm_bounded": bool(
            trace.product_norm.max() <= 1.0 + trace.tol_psd
        ),
        "ab_chain": ab_report.all_ok,
        "consec_identity": ab_report.identity_ok,
        "sot_converged": convergence_verdict(final["sot_err_max"]),
        "adj_converged": convergence_verdict(final["adj_err_max"]),
        "wot_converged": convergence_verdict(final["wot_err_max"]),
        "opnorm_converged": convergence_verdict(final["opnorm_err"]),
    }
    if projection_trace is not None:
        verdicts["ranks_nonincreasing"] = projection_trace.ranks_nonincreasing
        verdicts["final_rank_dominates"] = projection_trace.final_rank_dominates

    failed = any(v is False for v in verdicts.values())
    inconclusive = any(v == "inconclusive" for v in verdicts.values())
    status = "fail" if failed else ("inconclusive" if inconclusive else "pass")

    summary = {
        "chain_kind": trace.chain_kind,
        "dim": trace.dim,
        "horizon": trace.horizon,
        "probe_ids": list(trace.probe_ids),
        "limit": {
            "provenance": trace.limit.provenance,
            "cauchy_gap": trace.limit.cauchy_gap,
        },
        "projection_rank": trace.projection.rank,
        "threshold": threshold,
        "final": final,
        "verdicts": verdicts,
        "status": status,
    }
    if projection_trace is not None:
        summary["rank_trajectory"] = [int(r) for r in projection_trace.ranks]
    return summary
