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
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .certify import _decreasing_certified, _norms_certified
from .chains import ContractionChain, stream_rng
from .config import DEFAULT
from .errors import InvariantError, PreconditionError
from .operators import (
    Operator,
    Projection,
    Witnessed,
    _contraction_witness,
    _eig_band,
    _eigvalsh,
    _fixed_projection,
    _fixed_space,
    _not_a_contraction,
    _psd_slack,
    _slack_verdict,
    loewner_margin,
    spectral_decompose,
)

__all__ = [
    "LimitInfo",
    "ConvergenceTrace",
    "ABChainReport",
    "EpsilonNet",
    "limit_operator",
    "default_probes",
    "iterate_products",
    "is_decreasing",
    "consecutive_difference_report",
    "orbit_epsilon_net",
    "write_trace_csv",
    "write_opnorm_csv",
    "OPNORM_CSV_HEADER",
    "trace_summary",
]

_STREAM_PROBES = 11

# Row-at-a-time Python work over long arrays (every CSV artifact, and
# the orbit's reconstruction walk) goes a block of this many rows at a
# time, so the Python objects and text in memory stay bounded at any
# size.
_ROW_BLOCK = 1024

# The greedy net measures a block of points against its candidate members
# (the overlapping ones and the block's own points) in one distance array
# of at most this many entries.  A block costs its size times the
# candidates, so smaller blocks do less work on long rows; this size
# still takes every row of up to 255 points in one block.
_NET_BLOCK_ENTRIES = 1 << 16

# A member whose support window is disjoint from a point's is left
# unmeasured only when their exact distance ``sqrt(|m|^2 + |p|^2)``
# exceeds epsilon by this relative margin, far above the rounding of a
# measured distance.
_NET_MARGIN = 1e-12

# trace_summary verdicts that hold for every decreasing chain of positive
# contractions at every horizon; the others are convergence verdicts.
_THEOREM_VERDICTS = (
    "product_norm_bounded",
    "ab_chain",
    "consec_identity",
    "ranks_nonincreasing",
    "final_rank_dominates",
)

TRACE_CSV_HEADER = (
    "n",
    "probe_id",
    "sot_err",
    "adj_err",
    "consec_diff",
    "a_n",
    "b_n",
    "wot_err",
)

OPNORM_CSV_HEADER = ("n", "opnorm_err")


@dataclass(frozen=True)
class LimitInfo:
    """The chain limit together with how much to trust it.

    ``provenance`` is ``"analytic"`` when the generator knows its limit in
    closed form; otherwise the limit is the run's last step ``T_h`` and
    ``cauchy_gap`` records ``||T_h - T_{h//2}||`` as a sanity measure
    (None at ``h == 1``, where there is no earlier step to compare).
    Empirical limits with a large or missing gap should downgrade verdicts
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


def limit_operator(
    chain: ContractionChain, horizon: int | None = None
) -> LimitInfo:
    """Analytic limit when the generator provides one, else empirical:
    ``T_h`` for the run's last step ``h = chain.run_horizon(horizon)``,
    so no step past the run is read."""
    h = chain.run_horizon(horizon)
    if chain.analytic_limit is not None:
        return LimitInfo(chain.analytic_limit, "analytic", None)
    last = chain.operator_at(h)
    gap = None
    if h > 1:
        mid = chain.operator_at(h // 2)
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


def _given_probes(
    probes, dim: int, probe_ids: list[str] | None = None
) -> tuple[list[str], np.ndarray]:
    """Caller-given probes as their ids (default ``p0, p1, ...``) and a
    ``(dim, count)`` matrix, a vector being one column.  Refuses probes
    of another shape or dimension, a non-finite entry, a zero column and
    ids that do not match the columns, before any step is read."""
    mat = np.asarray(probes)
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.ndim != 2:
        raise PreconditionError(
            f"probes must be a vector or a (dim, count) array, got shape "
            f"{mat.shape}"
        )
    if mat.shape[0] != dim:
        raise PreconditionError(
            f"probes live in dimension {mat.shape[0]}, chain in {dim}"
        )
    if not np.isfinite(mat).all():
        raise PreconditionError("non-finite probe vector")
    if np.any(np.linalg.norm(mat, axis=0) == 0.0):
        raise PreconditionError("zero probe vector")
    ids = probe_ids
    if ids is None:
        ids = [f"p{k}" for k in range(mat.shape[1])]
    if len(ids) != mat.shape[1]:
        raise PreconditionError("probe_ids length does not match probes")
    return ids, mat


@dataclass(frozen=True, eq=False)
class ConvergenceTrace:
    """Per-step, per-probe convergence record of a product run.

    Arrays are indexed ``[n - 1, probe]`` for ``n = 1..horizon``; the
    ``a`` and ``consec_diff`` arrays stop at ``horizon - 1`` because they
    look one step ahead.  A final-row trace (``per_step_errors`` False)
    holds ``b``, ``a`` and ``consec_diff`` for every step as well, but
    ``sot_err``, ``adj_err``, ``wot_err`` and ``opnorm_err`` only for
    ``n = horizon``, in their single row ``[0]``: the values of a
    per-step trace's last row, bit for bit.  :func:`trace_summary` reads
    both kinds alike; :func:`write_trace_csv` and
    :func:`write_opnorm_csv` refuse a final-row trace.  ``tol_psd`` is
    the run's positivity slack; :func:`trace_summary` judges ``||S_n||
    <= 1`` by it.  ``tol_eig`` is the clustering tolerance that picked
    out ``projection``.

    ``product_norm`` is the largest SVD norm ``||S_n||`` over the blocks
    of products whose Cholesky certificate ``||S_n|| <= 1 + tol_psd``
    declined (:func:`iterate_products`), and None when none declined: a
    certified block's norms are inside the slack by proof, so only the
    maximum over the others can decide the verdict.

    ``ranks`` is None unless the run was asked for the per-step fixed
    spaces.  Then it holds the rank of ``T_n``'s fixed space under the
    same two tolerances for ``n = 1..horizon``: the staircase that, for a
    decreasing chain, can only step down and never ends below
    ``projection.rank``; ``rank_band`` is then the first step's band
    witness (``operators._eig_band``) that the walk met, if any.
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
    product_norm: float | None
    limit: LimitInfo
    projection: Projection
    tol_eig: float
    tol_psd: float
    ranks: np.ndarray | None = None
    rank_band: float | None = None
    per_step_errors: bool = True

    @property
    def probe_count(self) -> int:
        return len(self.probe_ids)


def iterate_products(
    chain: ContractionChain,
    probes: np.ndarray | None = None,
    horizon: int | None = None,
    *,
    probe_ids: list[str] | None = None,
    tol_eig: float = DEFAULT.eig,
    tol_psd: float | None = None,
    fixed_spaces: bool = False,
    per_step_errors: bool = True,
) -> ConvergenceTrace:
    """Run the product ``S_n = T_n S_{n-1}`` and record the trace.

    The horizon and given probes (:func:`_given_probes`) are checked
    before any step is read.  Probes default to :func:`default_probes`,
    seeded by the chain's seed (or 0).  Theorems that no slack decides
    (``b`` nonincreasing, finiteness) are enforced here and raise
    :class:`InvariantError`; ``||S_n||`` and convergence quality are
    recorded, not judged.

    The product advances one step at a time over the chain's blocks
    (``ContractionChain.step_blocks``), and the per-step metrics
    are taken a block of products at a time; stacked ``matmul``, axis
    reductions and spectral norms give the same bits as one call per
    step.  Each step of a per-step trace (the default) takes one SVD,
    for ``opnorm_err``.  Each block's ``||S_n|| <= 1 + tol_psd`` is
    proved by one stacked Cholesky factorization
    (``certify._norms_certified``); only a block that it declines
    takes the SVD norms ``||S_n||``, whose largest is ``product_norm``.

    With ``per_step_errors`` False the trace is a final-row trace (see
    :class:`ConvergenceTrace`): only step ``h`` gets ``sot_err``,
    ``adj_err``, ``wot_err`` and ``opnorm_err``, from the same stacked
    expressions on the last product alone, so the run takes one SVD
    for ``opnorm_err`` instead of one per step and no adjoint probe
    product before step ``h``.  Every step still gets ``b``, ``a`` and
    ``consec_diff``, the finiteness and ``b`` checks and the norm
    certificate, so every check and verdict reads what a per-step run
    gives.

    With ``fixed_spaces`` the trace also records each step's fixed-space
    rank.  The ranks are read before the limit, in the step-order walk
    that materializes the chain, so each ``T_n`` is diagonalized once (a
    Schur chain's generator hands its ``eigh`` of ``T_n`` to the read),
    and an empirical limit, the run's last step ``T_h``
    (:func:`limit_operator`), reuses that step's ``eigh``; no step past
    ``h`` is read.  A step that is not a positive contraction raises
    :class:`PreconditionError` naming the step there, before any product
    is taken.
    """
    h = chain.run_horizon(horizon)
    dim = chain.dim
    given = None if probes is None else _given_probes(probes, dim, probe_ids)
    if given is None and probe_ids is not None:
        raise PreconditionError("probe_ids given without probes")
    tol = _psd_slack(dim, tol_psd)

    ranks = rank_band = None
    if fixed_spaces:
        ranks = np.empty(h, dtype=int)
        for n in range(1, h + 1):
            decomp = chain.decomposition_at(n)
            space = _fixed_space(decomp, tol_eig, tol, f"step {n}")
            ranks[n - 1] = space.shape[1]
            if rank_band is None:
                rank_band = _eig_band(decomp.eigenvalues, tol_eig)
    info = limit_operator(chain, h)
    if info.provenance == "empirical":
        # the empirical limit is T_h, the run's own last step
        limit_decomp = chain.decomposition_at(h)
    else:
        limit_decomp = spectral_decompose(info.operator)
    proj = _fixed_projection(limit_decomp, tol_eig, tol)

    ids, mat = given or default_probes(
        dim, proj, 0 if chain.seed is None else chain.seed
    )
    probe_norms = np.linalg.norm(mat, axis=0)

    count = mat.shape[1]
    p_mat = proj.matrix
    p_probes = p_mat @ mat
    # each probe's weak-convergence partner is the next probe, cyclically
    partners = np.roll(mat, -1, axis=1)

    # the convergence errors of every step, or of step h alone
    rows = h if per_step_errors else 1
    sot = np.empty((rows, count))
    adj = np.empty((rows, count))
    wot = np.empty((rows, count))
    opnorm = np.empty(rows)
    b = np.empty((h, count))
    a = np.empty((max(h - 1, 0), count))
    consec = np.empty((max(h - 1, 0), count))
    # the largest SVD norm ||S_n|| of each block _norms_certified declines
    declined_norms = []

    def errors(
        products: np.ndarray, applied: np.ndarray, into: slice
    ) -> None:
        """The convergence errors of a stack of products, whose probes
        applied are ``applied``, into rows ``into``."""
        deviation = applied - p_probes
        sot[into] = np.linalg.norm(deviation, axis=1)
        adj[into] = np.linalg.norm(
            products.conj().swapaxes(1, 2) @ mat - p_probes, axis=1
        )
        wot[into] = np.abs(np.sum(partners.conj() * deviation, axis=1))
        opnorm[into] = np.linalg.norm(products - p_mat, 2, axis=(1, 2))

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
        if per_step_errors:
            errors(products, applied, steps)
        elif steps.stop == h:
            # one-product stacks of the same expressions: row h's bits
            errors(products[-1:], applied[-1:], slice(0, 1))
        b[steps] = np.real(np.sum(applied.conj() * applied, axis=1))
        applied_from = applied
        if behind is not None:
            applied_from = np.concatenate((behind[None], applied))
        ahead, back = applied_from[1:], applied_from[:-1]
        # a and consec are indexed by the earlier step of each pair
        pairs = slice(steps.stop - 1 - len(ahead), steps.stop - 1)
        a[pairs] = np.real(np.sum(ahead.conj() * back, axis=1))
        consec[pairs] = np.linalg.norm(ahead - back, axis=1)
        if not _norms_certified(products, tol):
            norms = np.linalg.norm(products, 2, axis=(1, 2))
            declined_norms.append(norms.max())
        return applied[-1]

    product = np.eye(dim, dtype=p_mat.dtype)
    done = 0
    behind = None
    for steps in chain.step_blocks(h):
        # a block holds one dtype, so its products share one too
        stack = np.empty(steps.shape, np.result_type(steps, product))
        for step, out in zip(steps, stack):
            product = np.matmul(step, product, out=out)
        behind = record(stack, done, behind)
        done += len(steps)

    for name, arr in (
        ("sot_err", sot), ("adj_err", adj), ("wot_err", wot),
        ("b", b), ("a", a), ("consec_diff", consec),
        ("opnorm_err", opnorm), ("product_norm", declined_norms),
    ):
        if not np.all(np.isfinite(arr)):
            raise InvariantError(f"non-finite values in trace field {name}")
    product_norm = float(max(declined_norms)) if declined_norms else None
    scale = np.maximum(probe_norms**2, 1.0)
    for first in range(0, h - 1, _ROW_BLOCK):
        growth = np.diff(b[first : first + _ROW_BLOCK + 1], axis=0) / scale
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
        product_norm=product_norm,
        limit=info,
        projection=proj,
        tol_eig=tol_eig,
        tol_psd=tol,
        ranks=ranks,
        rank_band=rank_band,
        per_step_errors=per_step_errors,
    )


def is_decreasing(
    chain: ContractionChain, *, tol_psd: float | None = None
) -> Witnessed:
    """Whether ``T_{n+1} <= T_n`` in the Loewner order at every step up to
    the chain's horizon, up to PSD slack.  The witness is the smallest
    eigenvalue of any ``T_n - T_{n+1}`` in the blocks whose certificate
    declined (None when there is none: at horizon 1, or when every pair
    was certified).

    Every consecutive pair is checked, so by transitivity ``T_m <= T_n``
    for all ``m > n``, and every step is checked to be a positive
    contraction: the order of a chain with a step that is not is outside
    what the theorems speak of.  Both are decided over the chain's
    stored blocks.  One stacked Cholesky factorization per block
    (``certify._decreasing_certified``) proves both for the block's
    steps and its pairs with the block before; a block that it declines
    takes one stacked ``eigvalsh`` of its steps, raising
    :class:`PreconditionError` at the first step that is not a positive
    contraction, and one of its differences, whose least eigenvalue joins
    the witness.  A certified block's eigenvalues are inside the slack by
    proof, so the verdict is the one the solves would give.
    """
    tol = _psd_slack(chain.dim, tol_psd)
    least = math.inf
    done = 0
    before = None  # the step before the block
    for steps in chain.step_blocks():
        if before is None:
            upper, lower = steps[:-1], steps[1:]
        else:
            upper = np.concatenate((before[None], steps[:-1]))
            lower = steps
        if not _decreasing_certified(steps, upper, lower, tol):
            eigenvalues = _eigvalsh(steps)
            refused = (eigenvalues[:, 0] < -tol) | (
                eigenvalues[:, -1] > 1.0 + tol
            )
            if refused.any():
                k = int(np.argmax(refused))
                check = _contraction_witness(eigenvalues[k], tol)
                raise _not_a_contraction(
                    check.witness, f"step {done + k + 1}"
                )
            if len(lower):
                least = min(least, float(loewner_margin(upper, lower).min()))
        before = steps[-1]
        done += len(steps)
    return Witnessed(least >= -tol, None if least == math.inf else least)


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


def consecutive_difference_report(trace: ConvergenceTrace) -> ABChainReport:
    """Check ``0 <= a_n <= b_n``, ``b_{n+1} <= a_n`` and the step-difference
    identity on every step and probe of a trace: the inequalities up to
    ``DEFAULT.chain(dim)``, the identity up to ``1e-10``.  Each worst
    value is 0.0 where there is none: at horizon 1 or with no probe."""
    tol = DEFAULT.chain(trace.dim)
    tol_identity = 1e-10
    if trace.a.size == 0:
        return ABChainReport(
            tol, tol_identity, 0.0, 0.0, 0.0, 0.0, True, True, True, True
        )
    # the largest of each violation, a block of _ROW_BLOCK steps at a time
    worst = np.full(4, -np.inf)
    for first in range(0, trace.horizon - 1, _ROW_BLOCK):
        rows = slice(first, first + _ROW_BLOCK)
        a, b_now, b_next = trace.a[rows], trace.b[:-1][rows], trace.b[1:][rows]
        identity_err = np.abs(
            trace.consec_diff[rows] ** 2 - (b_next + b_now - 2.0 * a)
        )
        np.maximum(
            worst,
            [(-a).max(), (a - b_now).max(), (b_next - a).max(),
             identity_err.max()],
            out=worst,
        )
    worst_neg, worst_ab, worst_ba, worst_id = worst.tolist()
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
class EpsilonNet:
    """Greedy net: members are pairwise more than ``epsilon`` apart and
    every scanned point is within ``epsilon`` of some member."""

    epsilon: float
    member_indices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.member_indices)


def orbit_epsilon_net(
    points: np.ndarray, epsilon: float, starts: np.ndarray | None = None
) -> EpsilonNet:
    """Greedy epsilon-net in scan order.

    A point joins the net iff its distance to every current member
    exceeds ``epsilon``.  A net that keeps growing as more of an orbit is
    scanned is direct evidence against total boundedness.

    Points come in support-window form: row ``i`` of ``points`` holds
    coordinates ``starts[i] .. starts[i] + width - 1`` (0-based) of point
    ``i``, and every other coordinate is 0.  ``starts`` must be
    nondecreasing; it defaults to all zeros, so a dense ``(count, dim)``
    cloud is its own full-width window.

    Support rule: a member whose window is disjoint from a point's lies
    exactly ``sqrt(|m|^2 + |p|^2)`` away.  The points are scanned in
    blocks of one window start.  When that distance exceeds ``epsilon``
    by the relative margin ``_NET_MARGIN`` for every disjoint member and
    every point of the block, those members are not measured; otherwise
    they are, from the two norms.  So for the unit orbit points of
    ``nonexample``, whose windows ``n, n + 1`` overlap only in adjacent
    rows, a point of row ``n`` is measured against the members of rows
    ``n - 1`` and ``n`` alone for any ``epsilon`` below ``sqrt(2)``
    minus the margin.  The rest of the block's distances, to the members
    whose windows overlap and to the block's own points, come from one
    ``norm`` call; the greedy choice then walks the block's points in
    order.
    """
    if not epsilon > 0.0:
        raise PreconditionError(f"epsilon must be positive, got {epsilon}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise PreconditionError("points must be a (count, dim) array")
    count, width = pts.shape
    if starts is None:
        starts = np.zeros(count, dtype=np.intp)
    else:
        starts = np.asarray(starts, dtype=np.intp)
        if starts.shape != (count,) or np.any(np.diff(starts) < 0):
            raise PreconditionError(
                "starts must be a nondecreasing (count,) array"
            )
    sq = np.einsum("ij,ij->i", pts, pts)
    # squared as a float product: inf where ``** 2`` would raise
    # OverflowError, and no warning where a numpy scalar would give one
    reach = float(epsilon) * (1.0 + _NET_MARGIN)
    reach *= reach
    members = np.empty(count, dtype=np.intp)
    member_starts = np.empty(count, dtype=np.intp)
    least_sq = np.empty(count)  # least squared norm among members[: k + 1]
    k = 0
    edges = (np.flatnonzero(np.diff(starts)) + 1).tolist()
    for lo, hi in zip([0, *edges], [*edges, count]):
        while lo < hi:
            start = int(starts[lo])
            # members[near:k] overlap this window; members[:near] do not
            near = int(np.searchsorted(member_starts[:k], start - width + 1))
            q = k - near
            base = int(member_starts[near]) if q else start
            frame_width = start + width - base
            b = math.isqrt(q * q + 4 * _NET_BLOCK_ENTRIES // frame_width)
            b = min(hi - lo, max(1, (b - q) // 2))
            block = slice(lo, lo + b)
            frame = np.zeros((q + b, frame_width))
            cols = (member_starts[near:k] - base)[:, None] + np.arange(width)
            frame[np.arange(q)[:, None], cols] = pts[members[near:k]]
            frame[q:, start - base :] = pts[block]
            # coordinates first: the norm sums whole planes, not short rows
            diff = frame[q:].T[:, :, None] - frame.T[:, None, :]
            close = ~(np.linalg.norm(diff, axis=0) > epsilon)
            covered = close[:, :q].any(axis=1)
            if near and least_sq[near - 1] + sq[block].min() <= reach:
                far = np.sqrt(sq[block, None] + sq[members[:near]])
                covered |= ~(far > epsilon).all(axis=1)
            inner = close[:, q:]
            accepted = []
            i = 0
            while i < b:
                i += int(covered[i:].argmin())  # the next uncovered point
                if covered[i]:
                    break
                accepted.append(i)
                covered |= inner[i]
                i += 1
            added = slice(k, k + len(accepted))
            members[added] = lo + np.asarray(accepted, dtype=np.intp)
            member_starts[added] = start
            least_sq[added] = np.minimum.accumulate(
                np.append(least_sq[k - 1] if k else np.inf, sq[members[added]])
            )[1:]
            k += len(accepted)
            lo += b
    return EpsilonNet(
        epsilon=epsilon, member_indices=tuple(members[:k].tolist())
    )


def _csv_field(text) -> str:
    """``text`` as ``csv.writer`` writes it between two other fields."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow((text, ""))
    return buffer.getvalue()[: -len(",\r\n")]


# The cell format of a column by its dtype kind: integers, floats, and
# text that _csv_field has already quoted.
_CELL_FORMATS = {"i": "%d", "u": "%d", "f": "%.17g", "U": "%s", "O": "%s"}


def _write_csv(path, header, groups) -> None:
    """Write ``header`` and then each group of ``groups``, a tuple of
    equal-length column arrays (None for a column left blank), to
    ``path``: one ``%``-format per block of ``_ROW_BLOCK`` rows, each
    cell formatted by its column's dtype (``_CELL_FORMATS``).

    ``"%.17g" % x`` is ``format(x, ".17g")``, so the bytes are those of
    ``csv.writer`` given the formatted floats: CRLF line ends, and every
    text column already quoted as csv quotes it.
    """
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for group in groups:
            columns = [column for column in group if column is not None]
            row_format = ",".join(
                "" if column is None else _CELL_FORMATS[column.dtype.kind]
                for column in group
            ) + "\r\n"
            for first in range(0, len(columns[0]), _ROW_BLOCK):
                cells = [
                    column[first : first + _ROW_BLOCK].tolist()
                    for column in columns
                ]
                handle.write(
                    row_format * len(cells[0])
                    % tuple(itertools.chain.from_iterable(zip(*cells)))
                )


def _refuse_final_row(trace: ConvergenceTrace) -> None:
    if not trace.per_step_errors:
        raise PreconditionError(
            "a final-row trace has no per-step errors to write"
        )


def write_trace_csv(trace: ConvergenceTrace, path) -> None:
    """One row per (step, probe); fields that look one step ahead are
    blank on the final step.  ``opnorm_err``, one value per step, is
    :func:`write_opnorm_csv`'s.  Written by :func:`_write_csv`; a
    final-row trace has no rows before its last and is refused with
    :class:`PreconditionError` before ``path`` is opened.
    """
    _refuse_final_row(trace)
    h, count = trace.horizon, trace.probe_count
    ids = np.array([_csv_field(i) for i in trace.probe_ids], dtype=object)

    def rows(first: int, stop: int, ahead: tuple) -> tuple:
        fields = (trace.sot_err, trace.adj_err, *ahead, trace.b, trace.wot_err)
        return (
            np.repeat(np.arange(first + 1, stop + 1), count),
            np.tile(ids, stop - first),
            *(None if f is None else f[first:stop].ravel() for f in fields),
        )

    # about _ROW_BLOCK rows a group; consec_diff and a_n look one step
    # ahead, so they are blank on the final step
    per = max(1, _ROW_BLOCK // max(count, 1))
    _write_csv(path, TRACE_CSV_HEADER, itertools.chain(
        (
            rows(first, min(first + per, h - 1), (trace.consec_diff, trace.a))
            for first in range(0, h - 1, per)
        ),
        [rows(h - 1, h, (None, None))],
    ))


def write_opnorm_csv(trace: ConvergenceTrace, path) -> None:
    """One row per step: ``n`` and ``opnorm_err = ||S_n - P||``, a
    property of the product alone, so written once per step whatever
    the probes.  Written by :func:`_write_csv`, a block of steps at a
    time; a final-row trace is refused as by :func:`write_trace_csv`.
    """
    _refuse_final_row(trace)
    h = trace.horizon
    _write_csv(path, OPNORM_CSV_HEADER, (
        (
            np.arange(first + 1, min(first + _ROW_BLOCK, h) + 1),
            trace.opnorm_err[first : first + _ROW_BLOCK],
        )
        for first in range(0, h, _ROW_BLOCK)
    ))


def trace_summary(trace: ConvergenceTrace) -> dict:
    """Final values plus verdicts, ready for JSON.

    An error has converged when its final value is below
    ``DEFAULT.convergence``.  Convergence verdicts become
    ``"inconclusive"`` rather than booleans when the limit is empirical
    and its Cauchy gap is too large to trust, or when they fail against
    a projection with a band witness; a rank verdict that fails with a
    ``rank_band`` is None (inconclusive).  ``status`` is ``"fail"``
    only when a theorem-backed verdict (``_THEOREM_VERDICTS``) is false;
    a false or inconclusive convergence verdict makes it
    ``"inconclusive"``.  ``product_norm_bounded`` is ``_slack_verdict``'s
    judgement of ``1 - product_norm``, None (inconclusive) included, and
    True when ``product_norm`` is None: every product's norm was then
    proved within ``tol_psd``.  A trace with ``ranks`` adds the two rank
    verdicts and ``rank_trajectory``.
    """
    ab_report = consecutive_difference_report(trace)
    # errors are >= 0: a maximum over no probe, or over consec_diff's no
    # row at horizon 1, is 0.0
    final = {
        "sot_err_max": float(trace.sot_err[-1].max(initial=0.0)),
        "adj_err_max": float(trace.adj_err[-1].max(initial=0.0)),
        "wot_err_max": float(trace.wot_err[-1].max(initial=0.0)),
        "opnorm_err": float(trace.opnorm_err[-1]),
        "consec_diff_max": float(trace.consec_diff[-1:].max(initial=0.0)),
    }
    conclusive = trace.limit.trustworthy
    threshold = DEFAULT.convergence

    def convergence_verdict(value: float):
        converged = bool(value < threshold)
        if conclusive and (converged or trace.projection.band is None):
            return converged
        return "inconclusive"

    verdicts = {
        "product_norm_bounded": (
            True if trace.product_norm is None
            else _slack_verdict(
                1.0 - trace.product_norm, trace.dim, trace.tol_psd
            )
        ),
        "ab_chain": ab_report.all_ok,
        "consec_identity": ab_report.identity_ok,
        "sot_converged": convergence_verdict(final["sot_err_max"]),
        "adj_converged": convergence_verdict(final["adj_err_max"]),
        "wot_converged": convergence_verdict(final["wot_err_max"]),
        "opnorm_converged": convergence_verdict(final["opnorm_err"]),
    }
    ranks = trace.ranks
    if ranks is not None:
        # a decreasing chain's fixed spaces shrink towards the limit's
        on_failure = False if trace.rank_band is None else None
        verdicts["ranks_nonincreasing"] = (
            bool(np.all(np.diff(ranks) <= 0)) or on_failure
        )
        verdicts["final_rank_dominates"] = (
            bool(ranks[-1] >= trace.projection.rank) or on_failure
        )

    # a product that has not converged by the horizon may only need more
    # steps, so only a theorem-backed verdict can fail the run
    failed = any(verdicts.get(name) is False for name in _THEOREM_VERDICTS)
    inconclusive = any(v is not True for v in verdicts.values())
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
    if ranks is not None:
        summary["rank_trajectory"] = ranks.tolist()
    return summary
