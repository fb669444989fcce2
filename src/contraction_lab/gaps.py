"""Uniform spectral gap: certificate search, rank descent, rate bounds.

A chain has a uniform spectral gap when there are ``delta`` and ``N``
such that no eigenvalue of any ``T_n`` (n >= N) lies in the open
interval ``(1 - delta, 1)``.  The search below walks a descending grid
of candidate deltas; every time the gap is violated at some step the
fixed-space rank is forced to drop strictly, so the walk terminates in
at most ``rank + 1`` recorded stages or exhausts the grid.

When a certificate exists the product norms decay geometrically:

    ||S_{n0+j} xi|| <= eps + (1 - delta)^j ||eta'||

for probes orthogonal to the limit fixed space, with
``eta' = S_{n0} P_{n0}^perp xi``.  :func:`rate_bound_check` tabulates
both sides per ``j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .certify import (
    _Anchor,
    _anchor_of,
    _order_bound,
    _rounded_up,
    _window_closes,
)
from .chains import ContractionChain, stream_rng
from .config import DEFAULT, DELTA_GRID
from .errors import PreconditionError, RankDescentError
from .operators import (
    Operator,
    Projection,
    _contraction_witness,
    _eig_band,
    _fixed_projection,
    _fixed_space,
    _not_a_contraction,
    _not_ordered,
    _psd_slack,
    fixed_point_projection,
    hermitian_eigenvalues,
    loewner_leq,
    spectral_decompose,
)
from .products import _given_probes, _write_csv, limit_operator

__all__ = [
    "RankStep",
    "GapCertificate",
    "GapViolation",
    "GapSearchFailure",
    "RateBoundReport",
    "has_gap_at",
    "certificate_search",
    "rank_strict_descent_check",
    "rate_bound_check",
    "write_rate_csv",
]

RATE_CSV_HEADER = ("j", "lhs", "rhs")

# spawn-key namespace of the default rate-bound probe
_STREAM_RATE_PROBE = 17


@dataclass(frozen=True)
class RankStep:
    """One stage of the search: at step ``n`` the fixed-space rank was
    ``rank`` and the active candidate was ``delta_k``."""

    n: int
    rank: int
    delta_k: float

    def to_json_dict(self) -> dict:
        return {"n": self.n, "rank": self.rank, "delta_k": self.delta_k}


class _CarriedProbe(NamedTuple):
    """The rate table's default probe as the search carried it: the
    limit and tolerances it was split at, the limit's fixed projection,
    the probe's part ``xi_perp`` off it, and ``||S_n xi_perp||`` at
    ``norms[n - 1]`` for every step the search read."""

    limit: Operator
    tols: tuple[float, float | None]
    projection: Projection
    probe: np.ndarray
    norms: np.ndarray


@dataclass(frozen=True)
class GapCertificate:
    """Witness that the chain's spectra avoid ``(1 - delta, 1)`` from
    step ``n_start`` on.

    ``scope`` is ``"analytic"`` when generator metadata guarantees the
    gap for all ``n``, else ``"empirical"``.  Either way only steps up
    to ``horizon`` were checked, and the rate table reads no further.
    """

    delta: float
    n_start: int
    rank_trajectory: tuple[RankStep, ...]
    scope: str
    horizon: int
    _carried: _CarriedProbe | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def N(self) -> int:  # noqa: N802  (certificate field name)
        return self.n_start

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "N": self.n_start,
            "scope": self.scope,
            "rank_trajectory": [
                step.to_json_dict() for step in self.rank_trajectory
            ],
        }


@dataclass(frozen=True)
class GapViolation:
    """An eigenvalue found strictly inside ``(1 - delta, 1)`` at step
    ``n``."""

    n: int
    delta: float
    eigenvalue: float

    def to_json_dict(self) -> dict:
        return {"n": self.n, "delta": self.delta, "eigenvalue": self.eigenvalue}


@dataclass(frozen=True)
class GapSearchFailure:
    """Grid exhausted without a certificate.

    Not proof that no gap exists: the chain may have one below the
    finest grid value, or beyond the horizon.  ``band`` is the first band
    witness (``operators._eig_band``) the search read: an eigenvalue that
    ``tol_eig`` and the default cluster differently, so the failure may
    rest on rounding or a coarse clustering alone.
    """

    grid: tuple[float, ...]
    rank_trajectory: tuple[RankStep, ...]
    violations: tuple[GapViolation, ...]
    horizon: int
    band: float | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "status": "no_certificate",
            "grid": list(self.grid),
            "rank_trajectory": [
                step.to_json_dict() for step in self.rank_trajectory
            ],
            "violations": [v.to_json_dict() for v in self.violations],
            "horizon": self.horizon,
        }
        if self.band is not None:
            doc["band"] = self.band
        return doc


def _window(delta: float, tol_eig: float) -> tuple[float, float]:
    """The ends ``1 - delta + tol_eig`` and ``1 - tol_eig`` of the open
    gap window."""
    return 1.0 - delta + tol_eig, 1.0 - tol_eig


def _violating_eigenvalue(
    eigenvalues: np.ndarray, delta: float, tol_eig: float
) -> float | None:
    """Largest eigenvalue strictly inside ``(1 - delta, 1)``, eigenvalues
    within ``tol_eig`` of either endpoint counted as outside: the gap
    window is ``1 - delta + tol_eig < lambda < 1 - tol_eig``."""
    low, high = _window(delta, tol_eig)
    inside = (eigenvalues > low) & (eigenvalues < high)
    return eigenvalues[inside].max() if inside.any() else None


def _check_delta(delta: float, tol_eig: float) -> None:
    """Refuse a ``delta`` outside ``(0, 1)``, or one whose gap window is
    empty (``delta <= 2 tol_eig``), where any operator would have the
    gap."""
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    if delta <= 2.0 * tol_eig:
        raise PreconditionError(
            f"delta {delta} leaves the gap window empty at tol_eig "
            f"{tol_eig}: it must exceed 2 * tol_eig"
        )


def has_gap_at(
    op: Operator, delta: float, *, tol_eig: float = DEFAULT.eig,
    tol_psd: float | None = None,
) -> bool:
    """True iff no eigenvalue of ``op`` lies in the open interval
    ``(1 - delta + tol_eig, 1 - tol_eig)``, checked after
    :func:`_check_delta`.  One ``eigvalsh`` decides the window and the
    positivity check up to ``tol_psd`` (``DEFAULT.psd(dim)`` when None),
    and refuses an ``op`` that is not a positive contraction, so every
    verdict, refusal and witness comes from that solve.
    :func:`certificate_search` calls it only on the steps that its
    windows do not prove to pass it."""
    _check_delta(delta, tol_eig)
    eigenvalues = hermitian_eigenvalues(op)
    check = _contraction_witness(eigenvalues, _psd_slack(op.dim, tol_psd))
    if not check:
        raise _not_a_contraction(check.witness)
    return _violating_eigenvalue(eigenvalues, delta, tol_eig) is None


def _validate_grid(delta_grid, tol_eig: float) -> tuple[float, ...]:
    grid = tuple(float(d) for d in delta_grid)
    if not grid:
        raise PreconditionError("delta grid is empty")
    for d in grid:
        _check_delta(d, tol_eig)
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise PreconditionError("delta grid must be strictly descending")
    return grid


def certificate_search(
    chain: ContractionChain,
    horizon: int | None = None,
    delta_grid=DELTA_GRID,
    *,
    tol_eig: float = DEFAULT.eig,
    tol_psd: float | None = None,
) -> GapCertificate | GapSearchFailure:
    """Search for a uniform gap certificate by rank descent.

    Start at ``n = 1`` with the largest grid delta giving a gap there;
    scan forward for the first violation; at a violation the fixed-space
    rank must drop strictly (raises :class:`RankDescentError` otherwise,
    since that contradicts a theorem and signals a numerical bug), and
    the search resumes from the violating step with the largest smaller
    grid delta that holds there.  Certificate when a scan reaches the
    horizon clean; failure report when the grid runs out.

    One forward pass, which reads each step once (``operator_at``), in
    order.  ``T_1`` and each step that fails its gap test are decomposed
    once (``decomposition_at``), which gives the offending eigenvalue,
    the next grid delta and the rank; it decides at a window edge.  Such
    a step anchors the steps after it, which are decided in windows of
    consecutive steps, at most :data:`_WINDOW_STEPS` of them and at most
    :data:`_WINDOW_BYTES` of their entries: stacked Cholesky
    factorizations prove the order of each step against the one before
    (``certify._order_bound``), and Weyl's monotonicity theorem
    carries the anchor's eigenvalues, and bounds at the window's last
    step, to every step of the window (``certify._window_closes``).  A
    window closes only when that proves that :func:`has_gap_at` passes
    every step in it.  The steps of one that does not close are decided
    in order by the per-step rule: one :func:`has_gap_at` (one
    ``eigvalsh``) and, when it fails, the decomposition.  So every
    violation, refusal, offending eigenvalue and band witness comes from
    those solves.  When none of them fails, the rest of the segment is
    decided by the per-step rule too, as is a segment whose anchor no window
    could close on (at ``tol_eig`` or ``tol_psd`` within rounding of 0,
    for example, before any factorization); an order that no
    factorization proves ends every window that holds or follows it in
    the segment.  So a segment pays at most one window's order
    factorizations and window test for nothing.  A read that raises
    ends the open window before it, so the search returns or raises
    where the per-step rule would, though it may have read up to
    ``_WINDOW_STEPS - 1`` steps past a failure it returns.  A failure
    keeps the first band witness read from the decompositions.
    The horizon and the grid are checked first.  Every step read is
    checked to be a positive contraction under ``tol_psd``, and refused
    by name when it is not.

    When the generator gives the limit, the same pass carries the rate
    table's default probe: ``xi_perp``, split against the limit's fixed
    projection, is multiplied by each step read and ``||S_n xi_perp||``
    recorded, so that :func:`rate_bound_check` takes its ``lhs`` column
    from the certificate and reads only steps ``1 .. n0`` again.  The
    split costs one ``eigh`` of the limit, spent for nothing on a search
    that ends without a certificate.
    """
    h = chain.run_horizon(horizon)
    grid = _validate_grid(delta_grid, tol_eig)
    carried = _carry_default_probe(chain, h, tol_eig, tol_psd)
    vector = None if carried is None else carried.probe
    scan = _Scan(chain, h, grid, tol_eig, tol_psd)
    held: list[tuple[int, Operator]] = []  # the open window
    size = 0  # its bytes
    for n in range(1, h + 1):
        try:
            step = chain.operator_at(n)
        except Exception:
            done = scan.settle(held)
            if done is not None:
                return done
            raise
        if carried is not None:
            vector = step.entries @ vector
            carried.norms[n - 1] = np.linalg.norm(vector)
        if scan.anchor is None:
            done = scan.decide(n, step)
            if done is not None:
                return done
            continue
        held.append((n, step))
        size += step.entries.nbytes
        if size >= _WINDOW_BYTES or len(held) == _WINDOW_STEPS or n == h:
            done = scan.settle(held)
            if done is not None:
                return done
            held, size = [], 0

    guarantee = chain.gap_guarantee
    analytic = guarantee is not None and scan.delta <= guarantee + tol_eig
    return GapCertificate(
        delta=scan.delta,
        n_start=scan.trajectory[-1].n,
        rank_trajectory=tuple(scan.trajectory),
        scope="analytic" if analytic else "empirical",
        horizon=h,
        _carried=carried,
    )


# the steps a window of the certificate scan holds: at most
# _WINDOW_BYTES of their entries, 8 steps at dim 128, and at most
# _WINDOW_STEPS of them.  On the dim-128 gap-certify chain, windows of
# 1, 2 and 4 steps cut the search's CPU time by 0, 18% and 27% against
# one gap test per step, and raised the run's peak RSS by 0, 0.15-0.3
# and 0.3-0.5 MB.  Windows of 4, 8 and 16 steps (512 KiB, 1 MiB and
# 2 MiB) took a median of 0.321, 0.295 and 0.295 s of search CPU (10
# interleaved rounds in process, bordered factorizations, 2-core host,
# one BLAS thread), and the run peaked at 40.57, 40.66 and 41.80 MB
# (medians of 5).  At dims 4 to 16 a search step cost 8-11.5 us with
# windows of 32 steps, 7-11 us with 64 and 7-12 us unbounded, against
# 22-27 us for one gap test per step; a search that fails inside a
# window has read to its end.  The order is proved in stacks of at most
# _ORDER_BYTES, 1 step from dim 91 up: stacking all of a 4-step window at
# dim 128 raised the run's peak RSS by 0.63 MB, against 0.49 MB in
# 128 KiB stacks, and one factorization per step costs 22-26 us per step
# at dims 4 to 16, as much as one gap test
_WINDOW_BYTES = 1024 * 1024
_WINDOW_STEPS = 32
_ORDER_BYTES = 128 * 1024


class _Scan:
    """The state of :func:`certificate_search`'s pass: the grid delta,
    the rank trajectory, the violations and band witness so far, and the
    segment's anchor (None while steps are decided one by one) with
    ``rise``, a bound on the order's rounding summed from the anchor to
    the last step decided, and ``before``, that step's entries."""

    def __init__(self, chain, h, grid, tol_eig, tol_psd):
        self.chain, self.h, self.grid = chain, h, grid
        self.tol_eig, self.tol_psd = tol_eig, tol_psd
        self.slack = _psd_slack(chain.dim, tol_psd)
        self.delta = 1.0  # above every grid value, so T_1 may take any
        self.trajectory: list[RankStep] = []
        self.violations: list[GapViolation] = []
        self.band = None
        self.anchor: _Anchor | None = None
        self.rise = 0.0
        self.before: np.ndarray | None = None

    def decide(
        self, n: int, step: Operator, tau: float = 0.0
    ) -> GapSearchFailure | None:
        """Step ``n``, whose order against the step before is proved to
        ``tau`` in an open segment, by the per-step rule; a failure when
        the grid runs out there."""
        self.before = step.entries
        self.rise = _rounded_up(self.rise + tau)
        if n > 1:
            try:
                gap = has_gap_at(
                    step, self.delta, tol_eig=self.tol_eig,
                    tol_psd=self.tol_psd,
                )
            except PreconditionError as exc:
                raise PreconditionError(f"step {n} is {exc}") from exc
            if gap:
                return None
        decomp = self.chain.decomposition_at(n)
        eigenvalues = decomp.eigenvalues
        if self.band is None:
            self.band = _eig_band(eigenvalues, self.tol_eig)
        rank = _fixed_space(
            decomp, self.tol_eig, self.tol_psd, f"step {n}"
        ).shape[1]
        if n > 1:
            offender = _violating_eigenvalue(
                eigenvalues, self.delta, self.tol_eig
            )
            if offender is None:
                return None  # has_gap_at disagreed at a window edge
            self.violations.append(GapViolation(n, self.delta, float(offender)))
            if rank >= self.trajectory[-1].rank:
                raise RankDescentError(
                    f"gap violated at step {n} (delta {self.delta}, "
                    f"eigenvalue {float(offender)}) but fixed-space rank "
                    f"went {self.trajectory[-1].rank} -> {rank}: strict "
                    "descent is a theorem, suspect the generator or the "
                    "tolerances"
                )
        # the largest grid delta below the current one that holds here
        for d in self.grid:
            if d < self.delta and _violating_eigenvalue(
                eigenvalues, d, self.tol_eig
            ) is None:
                break
        else:
            if n == 1:
                offender = _violating_eigenvalue(
                    eigenvalues, self.grid[-1], self.tol_eig
                )
                self.violations.append(
                    GapViolation(1, self.grid[-1], float(offender))
                )
            return GapSearchFailure(
                self.grid, tuple(self.trajectory), tuple(self.violations),
                self.h, self.band,
            )
        self.delta = d
        self.trajectory.append(RankStep(n, rank, d))
        self.anchor = _anchor_of(
            decomp, step.entries, *_window(d, self.tol_eig), self.slack
        )
        self.rise = 0.0
        return None

    def settle(self, held: list) -> GapSearchFailure | None:
        """Decide the ``held`` steps of a window, in order; a failure
        when the grid runs out at one of them.  Their order is proved by
        stacked factorizations of at most :data:`_ORDER_BYTES` of steps;
        a stack that does not factor gives its steps an infinite bound,
        so no window that holds them or follows them in the segment
        closes.  The steps of a window that does not close are decided
        one by one, and when none of them anchors a new segment, so are
        the rest of the segment's."""
        if not held:
            return None
        anchor = self.anchor
        steps = [step.entries for _, step in held]
        before = self.before
        chunk = max(1, _ORDER_BYTES // before.nbytes)
        work = np.empty(
            (min(chunk, len(steps)), *before.shape),
            np.result_type(before, *steps),
        )
        taus = []
        for first in range(0, len(steps), chunk):
            part = steps[first : first + chunk]
            d = work[: len(part)]
            for k, entries in enumerate(part):
                np.subtract(before, entries, out=d[k])
                before = entries
            bound = _order_bound(d, anchor.sigma, solved=False)
            taus += [math.inf if bound is None else -bound] * len(d)
        del work, d  # before the window test and any gap tests
        rise = _rounded_up(math.fsum([self.rise, *taus]))
        drop = _rounded_up(math.fsum(taus[1:]))
        if _window_closes(anchor, rise, drop, steps[-1]):
            self.rise, self.before = rise, steps[-1]
            return None
        for (n, step), tau in zip(held, taus):
            done = self.decide(n, step, tau)
            if done is not None:
                return done
        if self.anchor is anchor:
            self.anchor = None
        return None


def _carry_default_probe(
    chain: ContractionChain, h: int, tol_eig: float, tol_psd: float | None
) -> _CarriedProbe | None:
    """The rate table's default probe split against the chain's analytic
    limit, with room for ``h`` norms.  None for an empirical limit, which
    is known only at the end, and for a limit that the projection refuses
    (the table refuses it in its turn)."""
    limit = chain.analytic_limit
    if limit is None:
        return None
    try:
        proj = fixed_point_projection(limit, tol_eig=tol_eig, tol_psd=tol_psd)
    except PreconditionError:
        return None
    xi = _seeded_perp_probe(chain, proj)
    return _CarriedProbe(
        limit, (tol_eig, tol_psd), proj, xi - proj.matrix @ xi, np.empty(h)
    )


def rank_strict_descent_check(
    t_upper: Operator,
    t_lower: Operator,
    delta: float,
    *,
    tol_eig: float = DEFAULT.eig,
    tol_psd: float | None = None,
) -> bool:
    """Under ``t_lower <= t_upper``, gap at the upper operator and gap
    violated at the lower one, the lower fixed-space rank must be
    strictly smaller.  Returns that comparison; ``False`` means the
    numerics contradict a theorem.  ``delta`` is checked before any
    solve (:func:`_check_delta`); then one ``eigh`` per operator serves
    its positivity check, its gap test and its fixed-space rank."""
    _check_delta(delta, tol_eig)
    upper = spectral_decompose(t_upper)
    upper_space = _fixed_space(upper, tol_eig, tol_psd, "upper operand")
    lower = spectral_decompose(t_lower)
    lower_space = _fixed_space(lower, tol_eig, tol_psd, "lower operand")
    ordering = loewner_leq(t_lower, t_upper, tol_psd=tol_psd)
    if not ordering:
        raise _not_ordered(ordering.witness)
    if _violating_eigenvalue(upper.eigenvalues, delta, tol_eig) is not None:
        raise PreconditionError(
            f"upper operator has no spectral gap at delta {delta}"
        )
    if _violating_eigenvalue(lower.eigenvalues, delta, tol_eig) is None:
        raise PreconditionError(
            f"lower operator violates no gap at delta {delta}: "
            "the descent lemma does not apply"
        )
    return lower_space.shape[1] < upper_space.shape[1]


@dataclass(frozen=True, eq=False)
class RateBoundReport:
    """Per-``j`` comparison of the measured product norm against the
    certified geometric envelope.

    ``lhs[j] = ||S_{n0+j} xi_perp||`` and
    ``rhs[j] = eps + (1 - delta)^j * ||eta'||``; ``slack = rhs - lhs``
    should stay above ``-tol_rate`` (``DEFAULT.rate``) everywhere.
    ``fitted_slope`` is the least-squares slope of ``log lhs`` against
    ``j`` over the decades before numerical leakage flattens the decay
    (None when there is too little clean signal to fit).
    """

    delta: float
    epsilon: float
    n0: int
    j: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    eta_prime_norm: float
    fixed_component_norm: float
    tol_rate: float
    fitted_slope: float | None

    @property
    def slack(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def worst_slack(self) -> float:
        return float(self.slack.min())

    @property
    def bound_holds(self) -> bool:
        return self.worst_slack >= -self.tol_rate


def rate_bound_check(
    chain: ContractionChain,
    certificate: GapCertificate,
    probe: np.ndarray | None = None,
    epsilon: float = 1e-8,
    *,
    j_max: int | None = None,
    tol_eig: float = DEFAULT.eig,
    tol_psd: float | None = None,
) -> RateBoundReport:
    """Tabulate the geometric decay bound along a certified chain.

    The probe is split against the limit fixed space; the bound is run
    on the orthogonal part (the fixed part is carried unchanged by every
    step, so it contributes nothing to the decay).  Without a probe, a
    seeded unit vector orthogonal to the limit fixed space is used (the
    chain's seed, or 0).  The limit, the table and its ``n0`` scan read
    only the steps the search checked, up to ``certificate.horizon``: an
    empirical limit is that step (:func:`limit_operator`).  ``n0`` is the
    first step from ``N`` on whose fixed projection leaves at most
    ``epsilon`` of the probe, so both hypotheses of the bound hold there;
    fixed spaces shrink, so no earlier step can.  The arguments, a given
    probe among them (``_given_probes``), are checked before any step is
    read.

    ``lhs`` is a slice of a column of ``||S_n xi_perp||``: the one that
    :func:`certificate_search` carried, together with the limit's
    projection, when it carried this table's default probe (on a chain
    whose generator gives the limit) at the same tolerances and bit for
    bit; otherwise one the table fills over steps ``1 .. n0 + j_max``,
    with the same matvecs in the same order (an empirical limit, a given
    probe, other tolerances).  Then one replay of steps ``1 .. n0``
    gives ``eta'``.
    """
    if not epsilon >= 0.0:  # NaN too
        raise PreconditionError(f"epsilon must be >= 0, got {epsilon}")
    if j_max is not None and j_max < 0:
        raise PreconditionError(f"j_max must be >= 0, got {j_max}")
    if probe is not None:
        _, given = _given_probes(np.reshape(probe, -1), chain.dim)
        probe = given[:, 0]
    last = chain.run_horizon(certificate.horizon)
    info = limit_operator(chain, last)
    carried = certificate._carried
    if carried is not None and (
        probe is not None
        or carried.limit is not info.operator
        or carried.tols != (tol_eig, tol_psd)
    ):
        carried = None
    if carried is not None:
        proj = carried.projection
    else:
        proj = fixed_point_projection(
            info.operator, tol_eig=tol_eig, tol_psd=tol_psd
        )
    xi = _seeded_perp_probe(chain, proj) if probe is None else probe
    fixed_part = proj.matrix @ xi
    xi_perp = xi - fixed_part

    for n0 in range(certificate.n_start, last + 1):
        decomp = chain.decomposition_at(n0)
        step = _fixed_projection(decomp, tol_eig, tol_psd, f"step {n0}")
        settled = step.matrix @ xi_perp
        if np.linalg.norm(settled) <= epsilon:
            break
    else:
        raise PreconditionError(
            f"no step up to n={last} brings the probe within "
            f"{epsilon} of the gap regime; raise epsilon"
        )
    jm = last - n0 if j_max is None else min(j_max, last - n0)

    eta = xi_perp - settled
    vector = xi_perp.astype(eta.dtype, copy=True)
    if carried is None or not _same_bits(carried.probe, vector):
        norms = np.empty(n0 + jm)
        for n in range(1, n0 + jm + 1):
            vector = chain.operator_at(n).entries @ vector
            norms[n - 1] = np.linalg.norm(vector)
    else:
        norms = carried.norms
    lhs = norms[n0 - 1 : n0 + jm].copy()
    for n in range(1, n0 + 1):
        eta = chain.operator_at(n).entries @ eta
    eta_norm = float(np.linalg.norm(eta))
    js = np.arange(jm + 1)
    rhs = epsilon + (1.0 - certificate.delta) ** js * eta_norm

    floor = max(1e-250, 1e-13 * lhs[0]) if lhs[0] > 0 else 1e-250
    usable = lhs > floor
    if usable.sum() >= 2:
        slope = float(np.polyfit(js[usable], np.log(lhs[usable]), 1)[0])
    else:
        slope = None

    return RateBoundReport(
        delta=certificate.delta,
        epsilon=epsilon,
        n0=n0,
        j=js,
        lhs=lhs,
        rhs=rhs,
        eta_prime_norm=eta_norm,
        fixed_component_norm=float(np.linalg.norm(fixed_part)),
        tol_rate=DEFAULT.rate,
        fitted_slope=slope,
    )


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


def _seeded_perp_probe(chain: ContractionChain, proj: Projection) -> np.ndarray:
    """Seeded unit probe pushed off the limit fixed space when
    possible."""
    seed = 0 if chain.seed is None else chain.seed
    draw = stream_rng(seed, _STREAM_RATE_PROBE).standard_normal(chain.dim)
    if proj.rank < chain.dim:
        draw = draw - proj.matrix @ draw
    norm = np.linalg.norm(draw)
    return draw / norm if norm > 0 else np.eye(chain.dim)[:, 0]


def write_rate_csv(report: RateBoundReport, path) -> None:
    _write_csv(path, RATE_CSV_HEADER, [(report.j, report.lhs, report.rhs)])
