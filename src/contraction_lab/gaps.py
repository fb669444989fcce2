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

import csv
from dataclasses import dataclass

import numpy as np

from .chains import ContractionChain, stream_rng
from .config import DEFAULT, DELTA_GRID
from .errors import PreconditionError, RankDescentError
from .operators import (
    Operator,
    Projection,
    contraction_decompose,
    fixed_point_projection,
    fixed_space_rank,
    hermitian_eigenvalues,
    loewner_leq,
    open_interval,
)

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

RATE_CSV_HEADER = ("j", "lhs", "rhs", "slack")

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


@dataclass(frozen=True)
class GapCertificate:
    """Witness that the chain's spectra avoid ``(1 - delta, 1)`` from
    step ``n_start`` on.

    ``scope`` is ``"analytic"`` when generator metadata guarantees the
    gap for all ``n``, else ``"empirical"``: verified only up to
    ``horizon`` and never silently extrapolated.
    """

    delta: float
    n_start: int
    rank_trajectory: tuple[RankStep, ...]
    scope: str
    horizon: int

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
    finest grid value, or beyond the horizon.
    """

    grid: tuple[float, ...]
    rank_trajectory: tuple[RankStep, ...]
    violations: tuple[GapViolation, ...]
    horizon: int

    def to_json_dict(self) -> dict:
        return {
            "status": "no_certificate",
            "grid": list(self.grid),
            "rank_trajectory": [
                step.to_json_dict() for step in self.rank_trajectory
            ],
            "violations": [v.to_json_dict() for v in self.violations],
            "horizon": self.horizon,
        }


def _violating_eigenvalue(
    eigenvalues: np.ndarray, delta: float, tol_eig: float
) -> float | None:
    """Largest eigenvalue strictly inside ``(1 - delta, 1)``, eigenvalues
    within ``tol_eig`` of either endpoint counted as outside."""
    window = open_interval(1.0 - delta, 1.0)
    inside = [x for x in eigenvalues if window.contains(x, tol=tol_eig)]
    return max(inside) if inside else None


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")


def has_gap_at(
    op: Operator, delta: float, *, tol_eig: float = DEFAULT.eig
) -> bool:
    """True iff no eigenvalue of ``op`` lies in the open interval
    ``(1 - delta + tol_eig, 1 - tol_eig)``."""
    _check_delta(delta)
    eigenvalues = hermitian_eigenvalues(op)
    return _violating_eigenvalue(eigenvalues, delta, tol_eig) is None


def _validate_grid(delta_grid) -> tuple[float, ...]:
    grid = tuple(float(d) for d in delta_grid)
    if not grid:
        raise PreconditionError("delta grid is empty")
    for d in grid:
        if not 0.0 < d < 1.0:
            raise PreconditionError(f"grid value {d} outside (0, 1)")
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
    """
    grid = _validate_grid(delta_grid)
    h = chain.horizon if horizon is None else horizon
    if not 1 <= h <= chain.horizon:
        raise PreconditionError(
            f"horizon {h} outside materialized range 1..{chain.horizon}"
        )

    trajectory: list[RankStep] = []
    violations: list[GapViolation] = []

    def rank_at(n: int) -> int:
        return fixed_point_projection(
            chain.operator_at(n), tol_eig=tol_eig, tol_psd=tol_psd
        ).rank

    def scope_for(delta: float) -> str:
        guarantee = chain.gap_guarantee
        if guarantee is not None and delta <= guarantee + tol_eig:
            return "analytic"
        return "empirical"

    # stage 0: largest grid delta that holds at the first operator
    first = chain.operator_at(1)
    delta_cur = None
    for d in grid:
        if has_gap_at(first, d, tol_eig=tol_eig):
            delta_cur = d
            break
    if delta_cur is None:
        offender = _violating_eigenvalue(
            hermitian_eigenvalues(first), grid[-1], tol_eig
        )
        violations.append(GapViolation(1, grid[-1], float(offender)))
        return GapSearchFailure(grid, (), tuple(violations), h)

    n_cur = 1
    trajectory.append(RankStep(1, rank_at(1), delta_cur))

    while True:
        hit = None
        for n in range(n_cur + 1, h + 1):
            eigenvalues = hermitian_eigenvalues(chain.operator_at(n))
            offender = _violating_eigenvalue(eigenvalues, delta_cur, tol_eig)
            if offender is not None:
                hit = (n, float(offender))
                break
        if hit is None:
            return GapCertificate(
                delta=delta_cur,
                n_start=n_cur,
                rank_trajectory=tuple(trajectory),
                scope=scope_for(delta_cur),
                horizon=h,
            )

        n_viol, eigenvalue = hit
        violations.append(GapViolation(n_viol, delta_cur, eigenvalue))
        rank_new = rank_at(n_viol)
        rank_prev = trajectory[-1].rank
        if rank_new >= rank_prev:
            raise RankDescentError(
                f"gap violated at step {n_viol} (delta {delta_cur}, "
                f"eigenvalue {eigenvalue}) but fixed-space rank went "
                f"{rank_prev} -> {rank_new}: strict descent is a theorem, "
                "suspect the generator or the tolerances"
            )

        delta_next = None
        for d in grid:
            if d < delta_cur and has_gap_at(
                chain.operator_at(n_viol), d, tol_eig=tol_eig
            ):
                delta_next = d
                break
        if delta_next is None:
            return GapSearchFailure(
                grid, tuple(trajectory), tuple(violations), h
            )
        n_cur = n_viol
        delta_cur = delta_next
        trajectory.append(RankStep(n_cur, rank_new, delta_cur))


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
    numerics contradict a theorem.  One ``eigh`` per operator serves its
    positivity check, its gap test and its fixed-space rank."""
    decomps = []
    for name, op in (("upper", t_upper), ("lower", t_lower)):
        decomp, ok = contraction_decompose(op, tol_psd=tol_psd)
        if not ok:
            raise PreconditionError(
                f"{name} operator is not a positive contraction "
                f"(witness eigenvalue {ok.witness})"
            )
        decomps.append(decomp)
    upper, lower = decomps
    if not loewner_leq(t_lower, t_upper, tol_psd=tol_psd):
        raise PreconditionError(
            "operators are not ordered: lower <= upper fails"
        )
    _check_delta(delta)
    if _violating_eigenvalue(upper.eigenvalues, delta, tol_eig) is not None:
        raise PreconditionError(
            f"upper operator has no spectral gap at delta {delta}"
        )
    if _violating_eigenvalue(lower.eigenvalues, delta, tol_eig) is None:
        raise PreconditionError(
            f"lower operator violates no gap at delta {delta}: "
            "the descent lemma does not apply"
        )
    rank_upper = fixed_space_rank(upper, tol_eig=tol_eig)
    rank_lower = fixed_space_rank(lower, tol_eig=tol_eig)
    return rank_lower < rank_upper


@dataclass(frozen=True, eq=False)
class RateBoundReport:
    """Per-``j`` comparison of the measured product norm against the
    certified geometric envelope.

    ``lhs[j] = ||S_{n0+j} xi_perp||`` and
    ``rhs[j] = eps + (1 - delta)^j * ||eta'||``; ``slack = rhs - lhs``
    should stay above ``-tol_rate`` everywhere.  ``fitted_slope`` is the
    least-squares slope of ``log lhs`` against ``j`` over the decades
    before numerical leakage flattens the decay (None when there is too
    little clean signal to fit).
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
    n0: int | None = None,
    *,
    j_max: int | None = None,
    tol_eig: float = DEFAULT.eig,
    tol_psd: float | None = None,
    tol_rate: float = DEFAULT.rate,
) -> RateBoundReport:
    """Tabulate the geometric decay bound along a certified chain.

    The probe is split against the limit fixed space; the bound is run
    on the orthogonal part (the fixed part is carried unchanged by every
    step, so it contributes nothing to the decay).  Without a probe, a
    seeded unit vector orthogonal to the limit fixed space is used (the
    chain's seed, or 0).  ``n0`` defaults to the certificate's starting
    step joined with the first step whose fixed projection nearly kills
    the probe (``<= epsilon``).
    """
    if epsilon < 0.0:
        raise PreconditionError(f"epsilon must be >= 0, got {epsilon}")
    last = chain.horizon
    if certificate.scope == "empirical":
        # checked only up to its horizon, so the table must stop there too
        last = min(last, certificate.horizon)
    from .products import limit_operator  # local: avoids import cycle

    info = limit_operator(chain)
    proj = fixed_point_projection(
        info.operator, tol_eig=tol_eig, tol_psd=tol_psd
    )
    if probe is None:
        probe = _seeded_perp_probe(chain, proj)
    xi = np.asarray(probe).reshape(-1)
    if xi.shape[0] != chain.dim:
        raise PreconditionError(
            f"probe lives in dimension {xi.shape[0]}, chain in {chain.dim}"
        )
    norm = np.linalg.norm(xi)
    if norm == 0.0:
        raise PreconditionError("zero probe vector")
    fixed_part = proj.matrix @ xi
    xi_perp = xi - fixed_part

    if n0 is None:
        n0 = certificate.n_start
        for n in range(1, last + 1):
            step_proj = fixed_point_projection(
                chain.operator_at(n), tol_eig=tol_eig, tol_psd=tol_psd
            )
            if np.linalg.norm(step_proj.matrix @ xi_perp) <= epsilon:
                n0 = max(certificate.n_start, n)
                break
        else:
            raise PreconditionError(
                f"no step up to n={last} brings the probe within "
                f"{epsilon} of the gap regime; raise epsilon"
            )
    elif n0 < 1:
        raise PreconditionError(f"n0 must be >= 1, got {n0}")

    limit_j = last - n0
    jm = limit_j if j_max is None else min(j_max, limit_j)
    if jm < 0:
        raise PreconditionError(
            f"n0 {n0} lies beyond the last checkable step {last}"
        )

    proj_n0 = fixed_point_projection(
        chain.operator_at(n0), tol_eig=tol_eig, tol_psd=tol_psd
    )
    eta = xi_perp - proj_n0.matrix @ xi_perp
    carried = xi_perp.astype(eta.dtype, copy=True)
    for n in range(1, n0 + 1):
        op = chain.operator_at(n).entries
        carried = op @ carried
        eta = op @ eta
    eta_norm = float(np.linalg.norm(eta))

    js = np.arange(jm + 1)
    lhs = np.empty(jm + 1)
    for j in range(jm + 1):
        lhs[j] = np.linalg.norm(carried)
        if j < jm:
            carried = chain.operator_at(n0 + j + 1).entries @ carried
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
        tol_rate=tol_rate,
        fitted_slope=slope,
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
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RATE_CSV_HEADER)
        slack = report.slack
        for j in range(report.j.shape[0]):
            writer.writerow(
                [
                    int(report.j[j]),
                    format(float(report.lhs[j]), ".17g"),
                    format(float(report.rhs[j]), ".17g"),
                    format(float(slack[j]), ".17g"),
                ]
            )
