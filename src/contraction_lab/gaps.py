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

from dataclasses import dataclass

import numpy as np

from .chains import ContractionChain, stream_rng
from .config import DEFAULT, DELTA_GRID
from .errors import PreconditionError, RankDescentError
from .operators import (
    Operator,
    Projection,
    _contraction_witness,
    _fixed_space,
    _not_a_contraction,
    _not_ordered,
    _operand_fixed_space,
    _projection_onto,
    _psd_slack,
    fixed_point_projection,
    hermitian_eigenvalues,
    loewner_leq,
)
from .products import _given_probes, _write_rows, limit_operator

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
    gap for all ``n``, else ``"empirical"``.  Either way only steps up
    to ``horizon`` were checked, and the rate table reads no further.
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
    within ``tol_eig`` of either endpoint counted as outside: the gap
    window is ``1 - delta + tol_eig < lambda < 1 - tol_eig``."""
    low, high = 1.0 - delta + tol_eig, 1.0 - tol_eig
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
    ``(1 - delta + tol_eig, 1 - tol_eig)``.  After :func:`_check_delta`,
    one ``eigvalsh`` serves the window and the positivity check up to
    ``tol_psd`` (``DEFAULT.psd(dim)`` when None), which refuses an ``op``
    that is not a positive contraction."""
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

    One forward pass: each step after ``T_1`` is one :func:`has_gap_at`
    (``eigvalsh``).  ``T_1`` and each step that fails it are decomposed
    once (``decomposition_at``), which gives the offending eigenvalue,
    the next grid delta and the rank; it decides at a window edge.  The
    horizon and the grid are checked first.  Every step read is checked
    to be a positive contraction under ``tol_psd``, and refused by name
    when it is not.
    """
    h = chain.run_horizon(horizon)
    grid = _validate_grid(delta_grid, tol_eig)

    trajectory: list[RankStep] = []
    violations: list[GapViolation] = []
    delta = 1.0  # above every grid value, so T_1 may take any
    for n in range(1, h + 1):
        if n > 1:
            step = chain.operator_at(n)
            try:
                gap = has_gap_at(step, delta, tol_eig=tol_eig, tol_psd=tol_psd)
            except PreconditionError as exc:
                raise PreconditionError(f"step {n} is {exc}") from exc
            if gap:
                continue
        decomp = chain.decomposition_at(n)
        eigenvalues = decomp.eigenvalues
        rank = _fixed_space(decomp, tol_eig, tol_psd, f"step {n}").shape[1]
        if n > 1:
            offender = _violating_eigenvalue(eigenvalues, delta, tol_eig)
            if offender is None:
                continue  # has_gap_at disagreed at a window edge
            violations.append(GapViolation(n, delta, float(offender)))
            if rank >= trajectory[-1].rank:
                raise RankDescentError(
                    f"gap violated at step {n} (delta {delta}, "
                    f"eigenvalue {float(offender)}) but fixed-space rank "
                    f"went {trajectory[-1].rank} -> {rank}: strict descent "
                    "is a theorem, suspect the generator or the tolerances"
                )
        # the largest grid delta below the current one that holds here
        for d in grid:
            if d < delta and _violating_eigenvalue(eigenvalues, d, tol_eig) is None:
                break
        else:
            if n == 1:
                offender = _violating_eigenvalue(eigenvalues, grid[-1], tol_eig)
                violations.append(GapViolation(1, grid[-1], float(offender)))
            return GapSearchFailure(
                grid, tuple(trajectory), tuple(violations), h
            )
        delta = d
        trajectory.append(RankStep(n, rank, delta))

    guarantee = chain.gap_guarantee
    analytic = guarantee is not None and delta <= guarantee + tol_eig
    return GapCertificate(
        delta=delta,
        n_start=trajectory[-1].n,
        rank_trajectory=tuple(trajectory),
        scope="analytic" if analytic else "empirical",
        horizon=h,
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
    upper, upper_space = _operand_fixed_space(
        "upper", t_upper, tol_eig, tol_psd
    )
    lower, lower_space = _operand_fixed_space(
        "lower", t_lower, tol_eig, tol_psd
    )
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
    fixed spaces shrink, so no earlier step can.  The products are one
    forward pass from ``T_1``.  The arguments, a given probe among them
    (``_given_probes``), are checked before any step is read.
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
    proj = fixed_point_projection(
        info.operator, tol_eig=tol_eig, tol_psd=tol_psd
    )
    xi = _seeded_perp_probe(chain, proj) if probe is None else probe
    fixed_part = proj.matrix @ xi
    xi_perp = xi - fixed_part

    def step_projection(n: int) -> Projection:
        decomp = chain.decomposition_at(n)
        return _projection_onto(
            _fixed_space(decomp, tol_eig, tol_psd, f"step {n}")
        )

    for n0 in range(certificate.n_start, last + 1):
        if np.linalg.norm(step_projection(n0).matrix @ xi_perp) <= epsilon:
            break
    else:
        raise PreconditionError(
            f"no step up to n={last} brings the probe within "
            f"{epsilon} of the gap regime; raise epsilon"
        )
    jm = last - n0 if j_max is None else min(j_max, last - n0)

    # a scan that stopped at n0 reads T_n0 from the chain's handover
    eta = xi_perp - step_projection(n0).matrix @ xi_perp
    carried = xi_perp.astype(eta.dtype, copy=True)
    lhs = np.empty(jm + 1)
    for n in range(1, n0 + jm + 1):
        op = chain.operator_at(n).entries
        carried = op @ carried
        if n <= n0:
            eta = op @ eta
        if n >= n0:
            lhs[n - n0] = np.linalg.norm(carried)
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
        handle.write(",".join(RATE_CSV_HEADER) + "\r\n")
        _write_rows(
            handle,
            "%d,%.17g,%.17g,%.17g\r\n",
            (report.j, report.lhs, report.rhs, report.slack),
        )
