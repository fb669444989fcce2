import csv
import dataclasses
import itertools
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contraction_lab import (
    DEFAULT,
    GapCertificate,
    GapSearchFailure,
    Operator,
    PreconditionError,
    RankDescentError,
    certificate_search,
    const,
    diagonal,
    diagonal_chain,
    fixed_point_projection,
    gap_engineered_chain,
    geometric,
    has_gap_at,
    identity,
    iterate_products,
    limit_operator,
    near_one_accumulating_chain,
    peel,
    rank_strict_descent_check,
    random_schur_chain,
    rate_bound_check,
)
from contraction_lab import build_chain, chains, gaps, parse_chain_spec
from contraction_lab.chains import ContractionChain, stream_rng
from contraction_lab.config import DELTA_GRID
from contraction_lab.corpus import (
    CORPUS_DIMS,
    corpus_chains,
    descent_triple_corpus,
)
from contraction_lab.errors import ChainGenerationError
from contraction_lab.gaps import (
    RATE_CSV_HEADER,
    GapViolation,
    RankStep,
    write_rate_csv,
)
from contraction_lab.operators import (
    SpectralDecomposition,
    _eig_band,
    _fixed_space,
    _order_bound,
    _rounded_up,
    spectral_decompose,
)
from test_operators import (
    UNIT_ROUNDOFF,
    exact_entries,
    exact_gram,
    exact_psd,
    haar_frame,
    shifted,
)


SPECS = Path(__file__).resolve().parents[1] / "specs"
FINE_GRID = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001, 0.0001)


def geometric_tail_chain(horizon=60):
    # T_n = diag(1, 0.9^n): gap exactly 0.1 from the very first step
    return diagonal_chain([const(1.0), geometric(0.9)], horizon=horizon)


def staged_peel_chain(horizon=160):
    # coordinates leave the 1-cluster at scripted steps, landing exactly
    # in successive bands of the default search grid
    return diagonal_chain(
        [
            const(1.0),
            peel(40, 0.7, 0.9),
            peel(80, 0.85, 0.9),
            peel(120, 0.95, 0.9),
        ],
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# has_gap_at


def test_has_gap_at_boundary_semantics():
    assert has_gap_at(diagonal([1.0, 0.9]), 0.1)  # 0.9 sits on the edge
    assert not has_gap_at(diagonal([1.0, 0.95]), 0.1)
    for delta in (0.001, 0.1, 0.5, 0.999):
        assert has_gap_at(identity(3), delta)
    with pytest.raises(PreconditionError):
        has_gap_at(identity(2), 0.0)
    with pytest.raises(PreconditionError):
        has_gap_at(identity(2), 1.0)


def test_empty_gap_window_is_refused(eigensolve_counts):
    # the window (1 - delta + tol_eig, 1 - tol_eig) is empty for
    # delta <= 2 tol_eig, where every operator would have the gap
    op = diagonal([1.0, 0.99])
    assert not has_gap_at(op, 0.02, tol_eig=0.009)
    chain = geometric_tail_chain(10)
    eigensolve_counts.reset()
    for delta in (0.02, 0.01):
        message = (
            rf"^delta {delta} leaves the gap window empty at tol_eig 0\.01: "
            r"it must exceed 2 \* tol_eig$"
        )
        with pytest.raises(PreconditionError, match=message):
            has_gap_at(op, delta, tol_eig=0.01)
        with pytest.raises(PreconditionError, match=message):
            rank_strict_descent_check(identity(2), op, delta, tol_eig=0.01)
        with pytest.raises(PreconditionError, match=message):
            certificate_search(chain, delta_grid=(0.5, delta), tol_eig=0.01)
    # each is refused before any solve
    assert eigensolve_counts == {
        "eigh": 0, "eigvalsh": 0, "cholesky": 0, "qr": 0, "svd": 0,
    }


def test_gap_scan_refuses_a_step_outside_the_slack():
    # T_3 rises above 1 by 1e-12: within the default slack, outside 1e-13;
    # the scan decides T_3 by its gap test alone
    def factory(n):
        return diagonal([1.0 + (1e-12 if n == 3 else 0.0), 0.5])

    chain = ContractionChain(2, "bump_above_one", 6, factory)
    assert isinstance(certificate_search(chain), GapCertificate)
    with pytest.raises(PreconditionError) as raised:
        certificate_search(chain, tol_psd=1e-13)
    assert str(raised.value) == (
        "step 3 is not a positive contraction: offending eigenvalue "
        f"{1.0 + 1e-12}"
    )
    with pytest.raises(PreconditionError, match="^not a positive"):
        has_gap_at(chain.operator_at(3), 0.1, tol_psd=1e-13)


@given(
    seed=st.integers(min_value=0, max_value=3_000),
    d_small=st.sampled_from([0.005, 0.01, 0.05]),
    d_large=st.sampled_from([0.1, 0.2, 0.5]),
)
def test_has_gap_monotone_in_delta(seed, d_small, d_large):
    # a gap on a wide band implies a gap on any narrower band
    rng = np.random.default_rng(seed)
    vals = np.where(rng.uniform(size=5) < 0.4, 1.0, rng.uniform(0.0, 1.0, 5))
    op = diagonal(vals)
    if has_gap_at(op, d_large):
        assert has_gap_at(op, d_small)


def eigvalsh_gap_rule(op, delta, *, tol_eig, tol_psd):
    """``has_gap_at``'s rule as one ``eigvalsh`` alone decides it: the
    positivity check up to the slack, then the open gap window."""
    eigenvalues = np.linalg.eigvalsh(op.entries)
    slack = DEFAULT.psd(op.dim) if tol_psd is None else tol_psd
    for witness in (eigenvalues[0], eigenvalues[-1]):
        if not -slack <= witness <= 1.0 + slack:
            raise PreconditionError(
                "not a positive contraction: offending eigenvalue "
                f"{float(witness)}"
            )
    low, high = 1.0 - delta + tol_eig, 1.0 - tol_eig
    return not ((eigenvalues > low) & (eigenvalues < high)).any()


def gap_outcome(rule, *args, **kwargs):
    try:
        return rule(*args, **kwargs)
    except PreconditionError as exc:
        return str(exc)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim", [1, 2, 16, 128])
def test_has_gap_at_agrees_with_the_eigvalsh_rule(
    dim, complex_, eigensolve_counts
):
    # Q diag(l) Q* with one eigenvalue at, a few ulps from, or about the
    # eigvalsh error bound rho from each edge the rule reads; the rest
    # sit at 1 and below the window.  Each call is one eigvalsh
    rng = np.random.default_rng(dim)
    draw = rng.standard_normal((dim, dim))
    if complex_:
        draw = draw + 1j * rng.standard_normal((dim, dim))
    frame = np.linalg.qr(draw)[0]
    fixed = (dim - 1) // 2
    rest = np.concatenate(
        (np.ones(fixed), np.linspace(0.0, 0.45, dim - 1 - fixed))
    )
    u = np.finfo(float).eps / 2
    rho = 4.0 * dim * dim * u * math.sqrt(dim)
    offsets = [0.0, 2 * u, -2 * u, 8 * u, -8 * u]
    offsets += [rho, -rho, 4 * rho, -4 * rho]
    for tol_eig, tol_psd, delta in itertools.product(
        (DEFAULT.eig, 0.0), (None, 0.0, 1e-14), (0.1, 0.5)
    ):
        tols = {"tol_eig": tol_eig, "tol_psd": tol_psd}
        slack = DEFAULT.psd(dim) if tol_psd is None else tol_psd
        low, high = 1.0 - delta + tol_eig, 1.0 - tol_eig
        for edge in (low, high, -slack, 1.0 + slack, 0.0, 1.0):
            for offset in offsets:
                values = np.concatenate(([edge + offset], rest))
                op = Operator((frame * values) @ frame.conj().T)
                eigensolve_counts.reset()
                verdict = gap_outcome(has_gap_at, op, delta, **tols)
                assert eigensolve_counts == {
                    "eigh": 0, "eigvalsh": 1, "cholesky": 0, "qr": 0,
                    "svd": 0,
                }
                assert eigensolve_counts.calls == eigensolve_counts
                assert verdict == gap_outcome(
                    eigvalsh_gap_rule, op, delta, **tols
                )


# ---------------------------------------------------------------------------
# Certificate search


def test_certificate_on_geometric_tail():
    result = certificate_search(geometric_tail_chain())
    assert isinstance(result, GapCertificate)
    assert result.delta == 0.1
    assert result.N == 1
    assert result.scope == "empirical"
    steps = [(s.n, s.rank, s.delta_k) for s in result.rank_trajectory]
    assert steps == [(1, 1, 0.1)]


def test_certificate_json_contract():
    result = certificate_search(geometric_tail_chain())
    doc = result.to_json_dict()
    assert set(doc) == {"delta", "N", "scope", "rank_trajectory"}
    assert doc["N"] == 1
    assert set(doc["rank_trajectory"][0]) == {"n", "rank", "delta_k"}


def test_certificate_on_engineered_chain_is_analytic():
    chain = gap_engineered_chain(6, 0.2, 2, seed=3, horizon=80)
    result = certificate_search(chain)
    assert isinstance(result, GapCertificate)
    assert result.delta == 0.2
    assert result.N == 1
    assert result.scope == "analytic"
    assert len(result.rank_trajectory) == 1


def test_certificate_search_staged_rank_descent():
    result = certificate_search(staged_peel_chain())
    assert isinstance(result, GapCertificate)
    steps = [(s.n, s.rank, s.delta_k) for s in result.rank_trajectory]
    assert steps == [(1, 4, 0.5), (40, 3, 0.2), (80, 2, 0.1), (120, 1, 0.05)]
    assert result.delta == 0.05
    assert result.N == 120
    # trajectory can never exceed rank(T_1) + 1 stages
    assert len(result.rank_trajectory) <= 4 + 1


def test_search_failure_when_spectrum_sits_in_finest_band():
    chain = diagonal_chain([const(1.0), const(0.9995)], horizon=10)
    result = certificate_search(chain)
    assert isinstance(result, GapSearchFailure)
    assert result.rank_trajectory == ()
    assert len(result.violations) == 1
    v = result.violations[0]
    assert (v.n, v.delta) == (1, 0.001)
    assert v.eigenvalue == pytest.approx(0.9995)
    doc = result.to_json_dict()
    assert doc["status"] == "no_certificate"
    assert set(doc) == {
        "status", "grid", "rank_trajectory", "violations", "horizon",
    }


def test_search_failure_keeps_the_first_band_witness():
    # at tol_eig 0 rounding leaves T_1's fixed eigenvalue just below 1,
    # inside every grid delta's window, so the grid runs out at step 1;
    # only the default counts it as 1, and the failure names it as band
    spec = json.loads((SPECS / "gap_dim64.json").read_text())
    chain = build_chain(parse_chain_spec(spec))
    result = certificate_search(chain, tol_eig=0.0)
    assert isinstance(result, GapSearchFailure)
    assert result.band == 0.9999999999999997
    assert [(v.n, v.eigenvalue) for v in result.violations] == [
        (1, 0.9999999999999997)
    ]
    assert result.to_json_dict()["band"] == result.band
    # at the default tol_eig no eigenvalue is clustered differently; a
    # coarser one counts 0.99995 as 1, which the default does not
    curves = [const(1.0), const(0.99995), const(0.9995)]
    chain = diagonal_chain(curves, horizon=10)
    assert certificate_search(chain).band is None
    result = certificate_search(chain, tol_eig=1e-4)
    assert isinstance(result, GapSearchFailure) and result.band == 0.99995


def test_search_failure_on_near_one_stress_chain():
    chain = near_one_accumulating_chain(8, seed=2, horizon=400)
    result = certificate_search(chain)
    assert isinstance(result, GapSearchFailure)
    ranks = [s.rank for s in result.rank_trajectory]
    # strict descent at every recorded stage, down the whole grid ladder
    assert ranks == sorted(ranks, reverse=True)
    assert len(set(ranks)) == len(ranks)
    deltas = [s.delta_k for s in result.rank_trajectory]
    assert deltas == sorted(deltas, reverse=True)


def test_rank_descent_violation_is_an_error():
    # increasing second eigenvalue wanders into (1 - delta, 1) without
    # shedding fixed rank: the search must refuse to continue
    def factory(n):
        return Operator(np.diag([1.0, 0.5 + 0.01 * n]))

    chain = ContractionChain(2, "drift", 40, factory)
    with pytest.raises(RankDescentError, match="strict descent"):
        certificate_search(chain)


def test_certificate_search_grid_validation():
    chain = geometric_tail_chain(10)
    with pytest.raises(PreconditionError, match="empty"):
        certificate_search(chain, delta_grid=())
    with pytest.raises(
        PreconditionError, match=r"^delta must lie in \(0, 1\), got 1.5$"
    ):
        certificate_search(chain, delta_grid=(1.5, 0.1))
    with pytest.raises(PreconditionError, match="descending"):
        certificate_search(chain, delta_grid=(0.1, 0.2))
    with pytest.raises(PreconditionError, match="horizon"):
        certificate_search(chain, horizon=11)


def test_certificate_search_respects_custom_grid():
    chain = gap_engineered_chain(5, 0.1, 2, seed=4, horizon=60)
    result = certificate_search(chain, delta_grid=(0.3, 0.05))
    assert isinstance(result, GapCertificate)
    assert result.delta == 0.05  # 0.3 is violated by the 0.9-level start
    assert all(s.delta_k in (0.3, 0.05) for s in result.rank_trajectory)


# ---------------------------------------------------------------------------
# The scan's windows against one gap test per step


def per_step_search(
    chain, horizon=None, delta_grid=DELTA_GRID, *, tol_eig=DEFAULT.eig,
    tol_psd=None,
):
    """The certificate search with one ``has_gap_at`` per step after
    ``T_1``, in order: the rule whose results the windows of
    ``certificate_search`` must give bit for bit."""
    h = chain.run_horizon(horizon)
    grid = gaps._validate_grid(delta_grid, tol_eig)
    carried = gaps._carry_default_probe(chain, h, tol_eig, tol_psd)
    vector = None if carried is None else carried.probe
    trajectory, violations = [], []
    band = None
    delta = 1.0
    for n in range(1, h + 1):
        step = chain.operator_at(n)
        if carried is not None:
            vector = step.entries @ vector
            carried.norms[n - 1] = np.linalg.norm(vector)
        if n > 1:
            try:
                gap = has_gap_at(
                    step, delta, tol_eig=tol_eig, tol_psd=tol_psd
                )
            except PreconditionError as exc:
                raise PreconditionError(f"step {n} is {exc}") from exc
            if gap:
                continue
        decomp = chain.decomposition_at(n)
        eigenvalues = decomp.eigenvalues
        if band is None:
            band = _eig_band(eigenvalues, tol_eig)
        rank = _fixed_space(decomp, tol_eig, tol_psd, f"step {n}").shape[1]
        if n > 1:
            offender = gaps._violating_eigenvalue(eigenvalues, delta, tol_eig)
            if offender is None:
                continue
            violations.append(GapViolation(n, delta, float(offender)))
            if rank >= trajectory[-1].rank:
                raise RankDescentError(
                    f"gap violated at step {n} (delta {delta}, "
                    f"eigenvalue {float(offender)}) but fixed-space rank "
                    f"went {trajectory[-1].rank} -> {rank}: strict descent "
                    "is a theorem, suspect the generator or the tolerances"
                )
        for d in grid:
            if d < delta and gaps._violating_eigenvalue(
                eigenvalues, d, tol_eig
            ) is None:
                break
        else:
            if n == 1:
                offender = gaps._violating_eigenvalue(
                    eigenvalues, grid[-1], tol_eig
                )
                violations.append(GapViolation(1, grid[-1], float(offender)))
            return GapSearchFailure(
                grid, tuple(trajectory), tuple(violations), h, band
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
        _carried=carried,
    )


def search_outcome(search, chain, **kwargs):
    """A search's result with its carried norms' bytes, or the type and
    message of what it raised."""
    try:
        result = search(chain, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    carried = getattr(result, "_carried", None)
    return result, None if carried is None else carried.norms.tobytes()


SEARCH_SPECS = sorted(path.name for path in SPECS.glob("*.json"))
CORPUS_COUNT = 5 * len(CORPUS_DIMS) * 2  # kinds x dims x seeds


def search_chain(name):
    """A bundled spec's chain by file name, or the ``i``-th of
    ``corpus_chains(CORPUS_DIMS, 2)`` for ``corpus-i``."""
    if name.startswith("corpus-"):
        index = int(name.split("-")[1])
        return next(itertools.islice(
            corpus_chains(CORPUS_DIMS, 2), index, None
        ))
    return build_chain(parse_chain_spec(json.loads((SPECS / name).read_text())))


# every tolerance pair on the default grid; on the fine grid the pairs
# that open windows (the defaults) and two that leave none
SEARCH_SETTINGS = [
    (DELTA_GRID, tol_eig, tol_psd)
    for tol_eig in (0.0, 1e-15, DEFAULT.eig, 1e-2)
    for tol_psd in (0.0, 1e-15, None, 1e300)
] + [(FINE_GRID, DEFAULT.eig, None), (FINE_GRID, 0.0, None),
     (FINE_GRID, DEFAULT.eig, 0.0)]


@pytest.mark.parametrize(
    "name",
    SEARCH_SPECS + [f"corpus-{i}" for i in range(CORPUS_COUNT)],
)
def test_windowed_search_agrees_with_one_gap_test_per_step(name):
    # certificates, failures (violations, band, rank trajectory) and the
    # carried norms bit for bit, or the same refusal
    chain = search_chain(name)
    for grid, tol_eig, tol_psd in SEARCH_SETTINGS:
        tols = {"delta_grid": grid, "tol_eig": tol_eig, "tol_psd": tol_psd}
        assert search_outcome(certificate_search, chain, **tols) == (
            search_outcome(per_step_search, chain, **tols)
        ), tols


def test_corpus_count_is_the_corpus():
    assert sum(1 for _ in corpus_chains(CORPUS_DIMS, 2)) == CORPUS_COUNT


def test_search_returns_where_the_grid_runs_out_before_a_read_raises():
    # T_5 leaves no grid delta, and building T_6 raises.  One gap test
    # per step returns the failure at T_5 without reading T_6; the
    # window that read ahead must return it too.  With the grid left
    # open at T_5 (a finer last delta), the read's error is what both
    # raise, and a step refused before it is refused first
    def factory(n, top=0.9995, bad=None):
        if n == 6:
            raise ChainGenerationError("step 6 cannot be built")
        values = [top if n >= 5 else 1.0, 0.5]
        if n == bad:
            values[1] = -0.5
        return Operator(np.diag(values))

    def chain(**kwargs):
        return ContractionChain(
            2, "raising", 8, lambda n: factory(n, **kwargs)
        )

    want = per_step_search(chain())
    assert isinstance(want, GapSearchFailure)
    assert [v.n for v in want.violations] == [5]
    assert certificate_search(chain()) == want
    cases = [
        ({"top": 0.9}, {}),
        ({"top": 0.9}, {"delta_grid": (0.5, 0.05)}),
        ({"bad": 4}, {}),
    ]
    for built, tols in cases:
        outcome = search_outcome(certificate_search, chain(**built), **tols)
        assert outcome == search_outcome(
            per_step_search, chain(**built), **tols
        )
        assert outcome[0] in (ChainGenerationError, PreconditionError)


def test_search_counts_no_order_bound_it_was_not_given():
    # dim 64 in one frame: 8 fixed eigenvalues and the rest decreasing,
    # but at step 21 a fixed eigenvalue drops to 0.95, which anchors a
    # segment at delta 0.05, and at step 23 a free eigenvalue rises to 1,
    # past every order bound and into the fixed space, and drops to 0.97
    # at step 40, inside the window.  Windows hold 16 steps, proved 4 at
    # a time, so steps 2 .. 17 close, and the unproved stack of steps
    # 22 .. 25 sits in the window of the anchor, which is decided step by
    # step.  Step 40 violates the gap with no drop in rank, which the
    # per-step rule refuses; a window whose rise took no bound for the
    # steps after the anchor would close over it
    dim = 64
    frame = haar_frame(np.random.default_rng(3), dim, False)
    base = np.random.default_rng(4).uniform(0.2, 0.8, dim - 8)

    def factory(n):
        values = np.concatenate((np.ones(8), base * (0.5 + 0.5 / n)))
        if n >= 21:
            values[7] = 0.95
        if n >= 23:
            values[8] = 1.0 if n < 40 else 0.97
        return Operator((frame * values) @ frame.T)

    closed = []

    def spied(anchor, rise, drop, last):
        closed.append(closes(anchor, rise, drop, last))
        return closed[-1]

    closes = gaps._window_closes
    chain = ContractionChain(dim, "rising", 60, factory)
    want = search_outcome(per_step_search, chain)
    assert want[0] is RankDescentError and "step 40" in want[1]
    gaps._window_closes = spied
    try:
        assert search_outcome(certificate_search, chain) == want
    finally:
        gaps._window_closes = closes
    assert closed == [True, False, False]


def exact_gap_rule_holds(entries, low, high, slack):
    """Whether the exact eigenvalues of a stored Hermitian matrix of dim
    1 or 2 lie outside ``(low, high)`` and in ``[-slack, 1 + slack]``:
    Sylvester's criterion on ``(T - low)(T - high)``, ``T + slack I`` and
    ``(1 + slack) I - T``, in fractions."""
    t = exact_entries(entries)
    square = exact_gram(entries)  # T* T = T^2
    lo, hi = Fraction(low), Fraction(high)
    w = [
        [
            (sq[0] - (lo + hi) * tv[0] + (lo * hi if i == j else 0),
             sq[1] - (lo + hi) * tv[1])
            for j, (sq, tv) in enumerate(zip(square_row, t_row))
        ]
        for i, (square_row, t_row) in enumerate(zip(square, t))
    ]
    s = Fraction(slack)
    return (
        exact_psd(w)
        and exact_psd(shifted(t, -s, 1))
        and exact_psd(shifted(t, 1 + s, -1))
    )


@st.composite
def edge_windows(draw):
    """An anchor ``T_a = Q diag(a) Q*`` and a window of 1-6 steps after
    it in the same frame, at dim 1, 2, 8 or 32, real or complex.  ``a``
    has ``r`` eigenvalues at 1 or placed at or above ``high`` and the
    rest below ``low``, the largest placed at or below it; the window's
    last step takes the least of ``a`` and values placed at ``high``,
    ``low`` and ``-s`` (or 0), each at one eigenvalue or none.  Placed
    means moved by 0-4 ulps, or 1-4 of the scan's ``R`` or ``sigma``.
    The steps between interpolate,
    and one eigenvalue of each rises or falls by up to ``sigma``:
    decreasing only to within a few ``tau``.  The anchor's eigenvectors
    may drift from orthonormal by up to 1e-6.  ``tol_eig`` and
    ``tol_psd`` include 0 and 1e300."""
    dim = draw(st.sampled_from([1, 2, 8, 32]))
    is_complex = draw(st.booleans())
    tol_eig = draw(st.sampled_from([DEFAULT.eig, DEFAULT.eig, 1e-6, 0.0]))
    tol_psd = draw(st.sampled_from([None, None, None, 1e-13, 0.0, 1e300]))
    delta = draw(st.sampled_from([0.1, 0.5]))
    slack = DEFAULT.psd(dim) if tol_psd is None else tol_psd
    low, high = gaps._window(delta, tol_eig)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    units = {"ulp": 0.0}
    if slack < 1e100:
        units["reach"] = 4 * dim * dim * UNIT_ROUNDOFF * math.sqrt(dim) * (
            1 + slack
        )
        units["sigma"] = 16 * dim * UNIT_ROUNDOFF * (1 + slack)

    def placed(edge, lowest=-4, highest=4):
        unit = draw(st.sampled_from(sorted(units)))
        j = draw(st.integers(lowest, highest))
        return edge + j * (np.spacing(edge) if unit == "ulp" else units[unit])

    # the anchor's own eigenvalues avoid the window, as the scan's do
    r = draw(st.integers(0, dim))
    a = np.concatenate((rng.uniform(0.0, low, dim - r), np.ones(r)))
    if dim > r and draw(st.booleans()):
        a[dim - r - 1] = placed(low, highest=-1)
    if r and draw(st.booleans()):
        a[dim - r] = placed(high, lowest=1)
    a.sort()
    b = a.copy()
    if r and draw(st.booleans()):
        b[dim - r] = min(a[dim - r], placed(high))
    if dim > r and draw(st.booleans()):
        b[dim - r - 1] = min(a[dim - r - 1], placed(low))
    if dim > r + 1 and draw(st.booleans()):
        b[0] = min(a[0], placed(draw(st.sampled_from([-slack, 0.0]))))
    frame = haar_frame(rng, dim, is_complex)
    length = draw(st.integers(1, 6))
    values = []
    for m in range(1, length + 1):
        v = b + (a - b) * (length - m) / length
        if m < length and "sigma" in units:
            v[draw(st.integers(0, dim - 1))] += draw(
                st.integers(-4, 4)
            ) * units["sigma"] / 4
        values.append(v)
    anchor = Operator((frame * a) @ frame.conj().T)
    steps = [Operator((frame * v) @ frame.conj().T).entries for v in values]
    decomp = spectral_decompose(anchor)
    drift = draw(st.sampled_from([0.0, 1e-9, 1e-6]))
    vectors = decomp.eigenvectors * (1.0 + drift * rng.uniform(-1, 1, dim))
    decomp = SpectralDecomposition(decomp.eigenvalues, vectors)
    return anchor, decomp, steps, delta, tol_eig, tol_psd


def window_closes(anchor, before, steps):
    """The scan's certificate for one window: one stacked order proof
    against the step before and :func:`gaps._window_closes`."""
    d = np.stack([
        upper - lower for upper, lower in zip([before] + steps[:-1], steps)
    ])
    bound = _order_bound(d, anchor.sigma, solved=False)
    if bound is None:
        return False
    taus = [-bound] * len(steps)
    rise = _rounded_up(math.fsum(taus))
    drop = _rounded_up(math.fsum(taus[1:]))
    return gaps._window_closes(anchor, rise, drop, steps[-1])


@settings(max_examples=max(100, settings.default.max_examples))
@given(case=edge_windows())
def test_window_certificate_implies_the_eigvalsh_rule(case):
    anchor_op, decomp, steps, delta, tol_eig, tol_psd = case
    dim = anchor_op.dim
    slack = DEFAULT.psd(dim) if tol_psd is None else tol_psd
    low, high = gaps._window(delta, tol_eig)
    tols = {"tol_eig": tol_eig, "tol_psd": tol_psd}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning at 1e300
        if gaps._violating_eigenvalue(decomp.eigenvalues, delta, tol_eig):
            anchor = None  # not an anchor: the scan decomposes no such step
        else:
            anchor = gaps._anchor_of(
                decomp, anchor_op.entries, low, high, slack
            )
        # no room at the eigenvalues 1 and 0, or an overflowing bound
        if tol_eig == 0.0 or tol_psd in (0.0, 1e300):
            assert anchor is None
        closed = anchor is not None and window_closes(
            anchor, anchor_op.entries, steps
        )
        # the search on the chain T_a, the window's steps agrees with the
        # per-step rule whatever the windows prove
        chain = [anchor_op] + [Operator(entries) for entries in steps]

        def built():
            return ContractionChain(
                dim, "window", len(chain), lambda n: chain[n - 1]
            )

        outcome = search_outcome(
            certificate_search, built(), delta_grid=(delta,), **tols
        )
    assert outcome == search_outcome(
        per_step_search, built(), delta_grid=(delta,), **tols
    )
    if not closed:
        return
    for entries in steps:
        assert eigvalsh_gap_rule(Operator(entries), delta, **tols) is True
        if dim <= 2:
            assert exact_gap_rule_holds(entries, low, high, slack)


def scalar_window(anchor_value, values, tol_eig=DEFAULT.eig, vectors=None):
    """:func:`window_closes` on 1 x 1 steps at delta 0.5, with the
    anchor's eigenvector given or exactly 1."""
    anchor_op = Operator(np.array([[anchor_value]]))
    decomp = SpectralDecomposition(
        np.array([anchor_value]),
        np.eye(1) if vectors is None else vectors,
    )
    low, high = gaps._window(0.5, tol_eig)
    anchor = gaps._anchor_of(decomp, anchor_op.entries, low, high,
                             DEFAULT.psd(1))
    steps = [np.array([[v]]) for v in values]
    return window_closes(anchor, anchor_op.entries, steps)


def test_window_certificate_counts_every_order_bound():
    # 1 x 1 steps that rise by 7 ulps each, which each order bound
    # (sigma = 16 u and more) admits.  Below the window, 6 such rises
    # carry the anchor's eigenvalue, 40 ulps under low, into it, which
    # the rise summed from the anchor sees; above it, the first of 6
    # steps ending 20 ulps over high lies inside, which the drop summed
    # to the window's last step sees.  One step stays outside and closes
    u = UNIT_ROUNDOFF
    low, high = gaps._window(0.5, DEFAULT.eig)
    for count, closes in ((6, False), (1, True)):
        start = low - 40 * u
        values = [start + 7 * u * m for m in range(1, count + 1)]
        assert (values[-1] > low) is not closes
        assert scalar_window(start, values) is closes
        end = high + 20 * u + (30 * u if closes else 0.0)
        values = [end - 7 * u * (count - m) for m in range(1, count + 1)]
        assert (values[0] < high) is not closes
        assert scalar_window(1.0, values) is closes


def test_window_certificate_counts_the_basis_drift():
    # at tol_eig 1e-4, the anchor's fixed eigenvector stretched by 1e-6
    # stretches the compression of a last step 1e-7 below high by 2e-6,
    # to above it; the basis term e |nu| takes it back.  A last step 9e-5
    # above high closes with the same basis
    high = gaps._window(0.5, 1e-4)[1]
    stretched = np.array([[1.0 + 1e-6]])
    assert not scalar_window(1.0, [high - 1e-7], 1e-4, stretched)
    assert scalar_window(1.0, [high + 9e-5], 1e-4, stretched)


# ---------------------------------------------------------------------------
# Strict descent lemma checker


def test_rank_strict_descent_check_oracles():
    assert rank_strict_descent_check(
        diagonal([1.0, 0.8]), diagonal([0.95, 0.8]), 0.1
    )
    assert rank_strict_descent_check(identity(2), diagonal([1.0, 0.95]), 0.1)


def test_rank_strict_descent_check_preconditions():
    with pytest.raises(PreconditionError, match="not ordered"):
        rank_strict_descent_check(
            diagonal([0.5, 0.5]), diagonal([0.9, 0.9]), 0.1
        )
    with pytest.raises(PreconditionError, match="no spectral gap"):
        rank_strict_descent_check(
            diagonal([1.0, 0.95]), diagonal([1.0, 0.94]), 0.1
        )
    with pytest.raises(PreconditionError, match="descent lemma"):
        rank_strict_descent_check(identity(2), diagonal([1.0, 0.5]), 0.1)
    with pytest.raises(PreconditionError, match="contraction"):
        rank_strict_descent_check(diagonal([1.5, 0.5]), diagonal([1.0, 0.5]), 0.1)


def test_rank_strict_descent_check_one_eigh_per_operator(eigensolve_counts):
    assert rank_strict_descent_check(
        diagonal([1.0, 1.0, 0.8]), diagonal([1.0, 0.95, 0.8]), 0.1
    )
    # positivity, gap test and rank from one eigh per operator, plus the
    # one eigvalsh of the Loewner comparison
    assert eigensolve_counts == {
        "eigh": 2, "eigvalsh": 1, "cholesky": 0, "qr": 0, "svd": 0,
    }

    # each failing input also fails every later precondition, so the
    # message shows which check runs first; delta comes before any solve
    upper, lower = diagonal([1.5, 0.95]), diagonal([-0.5, 1.0])
    eigensolve_counts.reset()
    with pytest.raises(
        PreconditionError, match=r"^delta must lie in \(0, 1\), got 1\.5$"
    ):
        rank_strict_descent_check(upper, lower, 1.5)
    assert eigensolve_counts == {
        "eigh": 0, "eigvalsh": 0, "cholesky": 0, "qr": 0, "svd": 0,
    }
    cases = [
        (upper, lower,
         r"^upper operand is not a positive contraction: "
         r"offending eigenvalue 1\.5$"),
        (diagonal([1.0, 0.95]), lower,
         r"^lower operand is not a positive contraction: "
         r"offending eigenvalue -0\.5$"),
        (diagonal([1.0, 0.95]), diagonal([0.5, 1.0]),
         r"^operands are not ordered: min eig of upper - lower "
         r"-0\.050000000000000044$"),
        (diagonal([1.0, 0.95]), diagonal([1.0, 0.5]),
         r"^upper operator has no spectral gap at delta 0\.1$"),
    ]
    for upper, lower, message in cases:
        with pytest.raises(PreconditionError, match=message):
            rank_strict_descent_check(upper, lower, 0.1)


def test_gap_run_diagonalizes_first_step_once(eigensolve_counts):
    chain = gap_engineered_chain(8, 0.1, 2, 5, 60)
    eigensolve_counts.reset()
    cert = certificate_search(chain)
    assert isinstance(cert, GapCertificate)
    report = rate_bound_check(chain, cert)
    assert report.n0 == 1
    # the search's grid and rank at T_1, the n0 scan and T_n0's
    # projection share one eigh; the other is the limit's.  T_2 .. T_60
    # are two windows, of 32 and 27 steps: one stacked Cholesky call
    # proves the order of each, and at its last step one factorization
    # bounds the least eigenvalue and one eigvalsh of the 2 x 2
    # compression on T_1's fixed space the top two, so no step gets a gap
    # test of its own
    assert eigensolve_counts == {
        "eigh": 2, "eigvalsh": 2, "cholesky": 59 + 2, "qr": 0, "svd": 0,
    }
    assert eigensolve_counts.calls == {
        "eigh": 2, "eigvalsh": 2, "cholesky": 2 + 2, "qr": 0, "svd": 0,
    }


@pytest.mark.parametrize(
    "name, violations, counts, calls",
    [
        # one eigh to split the carried probe against the analytic
        # limit, one at T_1 and one at each violating step.  T_2 ..
        # T_385 are read in 12 windows of 32 steps, each of whose order
        # one stacked Cholesky call proves; each window test factors its
        # last step and solves one compression, and 6 windows close.  The
        # steps of the other 6 get one gap test, one eigvalsh, each up to
        # the failure at step 360: 160 pass and 7 violate
        (
            "near_one", [77, 102, 138, 202, 265, 279, 360],
            {"eigh": 9, "eigvalsh": 12 + 167, "cholesky": 384 + 12},
            {"eigh": 9, "eigvalsh": 179, "cholesky": 12 + 12},
        ),
        # the limit's eigh and T_1's.  The first window, T_2 .. T_33,
        # takes one stacked Cholesky call on its 32 order differences and
        # one factorization and one compression for its window test; it
        # does not close (a fixed eigenvalue falls below the gap window
        # at step 2 with no violation), so each of the 199 steps after
        # T_1 gets one gap test, one eigvalsh, and none violates
        (
            "conjugated_mixed", [],
            {"eigh": 2, "eigvalsh": 199 + 1, "cholesky": 32 + 1},
            {"eigh": 2, "eigvalsh": 200, "cholesky": 2},
        ),
    ],
    ids=["near_one", "conjugated_mixed"],
)
def test_gap_search_decomposes_first_and_violating_steps_once(
    name, violations, counts, calls, eigensolve_counts,
):
    spec = json.loads((SPECS / f"{name}.json").read_text())
    chain = build_chain(parse_chain_spec(spec))
    eigensolve_counts.reset()
    result = certificate_search(chain)
    if violations:
        assert isinstance(result, GapSearchFailure)
        assert [v.n for v in result.violations] == violations
    else:
        assert isinstance(result, GapCertificate) and result.n_start == 1
    assert eigensolve_counts == {**counts, "qr": 0, "svd": 0}
    assert eigensolve_counts.calls == {**calls, "qr": 0, "svd": 0}


def test_gap_search_edge_disagreement_records_no_violation(monkeypatch):
    # has_gap_at says every step after T_1 violates its window; the
    # decomposition of each finds none, and it decides
    chain = gap_engineered_chain(6, 0.1, 2, seed=5, horizon=40)
    reference = certificate_search(chain)
    assert isinstance(reference, GapCertificate)
    assert len(reference.rank_trajectory) == 1
    # no window closes, so every step gets its gap test
    monkeypatch.setattr(gaps, "_window_closes", lambda *a: False)
    monkeypatch.setattr(gaps, "has_gap_at", lambda *a, **k: False)
    assert certificate_search(chain) == reference


def test_rank_strict_descent_on_seeded_triples():
    for upper, lower, delta in descent_triple_corpus(count=24):
        assert rank_strict_descent_check(upper, lower, delta)


# ---------------------------------------------------------------------------
# Rate bound


def test_rate_bound_geometric_tail_closed_form():
    chain = geometric_tail_chain(60)
    cert = certificate_search(chain)
    report = rate_bound_check(
        chain, cert, np.array([0.0, 1.0]), epsilon=0.0, j_max=50
    )
    assert report.n0 == 1
    assert report.eta_prime_norm == pytest.approx(0.9, rel=1e-12)
    assert report.fixed_component_norm == 0.0
    for j in range(0, 20):
        expected = 0.9 ** ((j + 1) * (j + 2) / 2.0)
        assert report.lhs[j] == pytest.approx(expected, rel=1e-10)
        assert report.rhs[j] == pytest.approx(0.9 ** (j + 1), rel=1e-12)
    assert report.bound_holds
    assert report.worst_slack >= 0.0
    assert report.tol_rate == DEFAULT.rate
    # true decay accelerates, so the fit must be at least as steep as the
    # certified envelope
    assert report.fitted_slope is not None
    assert report.fitted_slope <= math.log(0.9)


def test_rate_bound_fixed_probe_degenerates_cleanly():
    chain = geometric_tail_chain(30)
    cert = certificate_search(chain)
    report = rate_bound_check(chain, cert, np.array([1.0, 0.0]))
    assert report.n0 == 1
    assert np.all(report.lhs <= 1e-12)  # no orthogonal component at all
    assert report.fixed_component_norm == pytest.approx(1.0)
    assert report.bound_holds
    assert report.fitted_slope is None


def test_rate_bound_default_n0_and_validation():
    chain = gap_engineered_chain(6, 0.1, 2, seed=5, horizon=80)
    cert = certificate_search(chain)
    assert isinstance(cert, GapCertificate)
    rng = np.random.default_rng(0)
    probe = rng.standard_normal(6)
    report = rate_bound_check(chain, cert, probe)
    assert report.n0 >= cert.N
    assert report.bound_holds
    with pytest.raises(PreconditionError, match="epsilon"):
        rate_bound_check(chain, cert, probe, epsilon=-1.0)
    with pytest.raises(
        PreconditionError, match=r"^epsilon must be >= 0, got nan$"
    ):
        rate_bound_check(chain, cert, probe, epsilon=math.nan)
    with pytest.raises(PreconditionError, match=r"^j_max must be >= 0, got -1$"):
        rate_bound_check(chain, cert, probe, j_max=-1)
    with pytest.raises(PreconditionError, match="zero probe"):
        rate_bound_check(chain, cert, np.zeros(6))
    with pytest.raises(PreconditionError, match="dimension"):
        rate_bound_check(chain, cert, np.ones(4))


def test_rate_bound_refuses_bad_arguments_before_any_solve(eigensolve_counts):
    certified = GapCertificate(0.1, 1, (), "empirical", 40)
    chain = random_schur_chain(4, 1, 40, fixed_rank=1)
    eigensolve_counts.reset()
    with pytest.raises(
        PreconditionError, match=r"^probes live in dimension 3, chain in 4$"
    ):
        rate_bound_check(chain, certified, np.ones(3))
    assert eigensolve_counts == {
        "eigh": 0, "eigvalsh": 0, "cholesky": 0, "qr": 0, "svd": 0,
    }
    chain = gap_engineered_chain(6, 0.1, 2, seed=5, horizon=80)
    cert = certificate_search(chain)
    eigensolve_counts.reset()
    # an inf entry is bad input, refused before the n0 scan
    with pytest.raises(PreconditionError, match=r"^non-finite probe vector$"):
        rate_bound_check(chain, cert, np.array([1.0, np.inf, 0, 0, 0, 0]))
    assert eigensolve_counts == {
        "eigh": 0, "eigvalsh": 0, "cholesky": 0, "qr": 0, "svd": 0,
    }


def test_rate_bound_default_probe_is_seeded_and_orthogonal():
    chain = gap_engineered_chain(6, 0.1, 2, seed=5, horizon=80)
    cert = certificate_search(chain)
    proj = fixed_point_projection(limit_operator(chain).operator)
    # reference probe: stream 17 of the chain's seed, off the fixed space
    draw = stream_rng(5, 17).standard_normal(6)
    draw = draw - proj.matrix @ draw
    probe = draw / np.linalg.norm(draw)
    assert np.linalg.norm(probe) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(proj.matrix @ probe) < 1e-12
    built = rate_bound_check(chain, cert)
    given_probe = rate_bound_check(chain, cert, probe)
    assert built.n0 == given_probe.n0
    assert np.array_equal(built.lhs, given_probe.lhs)
    assert np.array_equal(built.rhs, given_probe.rhs)
    assert built.fixed_component_norm < 1e-12
    assert built.bound_holds


def test_rate_bound_stops_at_empirical_certificate_horizon():
    chain = geometric_tail_chain(60)
    cert = certificate_search(chain, horizon=20)
    assert cert.scope == "empirical" and cert.horizon == 20
    probe = np.array([0.0, 1.0])
    report = rate_bound_check(chain, cert, probe, epsilon=0.0)
    assert report.n0 == 1
    assert report.n0 + int(report.j[-1]) == 20
    clipped = rate_bound_check(chain, cert, probe, epsilon=0.0, j_max=50)
    assert int(clipped.j[-1]) == 19
    # an analytic certificate stops at the searched horizon too: the
    # steps past it were never checked
    engineered = gap_engineered_chain(6, 0.1, 2, seed=5, horizon=80)
    analytic = certificate_search(engineered, horizon=20)
    assert analytic.scope == "analytic"
    probe = np.random.default_rng(0).standard_normal(6)
    report = rate_bound_check(engineered, analytic, probe)
    assert report.n0 == 1
    assert int(report.j[-1]) == 19


def record_reads(monkeypatch, chain):
    """Wrap the chain's step reads; the list gets each step read, and
    the last step of each stack that ``step_blocks`` hands out."""
    read = []
    for name in ("operator_at", "decomposition_at"):
        def recorded(n, _method=getattr(chain, name)):
            read.append(n)
            return _method(n)

        monkeypatch.setattr(chain, name, recorded)

    def blocks(horizon=None, _method=chain.step_blocks):
        done = 0
        for stack in _method(horizon):
            done += len(stack)
            read.append(done)
            yield stack

    monkeypatch.setattr(chain, "step_blocks", blocks)
    return read


def test_rate_bound_reads_no_step_past_the_searched_horizon(monkeypatch):
    analytic = gap_engineered_chain(6, 0.1, 2, seed=5, horizon=80)
    # an empirical limit, which is the run's last step
    empirical = random_schur_chain(6, seed=1, horizon=80, fixed_rank=2)
    for chain in (analytic, empirical):
        cert = certificate_search(chain, horizon=20)
        assert isinstance(cert, GapCertificate) and cert.horizon == 20
        read = record_reads(monkeypatch, chain)
        report = rate_bound_check(chain, cert)
        assert report.n0 + int(report.j[-1]) == 20
        if chain is analytic:
            # the n0 scan starts at the certificate's step, and the search
            # carried the lhs column, so only steps 1 .. n0 are read again
            assert read[0] == cert.N
            assert max(read) == report.n0 == 1
        else:
            # an empirical limit is the search's last step: the table
            # makes its own pass, up to that step
            assert cert._carried is None
            assert max(read) == 20
        # a product run to step 9 reads no step past it either
        for fixed_spaces in (False, True):
            read.clear()
            trace = iterate_products(
                chain, horizon=9, fixed_spaces=fixed_spaces
            )
            assert trace.horizon == 9
            assert max(read) == 9
        # a certificate past the chain's horizon is refused before any read
        read.clear()
        with pytest.raises(
            PreconditionError, match=r"^horizon 81 outside materialized range"
        ):
            rate_bound_check(chain, GapCertificate(0.1, 1, (), "analytic", 81))
        assert read == []


def assert_same_report(got, want):
    for name in ("n0", "eta_prime_norm", "fixed_component_norm",
                 "fitted_slope"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("j", "lhs", "rhs"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_rate_bound_makes_its_own_pass_unless_the_probe_was_carried(
    monkeypatch,
):
    # the table's own pass, from a certificate that carries nothing, is
    # what every report must equal bit for bit
    chain = gap_engineered_chain(6, 0.1, 2, seed=5, horizon=80)
    cert = certificate_search(chain, horizon=40)
    assert cert._carried is not None
    bare = dataclasses.replace(cert, _carried=None)
    assert bare == cert
    probe = np.random.default_rng(0).standard_normal(6)
    shifted = cert._carried.probe.copy()
    shifted[0] = np.nextafter(shifted[0], np.inf)
    cases = [
        # the carried probe: steps 1 .. n0 only
        (cert, None, 1),
        # a given probe, a search at another tolerance, and a carried
        # probe one bit away from the table's own: the table's own pass
        (cert, probe, 40),
        (certificate_search(chain, horizon=40, tol_eig=1e-8), None, 40),
        (
            dataclasses.replace(
                cert, _carried=cert._carried._replace(probe=shifted)
            ),
            None,
            40,
        ),
    ]
    for certificate, given, reach in cases:
        want = rate_bound_check(chain, bare, given)
        read = record_reads(monkeypatch, chain)
        assert_same_report(rate_bound_check(chain, certificate, given), want)
        assert max(read) == reach
        monkeypatch.undo()


def test_certificate_search_reads_each_step_once(monkeypatch):
    # the carried probe's matvec reads the step the gap test reads, and a
    # decomposition reads no step through operator_at; staged_peel_chain
    # violates its gap three times, and both chains give their limit, so
    # both carry a probe
    staged = staged_peel_chain()
    for chain in (staged, gap_engineered_chain(6, 0.1, 2, 5, 80)):
        reads = []

        def counted(n, _method=chain.operator_at):
            reads.append(n)
            return _method(n)

        monkeypatch.setattr(chain, "operator_at", counted)
        cert = certificate_search(chain)
        assert isinstance(cert, GapCertificate)
        assert cert._carried is not None
        assert len(cert.rank_trajectory) == (4 if chain is staged else 1)
        assert reads == list(range(1, chain.horizon + 1))


def test_rate_bound_on_a_short_search_builds_only_its_steps(eigensolve_counts):
    # the empirical limit of a search to 20 is T_20: the table's two eigh
    # are the limit's projection and T_n0's, and no step past 20 is built.
    # When the limit was the chain's T_160 the table made 189.
    spec = json.loads((SPECS / "schur_random.json").read_text())
    chain = build_chain(parse_chain_spec(spec))
    cert = certificate_search(chain, horizon=20)
    assert isinstance(cert, GapCertificate) and cert.scope == "empirical"
    eigensolve_counts.reset()
    report = rate_bound_check(chain, cert)
    assert report.n0 + int(report.j[-1]) == 20
    assert eigensolve_counts["eigh"] == 2
    assert chain._built == 20


def test_rate_bound_scans_n0_from_the_certificate_step(eigensolve_counts):
    # on a fine grid near_one is certified only from step 360; the n0
    # scan starts there, on the search's last eigh (the handover), and the
    # limit's eigh was the search's, which carried the probe, so the table
    # makes none.  A scan from step 1 made 361.
    spec = json.loads((SPECS / "near_one.json").read_text())
    chain = build_chain(parse_chain_spec(spec))
    cert = certificate_search(chain, delta_grid=FINE_GRID)
    assert isinstance(cert, GapCertificate)
    assert (cert.delta, cert.N, cert.horizon) == (0.0001, 360, 400)
    eigensolve_counts.reset()
    report = rate_bound_check(chain, cert)
    assert report.n0 == 360
    assert len(report.j) == 41
    assert eigensolve_counts == {
        "eigh": 0, "eigvalsh": 0, "cholesky": 0, "qr": 0, "svd": 0,
    }


@pytest.mark.parametrize(
    "name, grid, n0",
    [("near_one.json", FINE_GRID, 360),
     ("conjugated_mixed.json", DELTA_GRID, 20)],
)
def test_rate_table_on_an_evicting_chain_reads_only_to_n0(
    monkeypatch, name, grid, n0
):
    # both chains give their limit but guarantee no gap; the search
    # carries the probe, so a curve-built chain, which holds one block,
    # computes only steps 1 .. n0 for the table, where the table's own
    # pass read every step again (400 and 200)
    spec = parse_chain_spec(json.loads((SPECS / name).read_text()))
    chain = build_chain(spec)
    reads = []

    def counted(n, _method=chain.operator_at):
        reads.append(n)
        return _method(n)

    monkeypatch.setattr(chain, "operator_at", counted)
    cert = certificate_search(chain, delta_grid=grid)
    assert isinstance(cert, GapCertificate) and cert._carried is not None
    assert reads == list(range(1, chain.horizon + 1))
    reads.clear()
    report = rate_bound_check(chain, cert)
    assert report.n0 == n0
    assert reads == list(range(1, n0 + 1))
    assert chain._blocks == []
    own = rate_bound_check(chain, dataclasses.replace(cert, _carried=None))
    assert_same_report(report, own)


def test_write_rate_csv_layout(tmp_path):
    chain = geometric_tail_chain(30)
    cert = certificate_search(chain)
    report = rate_bound_check(
        chain, cert, np.array([0.0, 1.0]), epsilon=0.0, j_max=10
    )
    assert report.n0 == 1
    path = tmp_path / "rate.csv"
    write_rate_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RATE_CSV_HEADER)
    assert len(rows) == 12  # header + j = 0..10
    assert float(rows[1][1]) == report.lhs[0]
    assert float(rows[1][3]) == pytest.approx(report.rhs[0] - report.lhs[0])
