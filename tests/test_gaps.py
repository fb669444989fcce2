import csv
import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
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
from contraction_lab.corpus import descent_triple_corpus
from contraction_lab.gaps import RATE_CSV_HEADER, write_rate_csv


SPECS = Path(__file__).resolve().parents[1] / "specs"


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
    # filter's eigvalsh error bound rho from each edge the rule reads;
    # the rest sit at 1 and below the window.  The Cholesky filter either
    # certifies a step the rule passes, or declines and the rule decides
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
                solved = dict(eigensolve_counts)
                assert verdict == gap_outcome(
                    eigvalsh_gap_rule, op, delta, **tols
                )
                assert solved["eigh"] == 0
                if solved["eigvalsh"] == 0:  # certified
                    assert verdict is True and solved["cholesky"] == 2
                else:
                    assert solved["eigvalsh"] == 1
                    assert solved["cholesky"] in (0, 2)
                # a fixed or null eigenvalue, a few ulps off, is certified
                # at the default tolerances
                if (
                    tol_eig == DEFAULT.eig and tol_psd is None
                    and edge in (0.0, 1.0) and abs(offset) < rho
                ):
                    assert solved["eigvalsh"] == 0
                # the filter declines where a shift leaves no room at the
                # eigenvalue 1: at tol_eig 0, at tol_psd 0, and at 1e-14
                # from dim 16 up (below, the rounding bound is under 1e-14)
                if tol_eig == 0.0 or tol_psd == 0.0 or (
                    tol_psd == 1e-14 and dim >= 16
                ):
                    assert solved == {
                        "eigh": 0, "eigvalsh": 1, "cholesky": 0, "qr": 0,
                        "svd": 0,
                    }


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
    # projection share one eigh; the other is the limit's.  The scan's
    # gap tests over T_2 .. T_60 are each certified by one stacked
    # Cholesky call on two matrices, so no eigvalsh runs
    assert eigensolve_counts == {
        "eigh": 2, "eigvalsh": 0, "cholesky": 118, "qr": 0, "svd": 0,
    }
    assert eigensolve_counts.calls == {
        "eigh": 2, "eigvalsh": 0, "cholesky": 59, "qr": 0, "svd": 0,
    }


def test_gap_search_decomposes_first_and_violating_steps_once(
    eigensolve_counts,
):
    spec = json.loads((SPECS / "near_one.json").read_text())
    chain = build_chain(parse_chain_spec(spec))
    eigensolve_counts.reset()
    result = certificate_search(chain)
    assert isinstance(result, GapSearchFailure)
    assert len(result.violations) >= 2
    # one eigh to split the carried probe against the analytic limit,
    # one at T_1 and one at each violating step.  Every step the scan
    # reaches after T_1 gets one stacked Cholesky call on two matrices;
    # it certifies every step but the violating ones, each of which one
    # eigvalsh decides
    scanned = result.violations[-1].n - 1
    assert result.violations[0].n > 1
    assert eigensolve_counts == {
        "eigh": 2 + len(result.violations),
        "eigvalsh": len(result.violations),
        "cholesky": 2 * scanned,
        "qr": 0,
        "svd": 0,
    }
    assert eigensolve_counts.calls["cholesky"] == scanned


def test_gap_search_edge_disagreement_records_no_violation(monkeypatch):
    # has_gap_at says every step after T_1 violates its window; the
    # decomposition of each finds none, and it decides
    chain = gap_engineered_chain(6, 0.1, 2, seed=5, horizon=40)
    reference = certificate_search(chain)
    assert isinstance(reference, GapCertificate)
    assert len(reference.rank_trajectory) == 1
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


FINE_GRID = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001, 0.0001)


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
