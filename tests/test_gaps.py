import csv
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contraction_lab import (
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
    limit_operator,
    near_one_accumulating_chain,
    peel,
    rank_strict_descent_check,
    rate_bound_check,
)
from contraction_lab.chains import ContractionChain, custom_curve, stream_rng
from contraction_lab.corpus import descent_triple_corpus
from contraction_lab.gaps import RATE_CSV_HEADER, write_rate_csv


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
    with pytest.raises(PreconditionError, match="outside"):
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
    assert eigensolve_counts == {"eigh": 2, "eigvalsh": 1}

    # each failing input also fails every later precondition, so the
    # message shows which check runs first
    cases = [
        (diagonal([1.5, 0.5]), diagonal([1.2, 0.95]), 1.5,
         r"^upper operator is not a positive contraction "
         r"\(witness eigenvalue 1\.5\)$"),
        (diagonal([1.0, 0.5]), diagonal([-0.5, 0.95]), 1.5,
         r"^lower operator is not a positive contraction "
         r"\(witness eigenvalue -0\.5\)$"),
        (diagonal([0.5, 0.5]), diagonal([0.95, 0.95]), 1.5,
         r"^operators are not ordered: lower <= upper fails$"),
        (diagonal([1.0, 0.95]), diagonal([1.0, 0.5]), 1.5,
         r"^delta must lie in \(0, 1\), got 1\.5$"),
        (diagonal([1.0, 0.95]), diagonal([1.0, 0.5]), 0.1,
         r"^upper operator has no spectral gap at delta 0\.1$"),
    ]
    for upper, lower, delta, message in cases:
        with pytest.raises(PreconditionError, match=message):
            rank_strict_descent_check(upper, lower, delta)


def test_rank_strict_descent_on_seeded_triples():
    for upper, lower, delta in descent_triple_corpus(count=24):
        assert rank_strict_descent_check(upper, lower, delta)


# ---------------------------------------------------------------------------
# Rate bound


def test_rate_bound_geometric_tail_closed_form():
    chain = geometric_tail_chain(60)
    cert = certificate_search(chain)
    report = rate_bound_check(
        chain, cert, np.array([0.0, 1.0]), epsilon=0.0, n0=1, j_max=50
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
    # true decay accelerates, so the fit must be at least as steep as the
    # certified envelope
    assert report.fitted_slope is not None
    assert report.fitted_slope <= math.log(0.9)


def test_rate_bound_fixed_probe_degenerates_cleanly():
    chain = geometric_tail_chain(30)
    cert = certificate_search(chain)
    report = rate_bound_check(chain, cert, np.array([1.0, 0.0]), n0=1)
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
    with pytest.raises(PreconditionError, match="zero probe"):
        rate_bound_check(chain, cert, np.zeros(6))
    with pytest.raises(PreconditionError, match="dimension"):
        rate_bound_check(chain, cert, np.ones(4))
    with pytest.raises(PreconditionError, match="n0"):
        rate_bound_check(chain, cert, probe, n0=0)


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
    with pytest.raises(PreconditionError, match="beyond"):
        rate_bound_check(chain, cert, probe, n0=25)
    # an analytic certificate is not bounded by the search horizon
    engineered = gap_engineered_chain(6, 0.1, 2, seed=5, horizon=80)
    analytic = certificate_search(engineered, horizon=20)
    assert analytic.scope == "analytic"
    probe = np.random.default_rng(0).standard_normal(6)
    report = rate_bound_check(engineered, analytic, probe, n0=1)
    assert int(report.j[-1]) == 79


def test_write_rate_csv_layout(tmp_path):
    chain = geometric_tail_chain(30)
    cert = certificate_search(chain)
    report = rate_bound_check(
        chain, cert, np.array([0.0, 1.0]), epsilon=0.0, n0=1, j_max=10
    )
    path = tmp_path / "rate.csv"
    write_rate_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RATE_CSV_HEADER)
    assert len(rows) == 12  # header + j = 0..10
    assert float(rows[1][1]) == report.lhs[0]
    assert float(rows[1][3]) == pytest.approx(report.rhs[0] - report.lhs[0])
