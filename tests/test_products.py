import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contraction_lab import (
    DEFAULT,
    ContractionChain,
    InvariantError,
    Operator,
    PreconditionError,
    conjugated_diagonal_chain,
    consecutive_difference_report,
    const,
    diagonal,
    diagonal_chain,
    fixed_point_projection,
    geometric,
    harmonic_to,
    is_decreasing,
    iterate_products,
    limit_operator,
    orbit_epsilon_net,
    random_schur_chain,
    spectral_decompose,
    trace_summary,
    write_trace_csv,
)
from contraction_lab import chains, products
from contraction_lab.chains import stream_rng
from contraction_lab.products import TRACE_CSV_HEADER, default_probes
from orbit_oracle import dense_orbit, scalar_greedy_net


def telescoping_chain(horizon=50):
    return diagonal_chain([const(1.0), harmonic_to(0.5)], horizon=horizon)


def drift_chain(horizon=40):
    # increasing second coordinate: still contractions, but no analytic
    # limit and a Cauchy gap far too large to trust
    def factory(n):
        return Operator(np.diag([1.0, 0.5 + 0.005 * n]))

    return ContractionChain(2, "drift", horizon, factory)


# ---------------------------------------------------------------------------
# Telescoping oracle: T_n = diag(1, (n+1)/(2n)) gives S_n e2 = (n+1)/2^n e2


def test_telescoping_product_closed_form():
    horizon = 50
    trace = iterate_products(
        telescoping_chain(horizon),
        probes=np.eye(2),
        probe_ids=["e1", "e2"],
    )
    for n in range(1, horizon + 1):
        expected = (n + 1) / 2.0**n
        assert trace.sot_err[n - 1, 1] == pytest.approx(expected, rel=1e-12)
        assert trace.opnorm_err[n - 1] == pytest.approx(expected, rel=1e-12)
        assert trace.b[n - 1, 1] == pytest.approx(expected**2, rel=1e-12)
        assert trace.sot_err[n - 1, 0] == 0.0  # e1 is fixed exactly
    for n in range(1, horizon):
        expected_a = ((n + 1) / 2.0**n) * ((n + 2) / 2.0 ** (n + 1))
        assert trace.a[n - 1, 1] == pytest.approx(expected_a, rel=1e-12)
    # diagonal real products: adjoint orbit coincides with the forward one
    assert np.array_equal(trace.adj_err, trace.sot_err)
    assert trace.limit.provenance == "analytic"
    assert trace.limit.trustworthy


def test_identity_chain_trace_is_exactly_zero():
    chain = diagonal_chain([const(1.0), const(1.0)], horizon=10)
    trace = iterate_products(chain, probes=np.eye(2), probe_ids=["e1", "e2"])
    assert np.all(trace.sot_err == 0.0)
    assert np.all(trace.adj_err == 0.0)
    assert np.all(trace.opnorm_err == 0.0)
    assert np.all(trace.product_norm == 1.0)
    summary = trace_summary(trace)
    assert summary["status"] == "pass"
    assert summary["final"]["sot_err_max"] == 0.0


# ---------------------------------------------------------------------------
# Preconditions and invariants


def test_iterate_products_preconditions():
    chain = telescoping_chain(10)
    for horizon in (11, 0):
        with pytest.raises(
            PreconditionError,
            match=rf"^horizon {horizon} outside materialized range 1\.\.10$",
        ):
            iterate_products(chain, horizon=horizon)
    with pytest.raises(PreconditionError, match="dimension"):
        iterate_products(chain, probes=np.eye(3))
    for probes in (np.float64(1.0), np.ones((2, 2, 1))):
        with pytest.raises(PreconditionError, match=r"^probes must be a "):
            iterate_products(chain, probes=probes)
    with pytest.raises(PreconditionError, match="zero probe"):
        iterate_products(chain, probes=np.zeros((2, 1)))
    with pytest.raises(PreconditionError, match="probe_ids"):
        iterate_products(chain, probes=np.eye(2), probe_ids=["only_one"])


def test_bad_input_is_refused_before_any_solve(eigensolve_counts):
    chain = random_schur_chain(4, 1, 40)
    eigensolve_counts.reset()
    with pytest.raises(
        PreconditionError, match=r"^probes live in dimension 3, chain in 4$"
    ):
        iterate_products(chain, probes=np.eye(3), fixed_spaces=True)
    with pytest.raises(PreconditionError, match="outside materialized range"):
        iterate_products(chain, horizon=41, fixed_spaces=True)
    # a non-finite probe is bad input, not a broken theorem
    with pytest.raises(PreconditionError, match=r"^non-finite probe vector$"):
        iterate_products(telescoping_chain(20), probes=np.array([np.nan, 1.0]))
    assert eigensolve_counts == {"eigh": 0, "eigvalsh": 0}


def test_iterate_products_refuses_probe_ids_without_probes():
    chain = telescoping_chain(10)
    with pytest.raises(
        PreconditionError, match=r"^probe_ids given without probes$"
    ):
        iterate_products(chain, probe_ids=["x", "y"])
    with pytest.raises(PreconditionError, match="probe_ids length"):
        iterate_products(chain, probes=np.eye(2), probe_ids=[])


def test_iterate_products_rejects_expanding_factory():
    def factory(n):
        return Operator(np.diag([1.1, 0.5]))

    chain = ContractionChain(
        2, "broken", 3, factory, analytic_limit=diagonal([1.0, 0.5])
    )
    # ||S_n|| = 1.1^n is recorded and judged by the summary; a probe
    # that the steps stretch trips b_n's invariant too
    with pytest.raises(InvariantError, match="b_n increased"):
        iterate_products(chain, probes=np.eye(2))
    summary = trace_summary(iterate_products(chain, probes=np.eye(2)[:, 1]))
    assert summary["verdicts"]["product_norm_bounded"] is False
    assert summary["status"] == "fail"


def blocks_of(monkeypatch, steps, dim):
    """Make chains store ``steps`` steps per block in dimension ``dim``;
    the engine and the order check go a stored block at a time."""
    monkeypatch.setattr(chains, "_BLOCK_BYTES", steps * 16 * dim * dim)
    assert chains._block_steps(dim) == steps


def test_block_length_follows_dimension():
    assert [chains._block_steps(d) for d in (2, 4, 16, 64, 128)] == [
        1024, 256, 16, 1, 1,
    ]


@pytest.mark.parametrize("steps", [None, 1, 3])
def test_norm_invariant_trips_inside_a_block(monkeypatch, steps):
    # ||S_n|| first exceeds 1 at n = 5: inside the one default block, the
    # middle of the second block of 3; the probe e2 is not stretched, so
    # only the norm verdict sees it
    def factory(n):
        return Operator(np.diag([1.1 if n >= 5 else 1.0, 0.5]))

    chain = ContractionChain(
        2, "expanding_late", 8, factory, analytic_limit=diagonal([1.0, 0.5])
    )
    if steps is not None:
        blocks_of(monkeypatch, steps, 2)
    trace = iterate_products(chain, probes=np.eye(2)[:, 1])
    assert np.flatnonzero(trace.product_norm > 1.0).tolist() == [4, 5, 6, 7]
    summary = trace_summary(trace)
    assert summary["verdicts"]["product_norm_bounded"] is False
    assert summary["status"] == "fail"
    assert iterate_products(chain, probes=np.eye(2), horizon=4).horizon == 4


@pytest.mark.parametrize("steps", [None, 1, 3])
def test_b_growth_trips_inside_a_block(monkeypatch, steps):
    # T_5 stretches e2 by 1.5 but ||S_5|| stays 1: only b_n can catch it
    def factory(n):
        return Operator(np.diag([1.0, 1.5 if n == 5 else 0.5]))

    chain = ContractionChain(
        2, "stretch_once", 8, factory, analytic_limit=diagonal([1.0, 0.0])
    )
    if steps is not None:
        blocks_of(monkeypatch, steps, 2)
    with pytest.raises(InvariantError, match="b_n increased"):
        iterate_products(chain, probes=np.eye(2))
    assert iterate_products(chain, probes=np.eye(2), horizon=4).horizon == 4


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("steps", [None, 1, 3])
def test_overflowing_product_is_an_invariant_error(monkeypatch, steps):
    # S_n = diag(1, 1e200^n) is inf from n = 2 on; the engine must say so
    # itself instead of letting the spectral norm's SVD fail to converge
    chain = ContractionChain(
        2,
        "overflowing",
        6,
        lambda n: Operator(np.diag([1.0, 1e200])),
        analytic_limit=diagonal([1.0, 0.0]),
    )
    if steps is not None:
        blocks_of(monkeypatch, steps, 2)
    with pytest.raises(
        InvariantError, match=r"^non-finite values in the product S_2$"
    ):
        iterate_products(chain)


# ---------------------------------------------------------------------------
# Blocked engine against the per-step loop


def per_step_trace(chain, trace):
    """The one-step-at-a-time loop the blocked engine replaced: every
    per-step quantity from its own 2-D call."""
    mat, p_mat, h = trace.probes, trace.projection.matrix, trace.horizon
    count = mat.shape[1]
    p_probes = p_mat @ mat
    partners = np.roll(mat, -1, axis=1)
    fields = {
        name: np.empty((h, count))
        for name in ("sot_err", "adj_err", "wot_err", "b")
    }
    fields["a"] = np.empty((max(h - 1, 0), count))
    fields["consec_diff"] = np.empty((max(h - 1, 0), count))
    fields["opnorm_err"] = np.empty(h)
    fields["product_norm"] = np.empty(h)
    product = np.eye(chain.dim, dtype=p_mat.dtype)
    prev_applied = None
    for n in range(1, h + 1):
        product = chain.operator_at(n).entries @ product
        applied = product @ mat
        deviation = applied - p_probes
        fields["sot_err"][n - 1] = np.linalg.norm(deviation, axis=0)
        fields["adj_err"][n - 1] = np.linalg.norm(
            product.conj().T @ mat - p_probes, axis=0
        )
        fields["wot_err"][n - 1] = np.abs(
            np.sum(partners.conj() * deviation, axis=0)
        )
        fields["b"][n - 1] = np.real(np.sum(applied.conj() * applied, axis=0))
        if prev_applied is not None:
            fields["a"][n - 2] = np.real(
                np.sum(applied.conj() * prev_applied, axis=0)
            )
            fields["consec_diff"][n - 2] = np.linalg.norm(
                applied - prev_applied, axis=0
            )
        fields["opnorm_err"][n - 1] = np.linalg.norm(product - p_mat, 2)
        fields["product_norm"][n - 1] = np.linalg.norm(product, 2)
        prev_applied = applied
    return fields


def complex_chain(horizon, real_steps=0):
    """Hermitian contractions in a seeded complex frame, decreasing to
    the projection onto its first column; the first ``real_steps``
    operators are real diagonal instead, and the analytic limit is then
    the real one, so the product turns complex mid-run."""
    rng = stream_rng(5, 0)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    frame, _ = np.linalg.qr(z)
    limit_values = np.array([1.0, 0.0, 0.0])

    def factory(n):
        values = np.array([1.0, 0.5 + 0.4 / n, 0.8**n])
        if n <= real_steps:
            return Operator(np.diag(values))
        return Operator((frame * values) @ frame.conj().T)

    if real_steps:
        limit = diagonal(limit_values)
    else:
        limit = Operator((frame * limit_values) @ frame.conj().T)
    return ContractionChain(3, "complex_frame", horizon, factory,
                            analytic_limit=limit)


ORACLE_CHAINS = {
    "schur": lambda h: random_schur_chain(4, seed=2, horizon=h),
    "conjugated": lambda h: conjugated_diagonal_chain(
        [const(1.0), harmonic_to(0.2), geometric(0.85)], horizon=h, seed=6
    ),
    "complex": complex_chain,
    "real_then_complex": lambda h: complex_chain(h, real_steps=4),
}


@pytest.mark.parametrize("kind", sorted(ORACLE_CHAINS))
@pytest.mark.parametrize("horizon", [1, 2, 6, 7, 11])
@pytest.mark.parametrize("steps", [None, 1, 3])
def test_blocked_engine_matches_per_step_loop(
    monkeypatch, kind, horizon, steps
):
    # blocks of 3 end mid-horizon (6 is a multiple, 7 and 11 are not),
    # which carries a and consec_diff across block boundaries
    chain = ORACLE_CHAINS[kind](horizon)
    if steps is not None:
        blocks_of(monkeypatch, steps, chain.dim)
    for probes in (None, np.eye(chain.dim)[:, 1]):
        trace = iterate_products(chain, probes=probes)
        expected = per_step_trace(chain, trace)
        for name, values in expected.items():
            got = getattr(trace, name)
            assert got.dtype == values.dtype, name
            assert np.array_equal(got, values), (name, kind, horizon, steps)


# ---------------------------------------------------------------------------
# Chain ordering


def rise_and_recover_chain(rise_at=3, horizon=200):
    # T_{rise_at} rises above T_{rise_at - 1} and T_{rise_at + 2} is back
    # below T_{rise_at - 2}: a check every 4 steps misses the rise
    def factory(n):
        value = 0.9 - 0.001 * n
        if n == rise_at:
            value += 0.01
        return Operator(np.diag([1.0, value]))

    return ContractionChain(2, "rise_and_recover", horizon, factory, seed=0)


def test_is_decreasing_checks_every_step():
    assert is_decreasing(telescoping_chain(200))
    # one step, no pair: nothing witnesses the order
    single = is_decreasing(diagonal_chain([const(1.0)], horizon=1))
    assert single and single.witness is None
    chain = rise_and_recover_chain()
    second = [chain.operator_at(n).entries[1, 1] for n in range(1, 6)]
    assert second[2] > second[1] and second[4] < second[0]
    assert not is_decreasing(chain)


def test_is_decreasing_sees_a_rise_at_every_block_position(monkeypatch):
    blocks_of(monkeypatch, 3, 2)
    for rise_at in range(2, 13):
        order = is_decreasing(rise_and_recover_chain(rise_at, horizon=12))
        # T_{rise_at} exceeds T_{rise_at - 1} by 0.01 - 0.001
        assert not order and order.witness == pytest.approx(-0.009)
    assert is_decreasing(telescoping_chain(12))

    # the witness is the least margin of every pair, past the first rise
    def two_rises(n):
        return diagonal([1.0, 0.5 + {3: 0.01, 9: 0.02}.get(n, 0.0)])

    order = is_decreasing(ContractionChain(2, "two_rises", 12, two_rises))
    assert not order and order.witness == pytest.approx(-0.02)


@pytest.mark.parametrize("steps", [None, 2])
def test_is_decreasing_refuses_a_step_that_is_no_positive_contraction(
    monkeypatch, steps
):
    # step 3 has eigenvalue -0.5: inside the one default block, the first
    # step of the second block of 2; it is refused, not ordered
    if steps is not None:
        blocks_of(monkeypatch, steps, 2)
    with pytest.raises(PreconditionError) as raised:
        is_decreasing(negative_step_chain())
    assert str(raised.value) == (
        "step 3 is not a positive contraction: offending eigenvalue -0.5"
    )
    # the refusal wins over an order broken in an earlier block
    def rise_then_negative(n):
        return diagonal([1.0, {2: 0.9, 5: -0.5}.get(n, 0.5)])

    rising = ContractionChain(2, "rise_then_negative", 6, rise_then_negative)
    with pytest.raises(PreconditionError, match="step 5 is not"):
        is_decreasing(rising)
    # the slack widens the positivity check as it widens the order's
    above_one = ContractionChain(
        2, "above_one", 3, lambda n: diagonal([1.0 + 1e-8, 0.5])
    )
    with pytest.raises(PreconditionError, match="step 1 is not"):
        is_decreasing(above_one)
    assert is_decreasing(above_one, tol_psd=1e-6)


def test_is_decreasing_honours_psd_slack():
    def factory(n):
        return Operator(np.diag([1.0, 0.5 + (1e-8 if n == 2 else 0.0)]))

    chain = ContractionChain(2, "flat_with_bump", 4, factory)
    order = is_decreasing(chain)
    assert not order and order.witness == pytest.approx(-1e-8, abs=1e-15)
    assert is_decreasing(chain, tol_psd=1e-6)


# ---------------------------------------------------------------------------
# Limit provenance


def test_limit_operator_analytic_and_empirical():
    analytic = limit_operator(telescoping_chain(20))
    assert analytic.provenance == "analytic"
    assert analytic.trustworthy

    schur = limit_operator(random_schur_chain(4, seed=2, horizon=60))
    assert schur.provenance == "empirical"
    assert schur.cauchy_gap is not None and schur.cauchy_gap < 1e-8
    assert schur.trustworthy

    drifting = limit_operator(drift_chain())
    assert drifting.provenance == "empirical"
    assert not drifting.trustworthy


def test_empirical_limit_at_horizon_one_is_not_trusted():
    # T_1 has no earlier step to be compared with, so it has no Cauchy gap
    info = limit_operator(random_schur_chain(4, 2, horizon=1))
    assert info.provenance == "empirical"
    assert info.cauchy_gap is None
    assert not info.trustworthy
    info = limit_operator(random_schur_chain(4, 2, horizon=5), 1)
    assert info.cauchy_gap is None and not info.trustworthy


def test_untrusted_limit_yields_inconclusive_summary():
    trace = iterate_products(drift_chain(), probes=np.eye(2))
    summary = trace_summary(trace)
    assert summary["verdicts"]["sot_converged"] == "inconclusive"
    assert summary["status"] == "inconclusive"


def test_summary_norm_verdict_uses_engine_tolerance():
    # ||S_n|| = 1 + 1e-7: inside a 1e-6 slack, outside the default 2e-10
    def factory(n):
        return Operator(np.diag([1.0 + 1e-7 if n == 1 else 1.0, 0.5]))

    chain = ContractionChain(
        2, "slightly_expanding", 5, factory,
        analytic_limit=diagonal([1.0, 0.0]),
    )
    trace = iterate_products(chain, probes=np.eye(2), tol_psd=1e-6)
    assert trace.tol_psd == 1e-6
    assert trace.product_norm.max() == pytest.approx(1.0 + 1e-7, abs=1e-12)
    summary = trace_summary(trace)
    assert summary["verdicts"]["product_norm_bounded"] is True
    summary = trace_summary(iterate_products(chain, probes=np.eye(2)))
    assert summary["verdicts"]["product_norm_bounded"] is False
    assert summary["status"] == "fail"


def test_tiny_threshold_fails_summary():
    # after 5 steps sot_err is 0.19, far above the 1e-6 threshold
    trace = iterate_products(telescoping_chain(5), probes=np.eye(2))
    summary = trace_summary(trace)
    assert summary["threshold"] == DEFAULT.convergence
    assert summary["final"]["sot_err_max"] == pytest.approx(0.1875)
    assert summary["verdicts"]["sot_converged"] is False
    # not converged by the horizon is no theorem broken: it may only
    # need more steps
    assert summary["status"] == "inconclusive"


def test_false_theorem_verdict_fails_summary():
    chain = telescoping_chain(60)
    trace = iterate_products(chain, probes=np.eye(2), fixed_spaces=True)
    assert trace_summary(trace)["status"] == "pass"
    rising = trace.ranks.copy()
    rising[-1] = 2
    summary = trace_summary(dataclasses.replace(trace, ranks=rising))
    assert summary["verdicts"]["ranks_nonincreasing"] is False
    assert summary["verdicts"]["final_rank_dominates"] is True
    assert summary["status"] == "fail"
    below = np.zeros_like(trace.ranks)
    summary = trace_summary(dataclasses.replace(trace, ranks=below))
    assert summary["verdicts"]["ranks_nonincreasing"] is True
    assert summary["verdicts"]["final_rank_dominates"] is False
    assert summary["status"] == "fail"


# ---------------------------------------------------------------------------
# Probes


def test_default_probes_cover_both_sides():
    proj = fixed_point_projection(diagonal([1.0, 0.3, 0.2]))
    ids, mat = default_probes(3, proj, seed=0)
    assert ids[:3] == ["e1", "e2", "e3"]
    assert ids[3:] == ["rand1", "rand2", "rand3", "in_P", "perp_P"]
    assert np.allclose(np.linalg.norm(mat, axis=0), 1.0, atol=1e-12)
    in_p = mat[:, ids.index("in_P")]
    perp = mat[:, ids.index("perp_P")]
    assert np.allclose(proj.matrix @ in_p, in_p, atol=1e-12)
    assert np.allclose(proj.matrix @ perp, 0.0, atol=1e-12)


def test_default_probes_skip_empty_sides():
    rank0 = fixed_point_projection(diagonal([0.3, 0.2]))
    ids, _ = default_probes(2, rank0, seed=0)
    assert "in_P" not in ids and "perp_P" in ids
    full = fixed_point_projection(diagonal([1.0, 1.0]))
    ids, _ = default_probes(2, full, seed=0)
    assert "in_P" in ids and "perp_P" not in ids


# ---------------------------------------------------------------------------
# Scalar interleaving


def test_ab_chain_report_on_conjugated_chain():
    chain = conjugated_diagonal_chain(
        [const(1.0), harmonic_to(0.2), geometric(0.85)],
        horizon=80,
        seed=6,
    )
    trace = iterate_products(chain)
    report = consecutive_difference_report(trace)
    assert report.all_ok
    assert report.worst_a_negative <= report.tol_chain
    assert report.worst_identity_error <= report.tol_identity


def test_wot_bounded_by_sot():
    # |<partner, (S_n - P) xi>| <= ||(S_n - P) xi|| for unit partners
    chain = conjugated_diagonal_chain(
        [const(1.0), harmonic_to(0.2), geometric(0.85)],
        horizon=60,
        seed=9,
    )
    trace = iterate_products(chain)
    assert np.all(trace.wot_err <= trace.sot_err + 1e-12)


# ---------------------------------------------------------------------------
# Projection staircase


def test_projection_convergence_staircase():
    chain = telescoping_chain(10)
    trace = iterate_products(chain, fixed_spaces=True)
    assert trace.ranks.tolist() == [2] + [1] * 9
    assert trace.projection.rank == 1
    summary = trace_summary(trace)
    assert summary["rank_trajectory"] == [2] + [1] * 9
    assert summary["verdicts"]["ranks_nonincreasing"] is True
    assert summary["verdicts"]["final_rank_dominates"] is True
    assert iterate_products(chain).ranks is None
    assert "rank_trajectory" not in trace_summary(iterate_products(chain))
    with pytest.raises(PreconditionError):
        iterate_products(chain, horizon=11)


def test_projection_convergence_uses_the_trace_probes():
    # default probes come from the chain's seed 7, not from seed 0
    chain = conjugated_diagonal_chain(
        [const(1.0), harmonic_to(0.3), geometric(0.8)], horizon=12, seed=7
    )
    trace = iterate_products(chain, horizon=9, fixed_spaces=True)
    _, seed7 = default_probes(3, trace.projection, seed=7)
    _, seed0 = default_probes(3, trace.projection, seed=0)
    assert np.array_equal(trace.probes, seed7)
    assert not np.array_equal(trace.probes, seed0)
    assert trace.ranks.shape == (9,)
    for n in range(1, 10):
        step = fixed_point_projection(chain.operator_at(n))
        assert trace.ranks[n - 1] == step.rank

    custom = iterate_products(
        chain, probes=np.eye(3)[:, :2], probe_ids=["x", "y"], fixed_spaces=True
    )
    assert custom.probe_ids == ("x", "y")
    assert np.array_equal(custom.ranks[:9], trace.ranks)
    with pytest.raises(PreconditionError, match="zero probe"):
        iterate_products(chain, probes=np.zeros((3, 1)), fixed_spaces=True)
    with pytest.raises(PreconditionError, match="dimension"):
        iterate_products(chain, probes=np.eye(2), fixed_spaces=True)


def complex_drift_chain(horizon=15):
    """A chain of complex Hermitian contractions with no analytic limit:
    decaying curves conjugated by one seeded unitary."""
    rng = stream_rng(4, 99)
    gauss = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    unitary, _ = np.linalg.qr(gauss)

    def factory(n):
        values = np.array([1.0, 0.5 + 0.5 / n, 0.9**n])
        return Operator((unitary * values) @ unitary.conj().T)

    return ContractionChain(3, "complex_curves", horizon, factory, seed=4)


def schur_chain():
    return random_schur_chain(6, seed=5, horizon=14, fixed_rank=2)


@pytest.mark.parametrize(
    "make_chain, horizon",
    [
        (schur_chain, None),
        (schur_chain, 9),
        (complex_drift_chain, None),
        (complex_drift_chain, 6),
        (lambda: complex_chain(10), None),
        (lambda: telescoping_chain(12), 1),
    ],
)
def test_projection_trace_matches_per_step_projections(make_chain, horizon):
    trace = iterate_products(make_chain(), horizon=horizon, fixed_spaces=True)
    # a fresh chain, so no step's decomposition is shared with the run
    fresh = make_chain()
    ranks = [
        fixed_point_projection(fresh.operator_at(n)).rank
        for n in range(1, trace.horizon + 1)
    ]
    assert np.array_equal(trace.ranks, ranks)
    # the run's limit: an empirical one is the run's last step
    limit = fixed_point_projection(
        limit_operator(fresh, trace.horizon).operator
    )
    assert np.array_equal(trace.projection.matrix, limit.matrix)
    assert trace.projection.rank == limit.rank


def negative_step_chain(expanding_step=None):
    """Step 3 has eigenvalue -0.5; step ``expanding_step``, if given, has
    eigenvalue 1.5, so the products leave the unit ball from there."""

    def factory(n):
        if n == expanding_step:
            return diagonal([1.5, 0.5])
        return diagonal([1.0, -0.5 if n == 3 else 0.5])

    return ContractionChain(
        2, "negative_step", 6, factory, analytic_limit=diagonal([1.0, 0.5])
    )


def test_non_contraction_step_fails_where_its_projection_would(monkeypatch):
    chain = negative_step_chain()
    with pytest.raises(PreconditionError) as expected:
        fixed_point_projection(chain.operator_at(3))
    # the walk stops at step 3, before the limit and any product
    monkeypatch.setattr(products, "limit_operator", None)
    with pytest.raises(PreconditionError) as raised:
        iterate_products(chain, probes=np.eye(2), fixed_spaces=True)
    # the same refusal, naming the step
    assert str(raised.value) == f"step 3 is {expected.value}"
    assert str(raised.value) == (
        "step 3 is not a positive contraction: offending eigenvalue -0.5"
    )


def test_non_contraction_step_fails_before_a_later_expanding_step():
    # step 5 expands e1, so b_n grows from there; the step-3
    # precondition is what the run reports
    chain = negative_step_chain(expanding_step=5)
    with pytest.raises(InvariantError, match="b_n increased"):
        iterate_products(chain, probes=np.eye(2))
    with pytest.raises(PreconditionError) as raised:
        iterate_products(chain, probes=np.eye(2), fixed_spaces=True)
    assert str(raised.value) == (
        "step 3 is not a positive contraction: offending eigenvalue -0.5"
    )


def test_decomposition_handover_keeps_one_step():
    chain = telescoping_chain(10)
    first = chain.decomposition_at(4)
    assert chain.decomposition_at(4) is first
    assert not first.eigenvalues.flags.writeable
    assert not first.eigenvectors.flags.writeable
    reference = spectral_decompose(chain.operator_at(4))
    assert np.array_equal(first.eigenvalues, reference.eigenvalues)
    assert np.array_equal(first.eigenvectors, reference.eigenvectors)
    chain.decomposition_at(5)
    assert chain.decomposition_at(4) is not first


@pytest.mark.parametrize("fixed_spaces", [False, True])
def test_schur_run_diagonalizes_each_step_once(
    eigensolve_counts, fixed_spaces
):
    h = 12
    chain = random_schur_chain(6, seed=3, horizon=h, fixed_rank=2)
    eigensolve_counts.reset()
    iterate_products(chain, fixed_spaces=fixed_spaces)
    # h - 1 sampler bases and one eigh per step T_1 .. T_h, which serves
    # the square root, the step's fixed space and the empirical limit; the
    # trace-only run decomposes the same steps
    assert eigensolve_counts == {"eigh": 2 * h - 1, "eigvalsh": h - 1}
    # T_1 .. T_h are one block: one stacked eigh of its h - 1 Gaussians,
    # one stacked eigvalsh of its h - 1 decrements
    assert eigensolve_counts.calls == {"eigh": h + 1, "eigvalsh": 1}


@pytest.mark.parametrize("steps, blocks", [(5, 3), (6, 2), (12, 1)])
def test_schur_sampler_solves_once_per_block(
    monkeypatch, eigensolve_counts, steps, blocks
):
    # blocks of 5 steps T_1 .. T_5, T_6 .. T_10 and T_11 .. T_12 draw
    # decrements 1..4, 5..9 and 10..11: one stacked eigh and one stacked
    # eigvalsh each
    blocks_of(monkeypatch, steps, 6)
    h = 12
    chain = random_schur_chain(6, seed=3, horizon=h, fixed_rank=2)
    eigensolve_counts.reset()
    iterate_products(chain)
    assert eigensolve_counts == {"eigh": 2 * h - 1, "eigvalsh": h - 1}
    assert eigensolve_counts.calls == {"eigh": h + blocks, "eigvalsh": blocks}


# ---------------------------------------------------------------------------
# Greedy epsilon nets


def test_orbit_epsilon_net_oracle():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    net = orbit_epsilon_net(points, 0.6)
    assert net.member_indices == (0, 1)
    assert net.size == 2
    assert net.epsilon == 0.6


def test_orbit_epsilon_net_rejects_bad_input():
    with pytest.raises(PreconditionError, match="epsilon"):
        orbit_epsilon_net(np.eye(2), 0.0)
    with pytest.raises(PreconditionError, match="points"):
        orbit_epsilon_net(np.zeros(3), 0.5)


@given(
    seed=st.integers(min_value=0, max_value=2_000),
    count=st.integers(min_value=1, max_value=40),
    epsilon=st.floats(min_value=0.05, max_value=2.0),
)
def test_orbit_epsilon_net_properties(seed, count, epsilon):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((count, 3))
    net = orbit_epsilon_net(points, epsilon)
    members = points[list(net.member_indices)]
    # pairwise separation
    for i in range(net.size):
        for j in range(i + 1, net.size):
            assert np.linalg.norm(members[i] - members[j]) > epsilon
    # coverage
    dists = np.linalg.norm(points[:, None, :] - members[None, :, :], axis=2)
    assert np.all(dists.min(axis=1) <= epsilon)


@given(
    seed=st.integers(min_value=0, max_value=2_000),
    count=st.integers(min_value=1, max_value=60),
    dim=st.integers(min_value=1, max_value=6),
    epsilon=st.one_of(
        st.sampled_from([0.5, 1.0, 1.5]),  # ties with grid distances
        st.floats(min_value=0.05, max_value=2.0),
    ),
    on_grid=st.booleans(),
)
def test_orbit_epsilon_net_matches_scalar_scan(
    seed, count, dim, epsilon, on_grid
):
    rng = np.random.default_rng(seed)
    if on_grid:
        # coarse grid: repeated points and distances exactly at epsilon
        points = rng.integers(-2, 3, size=(count, dim)) * 0.5
    else:
        points = rng.standard_normal((count, dim))
    net = orbit_epsilon_net(points, epsilon)
    assert net.member_indices == scalar_greedy_net(points, epsilon)


@pytest.mark.parametrize("n_max", [5, 12, 30])
@pytest.mark.parametrize("epsilon", [0.1, 0.5, 0.9, 1.5])
def test_orbit_epsilon_net_matches_scalar_scan_on_orbit(n_max, epsilon):
    points = dense_orbit(n_max)
    net = orbit_epsilon_net(points, epsilon)
    assert net.member_indices == scalar_greedy_net(points, epsilon)


def _dense_from_windows(points, starts):
    dense = np.zeros((len(points), int(starts.max(initial=0)) + points.shape[1]))
    for row, (window, start) in enumerate(zip(points, starts)):
        dense[row, start : start + len(window)] = window
    return dense


@given(
    seed=st.integers(min_value=0, max_value=2_000),
    count=st.integers(min_value=1, max_value=50),
    width=st.integers(min_value=1, max_value=3),
    scale=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
    epsilon=st.one_of(
        st.sampled_from([0.5, 1.0, 1.5]),
        st.floats(min_value=0.05, max_value=2.0),
    ),
    on_grid=st.booleans(),
)
def test_orbit_epsilon_net_windows_match_scalar_scan(
    seed, count, width, scale, epsilon, on_grid
):
    # short vectors put disjoint members within epsilon, so the support
    # rule must fall back to measuring them; long ones let it skip them
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.integers(0, 6, size=count))
    if on_grid:
        points = rng.integers(-2, 3, size=(count, width)) * 0.5
    else:
        points = rng.standard_normal((count, width)) * scale
    net = orbit_epsilon_net(points, epsilon, starts=starts)
    dense = _dense_from_windows(points, starts)
    assert net.member_indices == scalar_greedy_net(dense, epsilon)


def test_orbit_epsilon_net_rejects_bad_starts():
    with pytest.raises(PreconditionError, match="starts"):
        orbit_epsilon_net(np.eye(3), 0.5, starts=[0, 2, 1])
    with pytest.raises(PreconditionError, match="starts"):
        orbit_epsilon_net(np.eye(3), 0.5, starts=[0, 1])
    with pytest.raises(PreconditionError, match="epsilon"):
        orbit_epsilon_net(np.eye(3), float("nan"))


def test_orbit_epsilon_net_blocks_split_long_rows(monkeypatch):
    # a block budget far below one row's distances splits every row into
    # many blocks; the net must not change
    rng = np.random.default_rng(5)
    points = rng.standard_normal((300, 2))
    starts = np.repeat([0, 1, 3], 100)
    whole = orbit_epsilon_net(points, 0.4, starts=starts)
    monkeypatch.setattr(products, "_NET_BLOCK_ENTRIES", 64)
    split = orbit_epsilon_net(points, 0.4, starts=starts)
    assert split.member_indices == whole.member_indices
    dense = _dense_from_windows(points, starts)
    assert whole.member_indices == scalar_greedy_net(dense, 0.4)


# ---------------------------------------------------------------------------
# CSV export


def test_write_trace_csv_layout(tmp_path):
    horizon = 12
    trace = iterate_products(
        telescoping_chain(horizon), probes=np.eye(2), probe_ids=["e1", "e2"]
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(TRACE_CSV_HEADER)
    assert len(rows) == 1 + horizon * 2
    final_rows = [r for r in rows[1:] if r[0] == str(horizon)]
    assert len(final_rows) == 2
    for row in final_rows:
        assert row[4] == "" and row[5] == ""  # consec_diff, a_n undefined
    # full-precision floats survive the round trip
    n3_e2 = next(r for r in rows[1:] if r[0] == "3" and r[1] == "e2")
    assert float(n3_e2[2]) == trace.sot_err[2, 1]
    assert float(n3_e2[6]) == trace.b[2, 1]


def reference_trace_csv(trace, path):
    """The row-at-a-time ``csv.writer`` export, formatting each float
    with ``format(x, ".17g")``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_CSV_HEADER)
        for n in range(1, trace.horizon + 1):
            ahead = n < trace.horizon
            for p, probe_id in enumerate(trace.probe_ids):
                cell = lambda arr: format(float(arr[n - 1, p]), ".17g")
                writer.writerow(
                    [
                        n,
                        probe_id,
                        cell(trace.sot_err),
                        cell(trace.adj_err),
                        cell(trace.consec_diff) if ahead else "",
                        cell(trace.a) if ahead else "",
                        cell(trace.b),
                        cell(trace.wot_err),
                        format(float(trace.opnorm_err[n - 1]), ".17g"),
                    ]
                )


@pytest.mark.parametrize("block_rows", [None, 1, 4, 7])
@pytest.mark.parametrize("horizon", [1, 2, 3, 12])
def test_write_trace_csv_matches_csv_writer(
    tmp_path, monkeypatch, horizon, block_rows
):
    if block_rows is not None:
        monkeypatch.setattr(products, "_ROW_BLOCK", block_rows)
    ids = ["a,b", 'say "hi"', "", "line\nbreak", "plain"]
    probes = np.array(
        [[1.0, 0.0, 0.6, 0.3, -1.0], [0.0, 1.0, 0.8, -2.0, 1e-300]]
    )
    trace = iterate_products(
        telescoping_chain(12), probes=probes, probe_ids=ids, horizon=horizon
    )
    write_trace_csv(trace, tmp_path / "fast.csv")
    reference_trace_csv(trace, tmp_path / "reference.csv")
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "reference.csv").read_bytes()
    with open(tmp_path / "fast.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[1] for row in rows[1:]] == ids * horizon


def test_write_trace_csv_without_probes_writes_the_header(tmp_path):
    trace = iterate_products(telescoping_chain(5), probes=np.zeros((2, 0)))
    write_trace_csv(trace, tmp_path / "fast.csv")
    reference_trace_csv(trace, tmp_path / "reference.csv")
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "reference.csv").read_bytes()
    assert fast == (",".join(TRACE_CSV_HEADER) + "\r\n").encode()


def test_write_trace_csv_matches_csv_writer_on_a_dense_run(tmp_path):
    chain = random_schur_chain(9, seed=8, horizon=30, fixed_rank=3)
    trace = iterate_products(chain)
    write_trace_csv(trace, tmp_path / "fast.csv")
    reference_trace_csv(trace, tmp_path / "reference.csv")
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "reference.csv").read_bytes()
