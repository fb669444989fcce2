import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contraction_lab import (
    ChainGenerationError,
    ChainSpecError,
    Operator,
    PreconditionError,
    affine_harmonic,
    build_chain,
    chain_to_json_dict,
    conjugated_diagonal_chain,
    const,
    custom_curve,
    diagonal,
    diagonal_chain,
    fixed_point_projection,
    gap_engineered_chain,
    geometric,
    halving_decrement_sampler,
    harmonic_to,
    hermitian_eigenvalues,
    identity,
    is_positive_contraction,
    loewner_leq,
    near_one_accumulating_chain,
    operator_from_dict,
    parse_chain_spec,
    peel,
    random_orthogonal,
    random_schur_chain,
    schur_decrement_chain,
    spectral_decompose,
    stream_rng,
)


# ---------------------------------------------------------------------------
# Seeded randomness


def test_stream_rng_deterministic_and_keyed():
    a = stream_rng(7, 1, 2).uniform(size=4)
    b = stream_rng(7, 1, 2).uniform(size=4)
    c = stream_rng(7, 1, 3).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_rng_rejects_none_seed():
    with pytest.raises(PreconditionError):
        stream_rng(None, 1)


def test_random_orthogonal_is_orthogonal_and_deterministic():
    u1 = random_orthogonal(6, stream_rng(5, 9))
    u2 = random_orthogonal(6, stream_rng(5, 9))
    assert np.array_equal(u1, u2)
    assert np.allclose(u1 @ u1.T, np.eye(6), atol=1e-12)


# ---------------------------------------------------------------------------
# Curves


def test_curve_values_and_limits():
    assert const(0.5).value(17) == 0.5
    assert const(0.5).limit == 0.5

    h = harmonic_to(0.5)
    assert h.value(1) == 1.0
    assert h.value(2) == pytest.approx(0.75)
    assert h.limit == 0.5

    a = affine_harmonic(0.3, 0.4)
    assert a.value(1) == pytest.approx(0.7)
    assert a.value(2) == pytest.approx(0.5)
    assert a.limit == 0.3

    g = geometric(0.5)
    assert g.value(3) == pytest.approx(0.125)
    assert g.limit == 0.0
    assert geometric(1.0).limit == 1.0

    p = peel(5, 0.8, 0.9)
    assert p.value(4) == 1.0
    assert p.value(5) == pytest.approx(0.8)
    assert p.value(7) == pytest.approx(0.8 * 0.81)
    assert p.limit == 0.0
    assert peel(5, 0.8, 1.0).limit == 0.8

    c = custom_curve(lambda n: 1.0 / n)
    assert c.value(2) == 0.5
    assert c.limit is None
    assert custom_curve(lambda n: 1.0 / n, limit=0.0).limit == 0.0


def test_curve_validation():
    with pytest.raises(ValueError):
        const(1.2)
    with pytest.raises(ValueError):
        harmonic_to(-0.1)
    with pytest.raises(ValueError):
        affine_harmonic(0.8, 0.4)  # peak above 1
    with pytest.raises(ValueError):
        peel(0, 0.5, 0.9)
    with pytest.raises(ValueError):
        peel(3, 0.5, 0.0)
    with pytest.raises(ValueError):
        custom_curve(lambda n: 1.0 / n).to_spec()
    assert const(0.5).to_spec() == ["const", 0.5]
    assert peel(5, 0.8, 0.9).to_spec() == ["peel", 5.0, 0.8, 0.9]


# ---------------------------------------------------------------------------
# Diagonal chains


def test_diagonal_chain_matches_curves():
    chain = diagonal_chain([const(1.0), harmonic_to(0.5)], horizon=20)
    for n in (1, 2, 7, 20):
        vals = np.diag(chain.operator_at(n).entries)
        assert vals[0] == 1.0
        assert vals[1] == pytest.approx(0.5 + 0.5 / n)
    assert np.allclose(
        chain.analytic_limit.entries, np.diag([1.0, 0.5]), atol=1e-15
    )


def test_diagonal_chain_is_exactly_diagonal():
    curves = [const(1.0), harmonic_to(0.3), geometric(0.7), peel(4, 0.6, 0.9)]
    horizon = 12
    chain = diagonal_chain(curves, horizon=horizon)
    for n in range(1, horizon + 1):
        values = [c.value(n) for c in curves]
        assert np.array_equal(chain.operator_at(n).entries, np.diag(values))
    limits = [c.limit for c in curves]
    assert np.array_equal(
        chain.analytic_limit.entries, diagonal(limits).entries
    )


def test_diagonal_chain_range_checks():
    chain = diagonal_chain([const(1.0)], horizon=5)
    with pytest.raises(PreconditionError):
        chain.operator_at(0)
    with pytest.raises(PreconditionError):
        chain.operator_at(6)


def test_diagonal_chain_rejects_bad_curves():
    with pytest.raises(ChainGenerationError, match="increases at n=1"):
        diagonal_chain([custom_curve(lambda n: min(1.0, 0.1 * n))], horizon=10)
    with pytest.raises(ChainGenerationError, match=r"leaves \[0, 1\]"):
        diagonal_chain([custom_curve(lambda n: 1.5 / n)], horizon=10)
    with pytest.raises(ChainGenerationError, match="curves for dimension"):
        diagonal_chain([const(1.0)], dim=2, horizon=10)


def test_diagonal_chain_custom_curve_has_no_analytic_limit():
    chain = diagonal_chain(
        [custom_curve(lambda n: 1.0 / n)], horizon=10
    )
    assert chain.analytic_limit is None


# ---------------------------------------------------------------------------
# Conjugated chains


def test_conjugated_chain_spectrum_and_determinism():
    curves = [const(1.0), harmonic_to(0.3), geometric(0.8)]
    c1 = conjugated_diagonal_chain(curves, horizon=10, seed=4)
    c2 = conjugated_diagonal_chain(curves, horizon=10, seed=4)
    c3 = conjugated_diagonal_chain(curves, horizon=10, seed=5)
    assert np.array_equal(c1.operator_at(3).entries, c2.operator_at(3).entries)
    assert not np.array_equal(
        c1.operator_at(3).entries, c3.operator_at(3).entries
    )
    expected = np.sort([1.0, 0.3 + 0.7 / 3.0, 0.8**3])
    got = hermitian_eigenvalues(c1.operator_at(3))
    assert np.allclose(got, expected, atol=1e-12)
    # off-diagonal mass: conjugation actually happened
    off = c1.operator_at(3).entries - np.diag(np.diag(c1.operator_at(3).entries))
    assert np.linalg.norm(off) > 1e-3


# ---------------------------------------------------------------------------
# Schur decrement chains


def test_schur_chain_rejects_bad_inputs():
    with pytest.raises(ChainGenerationError, match="starting operator"):
        schur_decrement_chain(diagonal([1.5, 0.5]), lambda n: diagonal([0.0, 0.0]))
    chain = schur_decrement_chain(
        identity(2), lambda n: diagonal([2.0, 0.0]), horizon=5
    )
    with pytest.raises(ChainGenerationError, match="decrement at step 1"):
        chain.operator_at(2)
    mismatched = schur_decrement_chain(
        identity(2), lambda n: identity(3), horizon=5
    )
    with pytest.raises(ChainGenerationError, match="dim"):
        mismatched.operator_at(2)


def test_halving_sampler_scale_and_positivity():
    sampler = halving_decrement_sampler(4, seed=3)
    dec = sampler(3)
    assert is_positive_contraction(dec)
    assert dec.norm() <= 0.5**3 + 1e-12


def test_random_schur_chain_keeps_fixed_subspace():
    chain = random_schur_chain(5, seed=3, horizon=25, fixed_rank=2)
    for n in (1, 5, 15, 25):
        op = chain.operator_at(n)
        assert is_positive_contraction(op)
        assert fixed_point_projection(op).rank == 2
    # dense, not diagonal
    op = chain.operator_at(3)
    assert np.linalg.norm(op.entries - np.diag(np.diag(op.entries))) > 1e-6
    with pytest.raises(ChainGenerationError):
        random_schur_chain(4, seed=0, fixed_rank=5)
    with pytest.raises(ChainGenerationError):
        random_schur_chain(4, seed=0, top=1.0)


def test_decomposition_handover_under_concurrent_walks():
    # threads walking one Schur chain in different orders must each get
    # the eigh of the step they asked for, and the chain must come out
    # as a single-threaded build makes it
    horizon = 24
    reference = random_schur_chain(5, seed=3, horizon=horizon, fixed_rank=2)
    steps = range(1, horizon + 1)
    expected = {n: spectral_decompose(reference.operator_at(n)) for n in steps}
    chain = random_schur_chain(5, seed=3, horizon=horizon, fixed_rank=2)
    rng = np.random.default_rng(0)
    orders = [list(steps), list(steps)[::-1]]
    orders += [list(rng.permutation(horizon) + 1) for _ in range(4)]
    wrong = []

    def walk(order):
        for n in order:
            got = chain.decomposition_at(n)
            if not (
                np.array_equal(got.eigenvalues, expected[n].eigenvalues)
                and np.array_equal(got.eigenvectors, expected[n].eigenvectors)
            ):
                wrong.append(n)

    threads = [threading.Thread(target=walk, args=(o,)) for o in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    for n in steps:
        assert np.array_equal(
            chain.operator_at(n).entries, reference.operator_at(n).entries
        )


# ---------------------------------------------------------------------------
# Gap engineered chains


def test_gap_engineered_spectrum():
    delta, rank = 0.1, 2
    chain = gap_engineered_chain(6, delta, rank, seed=11, horizon=40)
    assert chain.gap_guarantee == delta
    eigs1 = hermitian_eigenvalues(chain.operator_at(1))
    assert np.sum(eigs1 >= 1.0 - 1e-9) == rank
    # at n=1 every non-fixed eigenvalue sits exactly on 1 - delta
    assert np.allclose(eigs1[:-rank], 1.0 - delta, atol=1e-12)
    for n in (2, 10, 40):
        eigs = np.sort(hermitian_eigenvalues(chain.operator_at(n)))
        assert np.sum(eigs >= 1.0 - 1e-9) == rank
        assert np.all(eigs[: 6 - rank] <= 1.0 - delta + 1e-12)


def test_gap_engineered_validation():
    with pytest.raises(ChainGenerationError):
        gap_engineered_chain(4, 0.0, 1, seed=0)
    with pytest.raises(ChainGenerationError):
        gap_engineered_chain(4, 0.1, 7, seed=0)


# ---------------------------------------------------------------------------
# Near-one accumulating chains


def test_near_one_chain_shape():
    chain = near_one_accumulating_chain(6, seed=0, horizon=300)
    table = np.array(
        [np.diag(chain.operator_at(n).entries) for n in range(1, 301)]
    )
    assert np.all(table[:, 0] == 1.0)  # coordinate 1 pinned at 1
    assert np.all((table >= 0.0) & (table <= 1.0))
    first_drop = []
    for k in range(1, 6):
        col = table[:, k]
        below = np.flatnonzero(col < 1.0)
        assert below.size  # every other coordinate eventually peels
        first_drop.append(col[below[0]])
    # depth ladder spans coarse to hair-thin bands below 1
    assert min(first_drop) < 0.9
    assert max(first_drop) > 0.999


def test_near_one_chain_validation():
    with pytest.raises(ChainGenerationError):
        near_one_accumulating_chain(1, seed=0)
    with pytest.raises(ChainGenerationError, match="too small"):
        near_one_accumulating_chain(8, seed=0, horizon=50)


# ---------------------------------------------------------------------------
# Chain ordering across all kinds


@pytest.mark.parametrize(
    "make",
    [
        lambda: diagonal_chain(
            [const(1.0), harmonic_to(0.4), geometric(0.9)], horizon=30
        ),
        lambda: conjugated_diagonal_chain(
            [const(1.0), harmonic_to(0.4), geometric(0.9)],
            horizon=30,
            seed=2,
        ),
        lambda: random_schur_chain(4, seed=1, horizon=30, fixed_rank=1),
        lambda: gap_engineered_chain(4, 0.2, 1, seed=1, horizon=30),
        lambda: near_one_accumulating_chain(4, seed=1, horizon=60),
    ],
    ids=[
        "diagonal",
        "conjugated_diagonal",
        "schur_decrement",
        "gap_engineered",
        "near_one_accumulating",
    ],
)
def test_chain_is_decreasing_positive(make):
    chain = make()
    prev = chain.operator_at(1)
    assert is_positive_contraction(prev)
    for n in range(2, chain.horizon + 1):
        cur = chain.operator_at(n)
        assert is_positive_contraction(cur)
        assert loewner_leq(cur, prev)
        prev = cur


# ---------------------------------------------------------------------------
# Specs


def test_parse_chain_spec_round_trip():
    doc = {
        "kind": "diagonal",
        "dim": 2,
        "horizon": 12,
        "curves": [["const", 1.0], ["harmonic_to", 0.5]],
    }
    spec = parse_chain_spec(json.dumps(doc))
    chain = build_chain(spec)
    assert chain.dim == 2 and chain.horizon == 12
    again = build_chain(parse_chain_spec(spec.to_json_dict()))
    assert np.array_equal(
        chain.operator_at(7).entries, again.operator_at(7).entries
    )


def test_parse_chain_spec_collects_all_violations():
    doc = {"kind": "bogus", "dim": 0, "horizon": 0, "zzz": 1}
    with pytest.raises(ChainSpecError) as exc:
        parse_chain_spec(doc)
    text = "; ".join(exc.value.violations)
    assert len(exc.value.violations) >= 4
    assert "unknown key 'zzz'" in text
    assert "unknown kind" in text
    assert "dim" in text and "horizon" in text


def test_parse_chain_spec_kind_specific_rules():
    with pytest.raises(ChainSpecError, match="requires a seed"):
        parse_chain_spec({"kind": "gap_engineered", "dim": 4, "delta": 0.1})
    with pytest.raises(ChainSpecError, match="does not take 'delta'"):
        parse_chain_spec(
            {
                "kind": "diagonal",
                "dim": 1,
                "curves": [["const", 1.0]],
                "delta": 0.1,
            }
        )
    with pytest.raises(ChainSpecError, match="does not take 'curves'"):
        parse_chain_spec(
            {
                "kind": "gap_engineered",
                "dim": 4,
                "seed": 0,
                "delta": 0.1,
                "curves": [["const", 1.0]],
            }
        )
    with pytest.raises(ChainSpecError, match="unknown tag"):
        parse_chain_spec(
            {"kind": "diagonal", "dim": 1, "curves": [["wiggle", 0.5]]}
        )
    with pytest.raises(ChainSpecError, match="takes 1 parameter"):
        parse_chain_spec(
            {"kind": "diagonal", "dim": 1, "curves": [["const", 0.5, 0.5]]}
        )
    with pytest.raises(ChainSpecError, match="curve 0"):
        parse_chain_spec(
            {"kind": "diagonal", "dim": 1, "curves": [["const", 1.5]]}
        )
    with pytest.raises(ChainSpecError, match="invalid JSON"):
        parse_chain_spec("{nope")
    with pytest.raises(ChainSpecError, match="JSON object"):
        parse_chain_spec("3")


@pytest.mark.parametrize(
    "doc",
    [
        {
            "kind": "diagonal",
            "dim": 2,
            "horizon": 10,
            "curves": [["const", 1.0], ["geometric", 0.5]],
        },
        {
            "kind": "conjugated_diagonal",
            "dim": 2,
            "horizon": 10,
            "seed": 1,
            "curves": [["const", 1.0], ["harmonic_to", 0.2]],
        },
        {
            "kind": "schur_decrement",
            "dim": 3,
            "horizon": 10,
            "seed": 1,
            "fixed_rank": 1,
        },
        {
            "kind": "gap_engineered",
            "dim": 3,
            "horizon": 10,
            "seed": 1,
            "delta": 0.2,
            "fixed_rank": 1,
        },
        {
            "kind": "near_one_accumulating",
            "dim": 3,
            "horizon": 120,
            "seed": 1,
        },
    ],
    ids=lambda d: d["kind"],
)
def test_build_chain_all_kinds(doc):
    chain = build_chain(parse_chain_spec(doc))
    assert chain.kind == doc["kind"]
    assert chain.dim == doc["dim"]
    assert is_positive_contraction(chain.operator_at(chain.horizon))


def test_chain_to_json_dict_round_trips_operators():
    chain = diagonal_chain([const(1.0), geometric(0.5)], horizon=6)
    doc = chain_to_json_dict(chain, up_to=3)
    assert doc["kind"] == "diagonal"
    assert len(doc["operators"]) == 3
    op2 = operator_from_dict(doc["operators"][1])
    assert np.allclose(op2.entries, np.diag([1.0, 0.25]), atol=1e-15)


# ---------------------------------------------------------------------------
# Property: random diagonal chains stay inside the contract


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    dim=st.integers(min_value=1, max_value=6),
)
def test_random_diagonal_chains_decrease(seed, dim):
    rng = stream_rng(seed, 77)
    curves = []
    for _ in range(dim):
        pick = rng.integers(0, 3)
        if pick == 0:
            curves.append(const(float(rng.uniform(0.0, 1.0))))
        elif pick == 1:
            curves.append(harmonic_to(float(rng.uniform(0.0, 1.0))))
        else:
            curves.append(geometric(float(rng.uniform(0.1, 1.0))))
    chain = diagonal_chain(curves, horizon=25)
    prev = chain.operator_at(1)
    for n in range(2, 26):
        cur = chain.operator_at(n)
        assert loewner_leq(cur, prev)
        prev = cur
