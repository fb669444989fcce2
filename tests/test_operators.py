import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contraction_lab import (
    DEFAULT,
    DimensionMismatchError,
    Operator,
    PreconditionError,
    check_fixed_vector_equivalence,
    check_projection_monotone,
    closed_interval,
    diagonal,
    fixed_point_projection,
    identity,
    is_positive_contraction,
    loewner_leq,
    open_interval,
    operator_from_dict,
    operator_to_dict,
    point_interval,
    spectral_decompose,
    spectral_projection,
)
from contraction_lab.chains import stream_rng
from contraction_lab.corpus import random_contraction

SQRT2 = 1.4142135623730951


def small_dims():
    return st.integers(min_value=2, max_value=8)


def seeds():
    return st.integers(min_value=0, max_value=10_000)


# ---------------------------------------------------------------------------
# Operator construction


def test_operator_hermitizes_and_is_readonly():
    raw = np.array([[1.0, 0.2], [0.0, 0.5]])
    op = Operator(raw)
    assert np.allclose(op.entries, op.entries.conj().T)
    assert op.entries[0, 1] == pytest.approx(0.1)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 2.0


def test_operator_rejects_bad_input():
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Operator(np.zeros(3))


def test_identity_and_diagonal():
    assert np.array_equal(identity(3).entries, np.eye(3))
    d = diagonal([1.0, 0.5, 0.0])
    assert np.array_equal(np.diag(d.entries), [1.0, 0.5, 0.0])
    assert d.dim == 3
    assert d.norm() == pytest.approx(1.0)


def test_operator_dict_round_trip():
    op = Operator(np.array([[0.5, 0.1j], [-0.1j, 0.25]]))
    back = operator_from_dict(operator_to_dict(op))
    assert np.allclose(back.entries, op.entries, atol=1e-15)
    # real matrices downcast on reconstruction
    real = diagonal([1.0, 0.5])
    assert operator_from_dict(operator_to_dict(real)).entries.dtype == np.float64


def test_operator_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        operator_from_dict({"dim": 2})
    with pytest.raises(ValueError):
        operator_from_dict({"dim": 2, "entries": [[[1.0, 0.0]]]})


# ---------------------------------------------------------------------------
# Spectral helpers


def test_spectral_decompose_reconstructs():
    rng = stream_rng(3, 99)
    a = rng.standard_normal((5, 5))
    op = Operator(a @ a.T)
    dec = spectral_decompose(op)
    assert np.allclose(dec.reconstruct(), op.entries, atol=1e-10)
    assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_spectral_projection_point_and_empty():
    op = diagonal([1.0, 0.5])
    p1 = spectral_projection(op, point_interval(1.0))
    assert p1.rank == 1
    assert np.allclose(p1.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    p0 = spectral_projection(op, closed_interval(2.0, 3.0))
    assert p0.rank == 0
    assert np.allclose(p0.matrix, 0.0)
    assert np.allclose(p0.complement().matrix, np.eye(2))


def test_spectral_projection_clusters_near_one():
    # eigenvalue within tol_eig of 1 counts as fixed
    op = diagonal([1.0, 1.0 - 1e-12, 0.5])
    p = spectral_projection(op, point_interval(1.0))
    assert p.rank == 2


def test_projection_apply_and_complement():
    op = diagonal([1.0, 0.25])
    p = spectral_projection(op, point_interval(1.0))
    v = np.array([3.0, 4.0])
    assert np.allclose(p.apply(v), [3.0, 0.0])
    assert np.allclose(p.complement().apply(v), [0.0, 4.0])
    assert p.complement().rank == 1


# ---------------------------------------------------------------------------
# Contraction and order checks


def test_is_positive_contraction_witnesses():
    assert is_positive_contraction(diagonal([1.0, 0.5]))
    too_big = is_positive_contraction(diagonal([1.2, 0.5]))
    assert not too_big
    assert too_big.witness == pytest.approx(1.2)
    negative = is_positive_contraction(diagonal([-0.1, 0.5]))
    assert not negative
    assert negative.witness == pytest.approx(-0.1)
    # tolerance slack just above 1
    assert is_positive_contraction(diagonal([1.0 + 1e-12, 0.5]))


def test_loewner_leq_oracle():
    lo = diagonal([0.5, 0.2])
    hi = diagonal([0.6, 0.3])
    assert loewner_leq(lo, hi)
    rev = loewner_leq(hi, lo)
    assert not rev
    assert rev.witness == pytest.approx(-0.1)
    with pytest.raises(DimensionMismatchError):
        loewner_leq(lo, identity(3))


def test_fixed_point_projection():
    p = fixed_point_projection(diagonal([1.0, 1.0, 0.3]))
    assert p.rank == 2
    with pytest.raises(PreconditionError):
        fixed_point_projection(diagonal([1.5, 0.0]))


def test_fixed_point_projection_runs_one_eigh(monkeypatch):
    op, _, _ = random_contraction(6, stream_rng(3, 0), fixed_weight=0.5)
    w, v = np.linalg.eigh(op.entries)
    cols = v[:, w >= 1.0 - DEFAULT.eig]
    expected = Operator(cols @ cols.T).entries
    below = Operator(np.diag([0.5, 0.25]).astype(np.complex128))

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("fixed_point_projection called eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    p = fixed_point_projection(op)
    assert p.rank == cols.shape[1] > 0
    assert np.array_equal(p.matrix, expected)
    zero = fixed_point_projection(below)
    assert zero.rank == 0 and zero.matrix.dtype == np.complex128
    with pytest.raises(
        PreconditionError,
        match=r"^not a positive contraction: offending eigenvalue 1\.5$",
    ):
        fixed_point_projection(diagonal([1.5, 0.5]))


# ---------------------------------------------------------------------------
# Fixed-vector equivalence


def test_fixed_vector_equivalence_fixed_direction():
    op = diagonal([1.0, 0.5])
    rep = check_fixed_vector_equivalence(op, np.array([1.0, 0.0]))
    assert rep.agree and rep.cond1 and rep.cond2 and rep.cond3
    assert rep.r1 == 0.0 and rep.r3 == 0.0


def test_fixed_vector_equivalence_moving_direction():
    op = diagonal([1.0, 0.5])
    rep = check_fixed_vector_equivalence(op, np.array([0.0, 1.0]))
    assert rep.agree and not (rep.cond1 or rep.cond2 or rep.cond3)
    assert rep.r1 == pytest.approx(0.5)
    assert rep.r2 == pytest.approx(0.5)
    assert rep.r3 == pytest.approx(0.5)


def test_fixed_vector_equivalence_mixed_residuals():
    # xi = (e1 + e2)/sqrt(2) against diag(1, 0.5): residuals known in closed form
    op = diagonal([1.0, 0.5])
    xi = np.array([1.0, 1.0]) / SQRT2
    rep = check_fixed_vector_equivalence(op, xi)
    assert rep.r1 == pytest.approx(0.5 / SQRT2, rel=1e-12)
    assert rep.r2 == pytest.approx(1.0 - math.sqrt(0.625), rel=1e-12)
    assert rep.r3 == pytest.approx(0.25, rel=1e-12)
    assert rep.agree and not rep.ambiguous


def test_fixed_vector_equivalence_zero_vector():
    rep = check_fixed_vector_equivalence(diagonal([1.0, 0.5]), np.zeros(2))
    assert rep.cond1 and rep.cond2 and rep.cond3 and rep.agree


def test_fixed_vector_equivalence_ambiguous_band():
    # residual inside [tol_fix/10, tol_fix*10] is flagged, not judged
    eps = 3e-8
    op = diagonal([1.0, 1.0 - eps])
    rep = check_fixed_vector_equivalence(op, np.array([0.0, 1.0]))
    assert rep.ambiguous
    assert rep.band == (1e-9, 1e-7)


def test_fixed_vector_equivalence_rejects_non_contraction():
    with pytest.raises(PreconditionError):
        check_fixed_vector_equivalence(diagonal([2.0, 0.5]), np.ones(2))


@given(seed=seeds(), dim=small_dims())
def test_fixed_vector_equivalence_random_eigenvectors(seed, dim):
    op, eigs, frame = random_contraction(dim, stream_rng(seed, 41))
    fixed = np.flatnonzero(eigs >= 1.0 - 1e-12)
    moving = np.flatnonzero(eigs <= 0.95)
    if fixed.size:
        rep = check_fixed_vector_equivalence(op, frame[:, fixed[0]])
        assert rep.cond1 and rep.cond2 and rep.cond3
    if moving.size:
        rep = check_fixed_vector_equivalence(op, frame[:, moving[0]])
        assert not (rep.cond1 or rep.cond2 or rep.cond3)


# ---------------------------------------------------------------------------
# Projection monotonicity


def test_projection_monotone_diagonal_pair():
    upper = diagonal([1.0, 1.0, 0.6])
    lower = diagonal([1.0, 0.5, 0.3])
    assert check_projection_monotone(lower, upper)


def test_projection_monotone_preconditions():
    with pytest.raises(PreconditionError, match="ordered"):
        check_projection_monotone(identity(2), diagonal([0.5, 0.5]))
    with pytest.raises(PreconditionError, match="contraction"):
        check_projection_monotone(diagonal([0.5, 0.5]), diagonal([1.5, 1.5]))


def test_projection_monotone_one_eigh_per_operand(eigensolve_counts):
    upper = diagonal([1.0, 1.0, 0.6])
    assert check_projection_monotone(diagonal([1.0, 0.5, 0.3]), upper)
    # one eigh per operand, one eigvalsh per Loewner comparison
    assert eigensolve_counts == {"eigh": 2, "eigvalsh": 2}
    # precondition order: lower operand, upper operand, then the ordering
    with pytest.raises(
        PreconditionError,
        match=r"^lower operand is not a positive contraction: "
        r"offending eigenvalue 1\.5$",
    ):
        check_projection_monotone(diagonal([1.5, 0.5]), diagonal([-0.5, 2.0]))
    with pytest.raises(
        PreconditionError,
        match=r"^upper operand is not a positive contraction: "
        r"offending eigenvalue -0\.5$",
    ):
        check_projection_monotone(diagonal([1.0, 0.5]), diagonal([-0.5, 1.0]))
    with pytest.raises(
        PreconditionError,
        match=r"^operands are not ordered: min eig of difference -0\.5$",
    ):
        check_projection_monotone(identity(2), diagonal([0.5, 0.5]))


@given(seed=seeds(), dim=small_dims())
def test_projection_monotone_random_shrink(seed, dim):
    rng = stream_rng(seed, 42)
    vals = np.sort(rng.uniform(0.0, 1.0, size=dim))[::-1]
    vals[0] = 1.0
    shrink = rng.uniform(0.3, 1.0, size=dim)
    upper = diagonal(vals)
    lower = diagonal(vals * shrink)
    assert check_projection_monotone(lower, upper)


# ---------------------------------------------------------------------------
# Intervals


def test_interval_tolerance_semantics():
    open_iv = open_interval(0.9, 1.0)
    assert open_iv.contains(0.95, DEFAULT.eig)
    assert not open_iv.contains(0.9, DEFAULT.eig)  # boundary pulled inward
    assert not open_iv.contains(1.0, DEFAULT.eig)
    closed_iv = closed_interval(0.9, 1.0)
    assert closed_iv.contains(0.9 - 1e-12, DEFAULT.eig)  # boundary pushed out
    with pytest.raises(ValueError):
        closed_interval(1.0, 0.5)
