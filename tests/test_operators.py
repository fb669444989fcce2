import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from contraction_lab import (
    DEFAULT,
    ContractionChain,
    DimensionMismatchError,
    GapSearchFailure,
    Operator,
    PreconditionError,
    certificate_search,
    check_fixed_vector_equivalence,
    check_projection_monotone,
    diagonal,
    fixed_point_projection,
    has_gap_at,
    identity,
    is_positive_contraction,
    loewner_leq,
    operator_from_dict,
    operator_to_dict,
    spectral_decompose,
)
from contraction_lab.chains import stream_rng
from contraction_lab.corpus import random_contraction
from contraction_lab.operators import fixed_space_rank

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


def old_hermitized(raw):
    """``Operator``'s former three-step construction: a cast copy, the
    hermitizing sum, then the division."""
    m = np.asarray(raw)
    dtype = np.complex128 if np.iscomplexobj(m) else np.float64
    m = m.astype(dtype, copy=True)
    return (m + m.conj().T) / 2.0


def raw_matrices():
    """Square matrices of real, complex and integer dtypes, some of them
    non-contiguous views (transposed, strided or Fortran-ordered)."""
    finite = {"allow_nan": False, "allow_infinity": False}
    elements = {
        np.float64: st.floats(-1e300, 1e300, **finite),
        np.float32: st.floats(-(2.0**100), 2.0**100, width=32, **finite),
        np.complex128: st.complex_numbers(max_magnitude=1e300, **finite),
        np.int64: st.integers(-(2**62), 2**62),
        np.int8: st.integers(-128, 127),
    }

    @st.composite
    def build(draw):
        dtype = draw(st.sampled_from(sorted(elements, key=str)))
        dim = draw(st.integers(1, 5))
        layouts = ["c", "transposed", "strided", "fortran"]
        layout = draw(st.sampled_from(layouts))
        rows = 2 * dim if layout == "strided" else dim
        base = draw(hnp.arrays(dtype, (rows, rows), elements=elements[dtype]))
        if layout == "transposed":
            return base.T
        if layout == "strided":
            return base[::2, ::2]
        if layout == "fortran":
            return np.asfortranarray(base)
        return base

    return build()


@given(raw=raw_matrices())
def test_operator_matches_three_step_hermitization(raw):
    before = raw.copy()
    expected = old_hermitized(raw)
    op = Operator(raw)
    assert op.entries.dtype == expected.dtype
    assert op.entries.tobytes() == expected.tobytes()
    assert op.entries.flags.c_contiguous
    assert not op.entries.flags.writeable
    assert not np.shares_memory(op.entries, raw)
    assert np.array_equal(raw, before)


@given(raw=raw_matrices(), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_operator_rejects_non_finite_entries(raw, bad):
    if not np.issubdtype(raw.dtype, np.inexact):
        raw = raw.astype(np.float64)
    raw = raw.copy()
    raw[-1, 0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        Operator(raw)


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
# The two clustering rules: the fixed space and the gap window

TOL = DEFAULT.eig
DELTA = 0.1

# (eigenvalue, counts as 1, inside the gap window of DELTA)
BOUNDARY_TABLE = [
    (1.0 + 2 * TOL, False, False),
    (1.0 + TOL, True, False),
    (1.0, True, False),
    (1.0 - 1e-12, True, False),
    (1.0 - TOL, True, False),
    (1.0 - 2 * TOL, False, True),
    (1.0 - DELTA / 2, False, True),
    (1.0 - DELTA + 2 * TOL, False, True),
    (1.0 - DELTA + TOL, False, False),
    (1.0 - DELTA, False, False),
    (0.5, False, False),
]

# 1 + 2 tol_eig passes the positivity check only with this much slack
WIDE_PSD = 1e-8


@pytest.mark.parametrize("value, fixed, in_window", BOUNDARY_TABLE)
def test_clustering_rules_boundary_table(value, fixed, in_window):
    op = diagonal([value, 0.25])
    decomp = spectral_decompose(op)
    # eigh of a diagonal matrix returns its entries exactly, so the rules
    # see the boundary values unrounded
    assert np.array_equal(decomp.eigenvalues, [0.25, value])
    proj = fixed_point_projection(op, tol_psd=WIDE_PSD)
    assert proj.rank == fixed_space_rank(decomp) == int(fixed)
    expected = np.diag([1.0, 0.0]) if fixed else np.zeros((2, 2))
    assert np.allclose(proj.matrix, expected, atol=1e-12)
    assert has_gap_at(op, DELTA) == (not in_window)


@example(values=[value for value, _, _ in BOUNDARY_TABLE])
@given(
    values=st.lists(
        st.sampled_from([value for value, _, _ in BOUNDARY_TABLE])
        | st.floats(min_value=0.0, max_value=1.0),
        min_size=1,
        max_size=8,
    )
)
def test_clustering_rules_match_scalar_loop(values):
    # the rules on whole spectra against a scalar loop over eigenvalues
    op = diagonal(values)
    decomp = spectral_decompose(op)
    fixed = [w for w in decomp.eigenvalues if 1.0 - TOL <= w <= 1.0 + TOL]
    inside = [
        w for w in decomp.eigenvalues if 1.0 - DELTA + TOL < w < 1.0 - TOL
    ]
    proj = fixed_point_projection(op, tol_psd=WIDE_PSD)
    assert proj.rank == fixed_space_rank(decomp) == len(fixed)
    assert has_gap_at(op, DELTA) == (not inside)
    if inside:
        # the reported violation is the largest eigenvalue in the window
        chain = ContractionChain(op.dim, "table", 1, lambda n: op)
        failure = certificate_search(chain, delta_grid=(DELTA,))
        assert isinstance(failure, GapSearchFailure)
        assert failure.violations[0].eigenvalue == max(inside)


def test_clustering_rules_empty_fixed_space():
    real = diagonal([0.5, 0.25])
    proj = fixed_point_projection(real)
    assert proj.rank == fixed_space_rank(spectral_decompose(real)) == 0
    assert proj.matrix.dtype == np.float64
    assert np.array_equal(proj.matrix, np.zeros((2, 2)))
    cplx = Operator(np.array([[0.5, 0.1j], [-0.1j, 0.25]]))
    proj = fixed_point_projection(cplx)
    assert proj.rank == fixed_space_rank(spectral_decompose(cplx)) == 0
    assert proj.matrix.dtype == np.complex128
    assert np.array_equal(proj.matrix, np.zeros((2, 2)))
