import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    spectral_decompose,
)
from contraction_lab.chains import stream_rng
from contraction_lab.corpus import random_contraction
from contraction_lab.operators import (
    _contraction_witness,
    _decreasing_certified,
    _fixed_space,
    _norms_certified,
    _rounding_bounds,
    _slack_verdict,
    loewner_margin,
)

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
    assert np.linalg.norm(d.entries, 2) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Spectral helpers


def test_spectral_decompose_reconstructs():
    rng = stream_rng(3, 99)
    a = rng.standard_normal((5, 5))
    op = Operator(a @ a.T)
    dec = spectral_decompose(op)
    v = dec.eigenvectors
    assert np.allclose((v * dec.eigenvalues) @ v.T, op.entries, atol=1e-10)
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


# the default PSD slack at dim 4, the table's dimension
PSD4 = DEFAULT.psd(4)

# (margin, tol_psd, verdict): True within tol_psd (the default when
# None), None where only a larger default covers the margin
SLACK_TABLE = [
    (1.0, None, True),
    (0.0, 0.0, True),
    (-PSD4, None, True),
    (-2 * PSD4, None, False),
    (-1e-14, 1e-14, True),
    (-2e-14, 1e-14, None),
    (-PSD4, 1e-14, None),
    (-PSD4, 0.0, None),
    (-2 * PSD4, 0.0, False),
    (-2 * PSD4, 2 * PSD4, True),
    (-3 * PSD4, 2 * PSD4, False),
]


@pytest.mark.parametrize("margin, tol_psd, verdict", SLACK_TABLE)
def test_slack_verdict_boundary_table(margin, tol_psd, verdict):
    assert _slack_verdict(margin, 4, tol_psd) is verdict


def test_fixed_point_projection():
    p = fixed_point_projection(diagonal([1.0, 1.0, 0.3]))
    assert p.rank == 2
    with pytest.raises(PreconditionError):
        fixed_point_projection(diagonal([1.5, 0.0]))


def test_fixed_point_projection_runs_one_eigh(monkeypatch):
    op, _, _ = random_contraction(6, stream_rng(3, 0))
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
    assert rep.tol_fix == DEFAULT.fix


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


def test_fixed_vector_equivalence_rejects_non_contraction(eigensolve_counts):
    with pytest.raises(
        PreconditionError,
        match=r"^not a positive contraction: offending eigenvalue 2\.0$",
    ):
        check_fixed_vector_equivalence(diagonal([2.0, 0.5]), np.ones(2))
    # a vector of another shape is refused before the positivity solve
    eigensolve_counts.reset()
    with pytest.raises(
        DimensionMismatchError, match=r"^vector of shape \(3,\) does not"
    ):
        check_fixed_vector_equivalence(diagonal([2.0, 0.5]), np.ones(3))
    assert eigensolve_counts == {
        "eigh": 0, "eigvalsh": 0, "cholesky": 0, "qr": 0, "svd": 0,
    }


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
    check = check_projection_monotone(lower, upper)
    # P - P' = diag(0, 1, 0)
    assert check and check.witness == 0.0


def test_projection_monotone_preconditions():
    with pytest.raises(PreconditionError, match="ordered"):
        check_projection_monotone(identity(2), diagonal([0.5, 0.5]))
    with pytest.raises(PreconditionError, match="contraction"):
        check_projection_monotone(diagonal([0.5, 0.5]), diagonal([1.5, 1.5]))


def test_projection_monotone_one_eigh_per_operand(eigensolve_counts):
    upper = diagonal([1.0, 1.0, 0.6])
    assert check_projection_monotone(diagonal([1.0, 0.5, 0.3]), upper)
    # one eigh per operand, one eigvalsh per Loewner comparison
    assert eigensolve_counts == {
        "eigh": 2, "eigvalsh": 2, "cholesky": 0, "qr": 0, "svd": 0,
    }
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
        match=r"^operands are not ordered: min eig of upper - lower -0\.5$",
    ):
        check_projection_monotone(identity(2), diagonal([0.5, 0.5]))


def test_projection_monotone_refuses_a_failure_only_a_coarse_tol_eig_made(
    eigensolve_counts,
):
    # lower = 0.995 v v^T <= upper = diag(1, 0.995, 0.5) with v tilted
    # towards e3: at tol_eig 0.01 both 0.995 count as 1, and span(v) is
    # not inside span(e1, e2), but the theorem is about eigenvalue 1 only
    tilt = math.sqrt(0.004)
    v = np.array([math.sqrt(1.0 - tilt**2), 0.0, tilt])
    upper = diagonal([1.0, 0.995, 0.5])
    lower = Operator(0.995 * np.outer(v, v))
    assert check_projection_monotone(lower, upper)
    eigensolve_counts.reset()
    with pytest.raises(
        PreconditionError,
        match=r"^lower operand eigenvalue 0\.99\d* counts as 1 only at "
        r"tol_eig 0\.01: the projection comparison \(min eig of P - P' "
        r"-0\.\d+(e-\d+)?\) proves nothing$",
    ):
        check_projection_monotone(lower, upper, tol_eig=0.01)
    # the refusal reads the eigenvalues the check computed
    assert eigensolve_counts == {
        "eigh": 2, "eigvalsh": 2, "cholesky": 0, "qr": 0, "svd": 0,
    }
    # a failure with no eigenvalue in [1 - tol_eig, 1 - DEFAULT.eig) is
    # still a failure: e3 is fixed by lower and not by upper, which only a
    # wide tol_psd lets pass as ordered
    check = check_projection_monotone(
        diagonal([0.0, 0.0, 1.0]), diagonal([1.0, 1.0, 0.999]),
        tol_eig=1e-4, tol_psd=0.01,
    )
    assert not check and check.witness == -1.0


def test_projection_monotone_refuses_a_failure_only_a_fine_tol_eig_made(
    eigensolve_counts,
):
    # lower = diag(1, 0.5) <= upper = diag(1 - 1e-12, 0.6) within the
    # default slack: at tol_eig 0 upper's top eigenvalue is not 1, so P'
    # = e1 e1^T is not below P = 0, but only rounding tells 1 - 1e-12
    # from 1, and the default tol_eig counts it as 1
    lower = diagonal([1.0, 0.5])
    upper = diagonal([1.0 - 1e-12, 0.6])
    assert check_projection_monotone(lower, upper)
    eigensolve_counts.reset()
    with pytest.raises(
        PreconditionError,
        match=r"^upper operand eigenvalue 0\.999999999999 counts as 1 only at "
        r"the default tol_eig, not at 0\.0: the projection comparison \(min "
        r"eig of P - P' -1\.0\) proves nothing$",
    ):
        check_projection_monotone(lower, upper, tol_eig=0.0)
    assert eigensolve_counts == {
        "eigh": 2, "eigvalsh": 2, "cholesky": 0, "qr": 0, "svd": 0,
    }
    # with a band eigenvalue in both operands the lower one is named first
    lower = diagonal([1.0, 1.0 - 1e-12, 0.0])
    upper = diagonal([1.0 - 1e-12, 1.0 - 1e-12, 0.5])
    with pytest.raises(PreconditionError, match=r"^lower operand eigenvalue"):
        check_projection_monotone(lower, upper, tol_eig=0.0)


def test_eig_band_is_the_eigenvalues_the_two_tolerances_cluster_apart():
    from contraction_lab.operators import _eig_band

    w = np.array([0.2, 0.6, 0.99, 1.0 - 1e-12, 1.0 - 1e-13, 1.0])
    assert _eig_band(w, DEFAULT.eig) is None
    # coarser: [1 - tol_eig, 1 - DEFAULT.eig)
    assert _eig_band(w, 0.5) == 0.99
    assert _eig_band(w, 0.8) == 0.99
    assert _eig_band(w, 1e-3) is None
    # finer: [1 - DEFAULT.eig, 1 - tol_eig)
    assert _eig_band(w, 0.0) == 1.0 - 1e-13
    assert _eig_band(w, 5e-13) == 1.0 - 1e-12
    assert _eig_band(w[:3], 0.0) is None
    # an eigenvalue of 0 is in the band of tol_eig 1, and is its witness
    assert _eig_band(np.array([0.0, 1.0]), 1.0) == 0.0
    # a projection carries the band of the solve it was built from
    op = diagonal([1.0, 0.6])
    assert fixed_point_projection(op).band is None
    assert fixed_point_projection(op, tol_eig=0.5).band == 0.6
    assert fixed_point_projection(diagonal([1.0 - 1e-12]), tol_eig=0.0).band


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

# positivity slack of the table's operators; up to 1 + WIDE_PSD an
# eigenvalue passes the positivity check, which bounds the fixed-space
# rule from above
WIDE_PSD = 1e-8

# (eigenvalue, counts as 1 or None where the positivity check refuses
# the operator, inside the gap window of DELTA)
BOUNDARY_TABLE = [
    (1.0 + 2 * WIDE_PSD, None, False),
    (1.0 + WIDE_PSD, True, False),
    (1.0 + 2 * TOL, True, False),
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

# the table's values that pass the positivity check
CONTRACTION_VALUES = [v for v, fixed, _ in BOUNDARY_TABLE if fixed is not None]


@pytest.mark.parametrize("value, fixed, in_window", BOUNDARY_TABLE)
def test_clustering_rules_boundary_table(value, fixed, in_window):
    op = diagonal([value, 0.25])
    decomp = spectral_decompose(op)
    # eigh of a diagonal matrix returns its entries exactly, so the rules
    # see the boundary values unrounded
    assert np.array_equal(decomp.eigenvalues, [0.25, value])
    if fixed is None:
        with pytest.raises(PreconditionError, match="not a positive"):
            fixed_point_projection(op, tol_psd=WIDE_PSD)
        with pytest.raises(PreconditionError, match="not a positive"):
            has_gap_at(op, DELTA, tol_psd=WIDE_PSD)
        return
    assert has_gap_at(op, DELTA, tol_psd=WIDE_PSD) == (not in_window)
    proj = fixed_point_projection(op, tol_psd=WIDE_PSD)
    assert proj.rank == _fixed_space(decomp, TOL, WIDE_PSD).shape[1] == fixed
    expected = np.diag([1.0, 0.0]) if fixed else np.zeros((2, 2))
    assert np.allclose(proj.matrix, expected, atol=1e-12)


def test_eigenvalue_between_tolerances_is_fixed():
    # at dim 16 the default tol_psd (1.6e-9) exceeds tol_eig (1e-9):
    # 1 + 1.5e-9 passes the positivity check and lies in no gap window,
    # so it must count as 1
    op = diagonal([1.0 + 1.5e-9] + [0.5] * 15)
    assert is_positive_contraction(op)
    assert fixed_point_projection(op).rank == 1
    # the reader's default slack is the same dim-scaled one
    assert _fixed_space(spectral_decompose(op), TOL, None).shape[1] == 1
    assert has_gap_at(op, DELTA)


@example(values=CONTRACTION_VALUES)
@given(
    values=st.lists(
        st.sampled_from(CONTRACTION_VALUES)
        | st.floats(min_value=0.0, max_value=1.0),
        min_size=1,
        max_size=8,
    )
)
def test_clustering_rules_match_scalar_loop(values):
    # the rules on whole spectra against a scalar loop over eigenvalues
    op = diagonal(values)
    decomp = spectral_decompose(op)
    fixed = [w for w in decomp.eigenvalues if w >= 1.0 - TOL]
    inside = [
        w for w in decomp.eigenvalues if 1.0 - DELTA + TOL < w < 1.0 - TOL
    ]
    proj = fixed_point_projection(op, tol_psd=WIDE_PSD)
    assert proj.rank == _fixed_space(decomp, TOL, WIDE_PSD).shape[1]
    assert proj.rank == len(fixed)
    assert has_gap_at(op, DELTA, tol_psd=WIDE_PSD) == (not inside)
    if inside:
        # the reported violation is the largest eigenvalue in the window
        chain = ContractionChain(op.dim, "table", 1, lambda n: op)
        failure = certificate_search(
            chain, delta_grid=(DELTA,), tol_psd=WIDE_PSD
        )
        assert isinstance(failure, GapSearchFailure)
        assert failure.violations[0].eigenvalue == max(inside)


def test_clustering_rules_empty_fixed_space():
    real = diagonal([0.5, 0.25])
    proj = fixed_point_projection(real)
    space = _fixed_space(spectral_decompose(real), TOL, None)
    assert proj.rank == space.shape[1] == 0
    assert proj.matrix.dtype == np.float64
    assert np.array_equal(proj.matrix, np.zeros((2, 2)))
    cplx = Operator(np.array([[0.5, 0.1j], [-0.1j, 0.25]]))
    proj = fixed_point_projection(cplx)
    space = _fixed_space(spectral_decompose(cplx), TOL, None)
    assert proj.rank == space.shape[1] == 0
    assert proj.matrix.dtype == np.complex128
    assert np.array_equal(proj.matrix, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Norm and order certificates: Cholesky proofs of the SVD and eigvalsh rules

CERTIFICATE_DIMS = [1, 2, 16, 128]
UNIT_ROUNDOFF = 2.0**-53


def haar_frame(rng, dim, is_complex):
    gauss = rng.standard_normal((dim, dim))
    if is_complex:
        gauss = gauss + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(gauss)[0]


def exact_entries(matrix):
    """Each entry of a small matrix as exact ``(real, imag)`` fractions."""
    return [
        [(Fraction(complex(z).real), Fraction(complex(z).imag)) for z in row]
        for row in matrix
    ]


def exact_gram(matrix):
    """``S* S`` of a small matrix, exactly, as ``(real, imag)`` pairs."""
    s = exact_entries(matrix)
    n = len(s)

    def entry(i, j):
        re = im = Fraction(0)
        for k in range(n):
            (a, b), (c, d) = s[k][i], s[k][j]
            re += a * c + b * d  # conj(a + bi) (c + di)
            im += a * d - b * c
        return re, im

    return [[entry(i, j) for j in range(n)] for i in range(n)]


def exact_psd(h):
    """Whether a Hermitian matrix of dim 1 or 2, given as exact
    ``(real, imag)`` pairs, is positive semidefinite."""
    if len(h) == 1:
        return h[0][0][0] >= 0
    (a, _), (b_re, b_im) = h[0]
    _, (d, _) = h[1]
    return a >= 0 and d >= 0 and a * d >= b_re**2 + b_im**2


def shifted(h, t, sign):
    """``sign * (h - t I)`` of exact pairs."""
    return [
        [(sign * (re - (t if i == j else 0)), sign * im)
         for j, (re, im) in enumerate(row)]
        for i, row in enumerate(h)
    ]


def placed(edge, unit, j, rho):
    """``edge`` moved by ``j`` of its own ulps or ``j`` times ``rho``."""
    return edge + j * (np.spacing(edge) if unit == "ulp" else rho)


def near_edge_moves():
    # 0-4 ulps either side, or 1-4 rho either side
    return st.one_of(
        st.tuples(st.just("ulp"), st.integers(-4, 4)),
        st.tuples(
            st.just("rho"),
            st.integers(1, 4).flatmap(lambda j: st.sampled_from([-j, j])),
        ),
    )


@st.composite
def edge_products(draw):
    """A stack of 1-3 products ``S = U diag(sigma) V*`` at one dim, real
    or complex, each with its top singular value placed by
    :func:`near_edge_moves` around ``1 + tol`` (by ulps only at 1e300,
    where ``rho`` is as huge as ``S``) and the rest below it, with ``tol``
    the chain's slack, 1e-14, 0 or 1e300."""
    dim = draw(st.sampled_from(CERTIFICATE_DIMS))
    tol = draw(st.sampled_from([DEFAULT.psd(dim), 1e-14, 0.0, 1e300]))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(draw(st.integers(1, 3))):
        unit, j = draw(near_edge_moves())
        if tol == 1e300:
            unit = "ulp"
        rest = rng.uniform(0.0, 1.0, dim - 1)
        rho = 4.0 * dim * dim * UNIT_ROUNDOFF * math.sqrt(
            (1.0 + tol) ** 2 + float(rest @ rest)
        ) if unit == "rho" else 0.0
        top = placed(1.0 + tol, unit, j, rho)
        sigma = np.concatenate(([top], rest * top))
        u = haar_frame(rng, dim, is_complex)
        v = haar_frame(rng, dim, is_complex)
        members.append((u * sigma) @ v.conj().T)
    return np.stack(members), tol


def svd_rule(stack, tol):
    """``trace_summary``'s norm verdict without the certificate: each
    member's SVD norm judged by ``_slack_verdict`` at ``tol``."""
    dim = stack.shape[-1]
    return [
        _slack_verdict(1.0 - float(norm), dim, tol) is True
        for norm in np.linalg.norm(stack, 2, axis=(1, 2))
    ]


@settings(max_examples=max(150, settings.default.max_examples))
@given(case=edge_products())
def test_norm_certificate_implies_the_svd_rule(case):
    # the stack as one block, and each member as a block of its own
    stack, tol = case
    rule = svd_rule(stack, tol)
    kept = stack.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning at 1e300
        certified = _norms_certified(stack, tol)
        alone = [_norms_certified(member[None], tol) for member in stack]
    assert np.array_equal(stack, kept)  # the products are only read
    if certified:
        assert all(rule)
    for member, passes, proved in zip(stack, rule, alone):
        if not proved:
            continue
        assert passes
        if len(member) <= 2:
            # what the factorization proves: ||S||_2 <= 1 + tol - rho
            rho = _rounding_bounds(member)[0]
            reach = 1 + Fraction(tol) - Fraction(rho)
            assert exact_psd(shifted(exact_gram(member), reach**2, -1))
    if tol == 1e300:  # (1 + tol)^2 overflows
        assert not certified and not any(alone)
    if tol == 0.0:  # no room at a top singular value within ulps of 1;
        # one 1-4 rho below 1 may be certified at the larger dims
        norms = np.linalg.norm(stack, 2, axis=(1, 2))
        near = norms >= 1.0 - 8 * UNIT_ROUNDOFF
        assert not np.any(near & np.array(alone))
        assert not (certified and near.any())


@st.composite
def edge_orders(draw):
    """A block of 2-4 steps ``T_1, T_2, ..`` at one dim, real or
    complex: the last has its eigenvalues in ``[0.25, 0.75]``, and each
    difference ``T_n - T_{n+1}`` its least eigenvalue placed by
    :func:`near_edge_moves` around ``-tol`` (by ulps only at 1e300) and
    the rest in ``[0, 0.08]``, with ``tol`` as in :func:`edge_products`."""
    dim = draw(st.sampled_from(CERTIFICATE_DIMS))
    tol = draw(st.sampled_from([DEFAULT.psd(dim), 1e-14, 0.0, 1e300]))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = haar_frame(rng, dim, is_complex)
    last = rng.uniform(0.25, 0.75, dim)
    steps = [Operator((frame * last) @ frame.conj().T)]
    for _ in range(draw(st.integers(1, 3))):
        unit, j = draw(near_edge_moves())
        if tol == 1e300:
            unit = "ulp"
        rest = rng.uniform(0.0, 0.08, dim - 1)
        rho = 4.0 * dim * dim * UNIT_ROUNDOFF * math.sqrt(
            tol * tol + float(rest @ rest)
        ) if unit == "rho" else 0.0
        values = np.concatenate(([placed(-tol, unit, j, rho)], rest))
        frame = haar_frame(rng, dim, is_complex)
        decrement = (frame * values) @ frame.conj().T
        steps.insert(0, Operator(steps[0].entries + decrement))
    return np.stack([step.entries for step in steps]), tol


@settings(max_examples=max(150, settings.default.max_examples))
@given(case=edge_orders())
def test_order_certificate_implies_the_eigvalsh_rules(case):
    steps, tol = case
    upper, lower = steps[:-1], steps[1:]
    contractions = [
        bool(_contraction_witness(eigs, tol))
        for eigs in np.linalg.eigvalsh(steps)
    ]
    margins = loewner_margin(upper, lower)
    kept = steps.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning at 1e300
        certified = _decreasing_certified(steps, upper, lower, tol)
        pairs = [
            _decreasing_certified(steps[k : k + 2], upper[k : k + 1],
                                  lower[k : k + 1], tol)
            for k in range(len(upper))
        ]
    assert np.array_equal(steps, kept)  # the steps are only read
    if certified:
        assert all(contractions) and np.all(margins >= -tol)
    for k, proved in enumerate(pairs):
        if not proved:
            continue
        assert contractions[k] and contractions[k + 1]
        assert margins[k] >= -tol
        difference = upper[k] - lower[k]
        if len(difference) <= 2:
            # what the factorization proves: D >= (rho - tol) I
            rho = _rounding_bounds(difference)[0]
            floor = Fraction(rho) - Fraction(tol)
            assert exact_psd(shifted(exact_entries(difference), floor, 1))
    if tol in (0.0, 1e300):  # no room at the eigenvalues 0 and 1
        assert not certified and not any(pairs)


@pytest.mark.parametrize("dim", CERTIFICATE_DIMS)
@pytest.mark.parametrize("is_complex", [False, True])
def test_certificates_pass_a_decreasing_block_at_the_chain_slack(
    dim, is_complex
):
    # steps with eigenvalues at 1 (a shared fixed space) and spread in
    # [0, 1], decreasing by spread decrements: their products and their
    # order are certified; one pair that rises by twice the slack, or one
    # product scaled to norm 1 + 2 slack, makes the whole block decline
    slack = DEFAULT.psd(dim)
    rng = np.random.default_rng(dim)
    frame = haar_frame(rng, dim, is_complex)
    top = np.linspace(1.0, 0.5, dim)
    values = [top * 0.9**n for n in range(4)]
    for v in values:
        v[0] = 1.0
    steps = np.stack(
        [Operator((frame * v) @ frame.conj().T).entries for v in values]
    )
    upper, lower = steps[:-1], steps[1:]
    assert _decreasing_certified(steps, upper, lower, slack)
    products_ = [steps[0]]
    for step in steps[1:]:
        products_.append(step @ products_[-1])
    products_ = np.stack(products_)
    assert _norms_certified(products_, slack)
    risen = upper.copy()
    risen[1] = lower[1] - 2 * slack * np.eye(dim)
    assert not _decreasing_certified(steps, risen, lower, slack)
    products_[2] *= 1.0 + 2 * slack
    assert not _norms_certified(products_, slack)


def exact_sqrt_above(value):
    """The least float whose square is at least the exact ``value``."""
    root = math.sqrt(float(value))
    while Fraction(root) ** 2 < value:
        root = np.nextafter(root, np.inf)
    while Fraction(np.nextafter(root, 0.0)) ** 2 >= value:
        root = np.nextafter(root, 0.0)
    return float(root)


@pytest.mark.parametrize("tol", [DEFAULT.psd(2), 1e-14])
def test_norm_certificate_holds_at_its_exact_bound(tol):
    # S = [[p, q], [0, r]] with r a few ulps either side of the value that
    # puts ||S||_2 exactly at the bound the factorization proves, 1 + tol
    # - rho: a True must keep the exact S* S below (1 + tol - rho)^2
    rng = np.random.default_rng(7)
    outside = 0
    for _ in range(200):
        p, q = rng.uniform(0.3, 0.7), rng.uniform(-0.4, 0.4)
        r = 1.0
        for _ in range(2):  # rho moves with r by far less than an ulp
            s = np.array([[[p, q], [0.0, r]]])
            rho = _rounding_bounds(s)[0]
            t = (1 + Fraction(tol) - Fraction(rho)) ** 2
            x, y = Fraction(p), Fraction(q)
            r = exact_sqrt_above(t - y * y - x * x * y * y / (t - x * x))
        for j in range(-2, 4):
            member = np.array([[p, q], [0.0, r + j * np.spacing(r)]])
            holds = exact_psd(shifted(exact_gram(member), t, -1))
            outside += not holds
            if _norms_certified(member[None], tol):
                assert holds
    assert outside > 200  # the cases straddle the bound


@pytest.mark.parametrize("tol", [DEFAULT.psd(2), 1e-14])
def test_order_certificate_holds_at_its_exact_bound(tol):
    # D = [[a, b], [b, d]] with d a few units of 2^-53 either side of the
    # value that puts D's least eigenvalue exactly at the bound the
    # factorization proves, rho - tol; T_n = 0.5 I + D and T_{n+1} = 0.5 I
    # give back D exactly.  A True must keep D - (rho - tol) I >= 0
    rng = np.random.default_rng(11)
    grain = 2.0**-53
    lower = 0.5 * np.eye(2)
    outside = 0
    for _ in range(200):
        a = round(rng.uniform(0.01, 0.08) / grain) * grain
        b = rng.uniform(-0.04, 0.04)
        d = 0.05
        for _ in range(2):  # rho moves with d by far less than a grain
            diff = np.array([[[a, b], [b, d]]])
            rho = _rounding_bounds(diff)[0]
            t = Fraction(rho) - Fraction(tol)
            exact = t + Fraction(b) ** 2 / (Fraction(a) - t)
            d = math.ceil(exact / Fraction(grain)) * grain
        for j in range(-2, 4):
            difference = np.array([[a, b], [b, d + j * grain]])
            upper = lower + difference
            assert np.array_equal(upper - lower, difference)
            holds = exact_psd(shifted(exact_entries(difference), t, 1))
            outside += not holds
            steps = np.stack((upper, lower))
            if _decreasing_certified(steps, steps[:1], steps[1:], tol):
                assert holds
    assert outside > 200  # the cases straddle the bound
