"""Finite-dimensional Hermitian operators and their spectral calculus.

The objects here are the vocabulary for everything else in the package:
positive contractions ``0 <= T <= I``, their fixed-space projections, and
the handful of order-theoretic checks the product experiments rely on.

Numerical conventions
---------------------
* Matrices are hermitized on construction: ``(M + M*) / 2``.  This makes
  the Hermitian property exact in floating point, so ``eigh`` semantics
  are unambiguous.
* An eigenvalue ``lambda`` of a positive contraction counts as 1 iff
  ``lambda >= 1 - tol_eig``; the positivity check already bounds it by
  ``1 + tol_psd``.  One reader, ``_fixed_space``, applies that check and
  this rule to an eigendecomposition.  :func:`fixed_point_projection`,
  :func:`check_projection_monotone`, the rank and step projections of
  :mod:`contraction_lab.gaps` and the per-step fixed-space ranks of
  :mod:`contraction_lab.products` all read the fixed space through it,
  so "rank of the fixed space" always means the same thing everywhere.
  One formatter, ``_not_a_contraction``, words every refusal of the
  positivity check in this module, :mod:`contraction_lab.products` and
  :mod:`contraction_lab.gaps`, naming the step or operand refused; the
  Schur generator of :mod:`contraction_lab.chains` words its own
  refusals of a starting operator or a decrement as a
  ``ChainGenerationError``.  ``_not_ordered`` words every refusal of an
  operand pair that is not ordered.
  The gap window of :mod:`contraction_lab.gaps` is the other rule: it
  holds the eigenvalues with ``1 - delta + tol_eig < lambda < 1 - tol_eig``.
  ``_eig_band`` reads from the same solve the largest eigenvalue that
  ``tol_eig`` and ``DEFAULT.eig`` cluster differently, and the one
  builder of projections, ``_fixed_projection``, keeps it as the band
  witness: as with ``_slack_verdict`` for ``tol_psd``, a verdict on a
  fixed space that fails with one is inconclusive, and one that holds
  stands.
* Real symmetric input stays real (``float64``); anything with an
  imaginary part is handled as ``complex128``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import DEFAULT
from .errors import (
    DimensionMismatchError,
    EigensolverError,
    PreconditionError,
)

__all__ = [
    "Operator",
    "SpectralDecomposition",
    "Projection",
    "Witnessed",
    "FixedVectorReport",
    "identity",
    "diagonal",
    "spectral_decompose",
    "hermitian_eigenvalues",
    "fixed_point_projection",
    "is_positive_contraction",
    "loewner_leq",
    "loewner_margin",
    "check_fixed_vector_equivalence",
    "check_projection_monotone",
]


@dataclass(frozen=True, eq=False)
class Operator:
    """A Hermitian matrix, hermitized and validated on construction."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] == 0:
            raise ValueError("empty matrices are not supported")
        h = _hermitized(m)
        h.setflags(write=False)
        object.__setattr__(self, "entries", h)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _hermitized(m: np.ndarray) -> np.ndarray:
    """``(M + M*) / 2`` of a square matrix, or of each matrix of a
    ``(k, dim, dim)`` stack, in ``complex128`` if ``M`` is complex and
    ``float64`` otherwise.

    One new array: M* cast to that dtype, then M added and the sum
    halved in place.  This is ``(M + M*) / 2`` computed in that dtype,
    bit for bit: ``* 0.5`` rounds as ``/ 2.0`` does.  Raises
    ``ValueError`` on an entry of the result that is not finite, which
    an entry of ``M`` that is not finite gives, as does a sum that
    overflows (``M[i, j] + M[j, i]`` of two entries near the largest
    float).
    """
    dtype = np.complex128 if np.iscomplexobj(m) else np.float64
    h = np.empty(m.shape, dtype=dtype)
    np.copyto(h, m.swapaxes(-1, -2), casting="unsafe")
    if dtype is np.complex128:
        np.conjugate(h, out=h)
    np.add(m, h, out=h, dtype=dtype, casting="unsafe")
    h *= 0.5
    if not np.isfinite(h).all():
        raise ValueError(
            "operator entries must be finite, as must (M + M*) / 2"
        )
    return h


def _stored_operator(entries: np.ndarray) -> Operator:
    """An :class:`Operator` over entries that are already hermitized and
    read-only, such as a chain's stored step, taken without a copy."""
    op = object.__new__(Operator)
    object.__setattr__(op, "entries", entries)
    return op


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim))


def diagonal(values: Iterable[float]) -> Operator:
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("diagonal needs a nonempty 1-d value list")
    return Operator(np.diag(vals))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues in ascending order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]


@dataclass(frozen=True, eq=False)
class Projection:
    """An orthogonal projection together with its rank, and the band
    witness :func:`_eig_band` read from the eigenvalues it was built
    from (None when it found none)."""

    operator: Operator
    rank: int
    band: float | None = None

    @property
    def matrix(self) -> np.ndarray:
        return self.operator.entries


@dataclass(frozen=True)
class Witnessed:
    """A boolean verdict plus the number that decided it: None when no
    solved number did, because a Cholesky certificate of
    :mod:`contraction_lab.certify` proved the verdict
    (``products.is_decreasing``) or there was nothing to compare."""

    ok: bool
    witness: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def _eigh(matrix: np.ndarray):
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed: {exc}") from exc


def _eigvalsh(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed: {exc}") from exc


def spectral_decompose(op: Operator) -> SpectralDecomposition:
    """Full Hermitian eigendecomposition, eigenvalues ascending."""
    w, v = _eigh(op.entries)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def hermitian_eigenvalues(op: Operator) -> np.ndarray:
    """Eigenvalues only, ascending."""
    return _eigvalsh(op.entries)


def _not_a_contraction(
    witness: float, subject: str | None = None
) -> PreconditionError:
    """The one wording of a refused positive contraction, naming
    ``subject`` (a step, an operand) when there is one."""
    named = "" if subject is None else f"{subject} is "
    return PreconditionError(
        f"{named}not a positive contraction: offending eigenvalue {witness}"
    )


def _not_ordered(witness: float) -> PreconditionError:
    """The one wording of a refused order ``lower <= upper``."""
    return PreconditionError(
        f"operands are not ordered: min eig of upper - lower {witness}"
    )


def _fixed_space(
    decomp: SpectralDecomposition,
    tol_eig: float,
    tol_psd: float | None,
    subject: str | None = None,
) -> np.ndarray:
    """The fixed space of a decomposed positive contraction as the
    columns of a new ``dim x rank`` array.

    Checks ``0 <= T <= I`` up to ``tol_psd`` (``DEFAULT.psd(dim)`` when
    None) and raises :func:`_not_a_contraction`'s refusal of ``subject``
    (a step, an operand) otherwise, then keeps the eigenvectors whose
    eigenvalues count as 1 under the clustering rule.
    """
    tol = _psd_slack(decomp.dim, tol_psd)
    check = _contraction_witness(decomp.eigenvalues, tol)
    if not check:
        raise _not_a_contraction(check.witness, subject)
    return decomp.eigenvectors[:, decomp.eigenvalues >= 1.0 - tol_eig]


def _eig_band(eigenvalues: np.ndarray, tol_eig: float) -> float | None:
    """The largest eigenvalue in ``[1 - tol_eig, 1 - DEFAULT.eig)`` under
    a coarser ``tol_eig``, in ``[1 - DEFAULT.eig, 1 - tol_eig)`` under a
    finer one: one that the two cluster differently.  None if none."""
    low, high = sorted((1.0 - tol_eig, 1.0 - DEFAULT.eig))
    band = eigenvalues[(eigenvalues >= low) & (eigenvalues < high)]
    return float(band.max()) if band.size else None


def _fixed_projection(
    decomp: SpectralDecomposition, tol_eig: float, tol_psd: float | None,
    subject: str | None = None,
) -> Projection:
    """The projection onto :func:`_fixed_space`'s basis (which refuses
    ``subject``) with :func:`_eig_band`'s witness as its ``band``."""
    space = _fixed_space(decomp, tol_eig, tol_psd, subject)
    # with no columns the product is the zero matrix of the basis dtype
    op = Operator(space @ space.conj().T)
    return Projection(op, space.shape[1], _eig_band(decomp.eigenvalues, tol_eig))


def _contraction_witness(eigenvalues: np.ndarray, tol: float) -> Witnessed:
    low, high = float(eigenvalues[0]), float(eigenvalues[-1])
    if low < -tol:
        return Witnessed(False, low)
    if high > 1.0 + tol:
        return Witnessed(False, high)
    return Witnessed(True, None)


def _psd_slack(dim: int, tol_psd: float | None) -> float:
    """``tol_psd``, or the default slack ``DEFAULT.psd(dim)`` when None."""
    return DEFAULT.psd(dim) if tol_psd is None else tol_psd


def _slack_verdict(
    margin: float, dim: int, tol_psd: float | None
) -> bool | None:
    """True when ``margin >= -tol_psd`` (``DEFAULT.psd(dim)`` when None).
    None when only the larger default slack of ``dim`` covers ``margin``:
    it absorbs rounding, so such a failure proves nothing.  Else False."""
    if margin >= -_psd_slack(dim, tol_psd):
        return True
    return None if margin >= -DEFAULT.psd(dim) else False


def is_positive_contraction(
    op: Operator, *, tol_psd: float | None = None
) -> Witnessed:
    """Check ``0 <= T <= I`` up to PSD slack.

    On failure the witness is the offending eigenvalue.
    """
    tol = _psd_slack(op.dim, tol_psd)
    return _contraction_witness(_eigvalsh(op.entries), tol)


def fixed_point_projection(
    op: Operator,
    *,
    tol_eig: float = DEFAULT.eig,
    tol_psd: float | None = None,
) -> Projection:
    """Projection onto the fixed-point space of a positive contraction.

    The eigenvectors kept are those whose eigenvalues count as 1 under
    the clustering rule.  Rejects operators that are not positive
    contractions.  One ``eigh`` serves both the positivity check and the
    projection.
    """
    return _fixed_projection(spectral_decompose(op), tol_eig, tol_psd)


def loewner_leq(
    a: Operator, b: Operator, *, tol_psd: float | None = None
) -> Witnessed:
    """Whether ``A <= B`` in the Loewner order, up to PSD slack.

    The witness is the smallest eigenvalue of ``B - A`` either way.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"cannot compare operators of dims {a.dim} and {b.dim}"
        )
    smallest = float(loewner_margin(b.entries, a.entries))
    return Witnessed(smallest >= -_psd_slack(a.dim, tol_psd), smallest)


def loewner_margin(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of ``upper - lower`` for Hermitian matrices, or
    for each pair of two stacks of them; ``lower <= upper`` iff it is
    ``>= 0``."""
    return _eigvalsh(upper - lower)[..., 0]


@dataclass(frozen=True)
class FixedVectorReport:
    """Three equivalent fixed-vector conditions, each with its residual.

    For a positive contraction the conditions ``T xi = xi``,
    ``||T xi|| = ||xi||`` and ``<T xi, xi> = ||xi||^2`` agree exactly.
    Thresholded at ``tol_fix`` they can only be trusted to agree when no
    residual lands inside the ambiguity band; near-fixed vectors make the
    norm residual second-order small, which is precisely why the band is
    reported instead of resolved.
    """

    cond1: bool
    cond2: bool
    cond3: bool
    r1: float
    r2: float
    r3: float
    tol_fix: float

    @property
    def residuals(self) -> tuple[float, float, float]:
        return (self.r1, self.r2, self.r3)

    @property
    def band(self) -> tuple[float, float]:
        return (self.tol_fix / 10.0, self.tol_fix * 10.0)

    @property
    def in_band(self) -> tuple[bool, bool, bool]:
        lo, hi = self.band
        return tuple(lo <= r <= hi for r in self.residuals)

    @property
    def ambiguous(self) -> bool:
        return any(self.in_band)

    @property
    def agree(self) -> bool:
        return self.cond1 == self.cond2 == self.cond3


def check_fixed_vector_equivalence(
    op: Operator,
    vector: np.ndarray,
    *,
    tol_psd: float | None = None,
) -> FixedVectorReport:
    """Evaluate the three fixed-vector conditions with relative residuals,
    each thresholded at ``DEFAULT.fix``.

    The zero vector satisfies all three trivially.  Rejects a vector of
    another shape, then, with one ``eigvalsh``, operators that are not
    positive contractions, since the equivalence is only a theorem for
    those.
    """
    xi = np.asarray(vector)
    if xi.shape != (op.dim,):
        raise DimensionMismatchError(
            f"vector of shape {xi.shape} does not match dim {op.dim}"
        )
    check = is_positive_contraction(op, tol_psd=tol_psd)
    if not check:
        raise _not_a_contraction(check.witness)
    tol_fix = DEFAULT.fix
    norm_xi = float(np.linalg.norm(xi))
    if norm_xi == 0.0:
        return FixedVectorReport(True, True, True, 0.0, 0.0, 0.0, tol_fix)
    t_xi = op.entries @ xi
    r1 = float(np.linalg.norm(t_xi - xi)) / norm_xi
    r2 = abs(float(np.linalg.norm(t_xi)) - norm_xi) / norm_xi
    # <T xi, xi> is real for Hermitian T up to roundoff
    quad = float(np.real(np.vdot(xi, t_xi)))
    r3 = abs(quad - norm_xi**2) / norm_xi**2
    return FixedVectorReport(
        cond1=r1 <= tol_fix,
        cond2=r2 <= tol_fix,
        cond3=r3 <= tol_fix,
        r1=r1,
        r2=r2,
        r3=r3,
        tol_fix=tol_fix,
    )


def check_projection_monotone(
    t_lower: Operator,
    t_upper: Operator,
    *,
    tol_eig: float = DEFAULT.eig,
    tol_psd: float | None = None,
) -> Witnessed:
    """Whether the fixed spaces satisfy ``P' <= P`` for ``T' <= T``.

    Preconditions (both operators are positive contractions and the
    ordering holds) are enforced; this function answers the projection
    comparison only, witnessed by the least eigenvalue of ``P - P'``.

    A comparison that fails is refused, by a :class:`PreconditionError`,
    when an operand's projection, lower first, has a band witness read
    from its own solve: only a ``tol_eig`` coarser than the default
    counts that eigenvalue as 1, or only a finer one does not, and the
    theorem says nothing about what rounding or a coarse clustering
    decides.  A comparison that holds is returned as it is.
    """
    p_lower = _fixed_projection(
        spectral_decompose(t_lower), tol_eig, tol_psd, "lower operand"
    )
    p_upper = _fixed_projection(
        spectral_decompose(t_upper), tol_eig, tol_psd, "upper operand"
    )
    ordering = loewner_leq(t_lower, t_upper, tol_psd=tol_psd)
    if not ordering:
        raise _not_ordered(ordering.witness)
    check = loewner_leq(p_lower.operator, p_upper.operator, tol_psd=tol_psd)
    for name, proj in (("lower", p_lower), ("upper", p_upper)):
        if not check and proj.band is not None:
            counted = (
                f"counts as 1 only at tol_eig {tol_eig}"
                if tol_eig > DEFAULT.eig
                else f"counts as 1 only at the default tol_eig, not at {tol_eig}"
            )
            raise PreconditionError(
                f"{name} operand eigenvalue {proj.band} {counted}: the "
                f"projection comparison (min eig of P - P' {check.witness}) "
                "proves nothing"
            )
    return check
