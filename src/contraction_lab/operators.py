"""Finite-dimensional Hermitian operators and their spectral calculus.

The objects here are the vocabulary for everything else in the package:
positive contractions ``0 <= T <= I``, their fixed-space projections, and
the handful of order-theoretic checks the product experiments rely on.

Numerical conventions
---------------------
* Matrices are hermitized on construction: ``(M + M*) / 2``.  This makes
  the Hermitian property exact in floating point, so ``eigh`` semantics
  are unambiguous.
* An eigenvalue ``lambda`` counts as 1 iff
  ``1 - tol_eig <= lambda <= 1 + tol_eig``.  This one rule picks out the
  fixed space in :func:`fixed_point_projection`,
  :func:`fixed_space_rank` and :func:`check_projection_monotone`, so
  "rank of the fixed space" always means the same thing everywhere.
  The gap window of :mod:`contraction_lab.gaps` is the other rule: it
  holds the eigenvalues with ``1 - delta + tol_eig < lambda < 1 - tol_eig``.
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
    "contraction_decompose",
    "fixed_space_rank",
    "loewner_leq",
    "loewner_margin",
    "check_fixed_vector_equivalence",
    "check_projection_monotone",
    "operator_to_dict",
    "operator_from_dict",
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
        dtype = np.complex128 if np.iscomplexobj(m) else np.float64
        # One new array: M* cast to the operator dtype, then M added and
        # the sum halved in place.  This is ``(M + M*) / 2`` computed in
        # that dtype, bit for bit: ``* 0.5`` rounds as ``/ 2.0`` does.
        h = np.empty(m.shape, dtype=dtype)
        np.copyto(h, m.T, casting="unsafe")
        if not np.isfinite(h).all():
            raise ValueError("operator entries must be finite")
        if dtype is np.complex128:
            np.conjugate(h, out=h)
        np.add(m, h, out=h, dtype=dtype, casting="unsafe")
        h *= 0.5
        h.setflags(write=False)
        object.__setattr__(self, "entries", h)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.entries)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        vec = np.asarray(vector)
        if vec.shape != (self.dim,):
            raise DimensionMismatchError(
                f"vector of shape {vec.shape} does not match dim {self.dim}"
            )
        return self.entries @ vec

    def norm(self) -> float:
        """Operator (spectral) norm."""
        return float(np.linalg.norm(self.entries, 2))


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

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


@dataclass(frozen=True, eq=False)
class Projection:
    """An orthogonal projection together with its rank."""

    operator: Operator
    rank: int

    @property
    def dim(self) -> int:
        return self.operator.dim

    @property
    def matrix(self) -> np.ndarray:
        return self.operator.entries


@dataclass(frozen=True)
class Witnessed:
    """A boolean verdict plus the number that decided it."""

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


def _fixed_mask(eigenvalues: np.ndarray, tol_eig: float) -> np.ndarray:
    """Eigenvalues that count as 1: within ``tol_eig`` of 1, both ends
    inclusive."""
    return (eigenvalues >= 1.0 - tol_eig) & (eigenvalues <= 1.0 + tol_eig)


def _projection_onto(space: np.ndarray | Witnessed) -> Projection:
    """Projection onto orthonormal columns, such as a basis from
    :func:`_fixed_space`; the failed check :func:`_fixed_space` returns
    for a non-contraction raises the error of
    :func:`fixed_point_projection`."""
    if isinstance(space, Witnessed):
        raise PreconditionError(
            f"not a positive contraction: offending eigenvalue {space.witness}"
        )
    # with no columns the product is the zero matrix of the basis dtype
    return Projection(Operator(space @ space.conj().T), space.shape[1])


def _cluster_projection(
    decomp: SpectralDecomposition, tol_eig: float
) -> Projection:
    """Projection onto the eigenvectors whose eigenvalues count as 1."""
    mask = _fixed_mask(decomp.eigenvalues, tol_eig)
    return _projection_onto(decomp.eigenvectors[:, mask])


def _fixed_space(
    decomp: SpectralDecomposition, tol_eig: float, tol_psd: float
) -> np.ndarray | Witnessed:
    """The fixed space of a decomposed operator as the columns of a new
    ``dim x rank`` array, or the failed check when the operator is not
    a positive contraction."""
    check = _contraction_witness(decomp.eigenvalues, tol_psd)
    if not check:
        return check
    return decomp.eigenvectors[:, _fixed_mask(decomp.eigenvalues, tol_eig)]


def _contraction_witness(eigenvalues: np.ndarray, tol: float) -> Witnessed:
    low, high = float(eigenvalues[0]), float(eigenvalues[-1])
    if low < -tol:
        return Witnessed(False, low)
    if high > 1.0 + tol:
        return Witnessed(False, high)
    return Witnessed(True, None)


def is_positive_contraction(
    op: Operator, *, tol_psd: float | None = None
) -> Witnessed:
    """Check ``0 <= T <= I`` up to PSD slack.

    On failure the witness is the offending eigenvalue.
    """
    tol = DEFAULT.psd(op.dim) if tol_psd is None else tol_psd
    return _contraction_witness(_eigvalsh(op.entries), tol)


def contraction_decompose(
    op: Operator, *, tol_psd: float | None = None
) -> tuple[SpectralDecomposition, Witnessed]:
    """One ``eigh`` of ``op`` and the ``0 <= T <= I`` verdict read off its
    eigenvalues, witnessed as in :func:`is_positive_contraction`.

    Callers that need the positivity check and a spectral answer about
    the same operator (fixed space, gap) take both from this one solve.
    """
    decomp = spectral_decompose(op)
    tol = DEFAULT.psd(op.dim) if tol_psd is None else tol_psd
    return decomp, _contraction_witness(decomp.eigenvalues, tol)


def fixed_space_rank(
    decomp: SpectralDecomposition, *, tol_eig: float = DEFAULT.eig
) -> int:
    """Rank of the fixed-point space under the clustering rule: the rank
    of :func:`fixed_point_projection` for the decomposed operator."""
    return int(_fixed_mask(decomp.eigenvalues, tol_eig).sum())


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
    tol = DEFAULT.psd(op.dim) if tol_psd is None else tol_psd
    return _projection_onto(_fixed_space(spectral_decompose(op), tol_eig, tol))


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
    tol = DEFAULT.psd(a.dim) if tol_psd is None else tol_psd
    smallest = float(loewner_margin(b.entries, a.entries))
    return Witnessed(smallest >= -tol, smallest)


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
    tol_fix: float = DEFAULT.fix,
    tol_psd: float | None = None,
) -> FixedVectorReport:
    """Evaluate the three fixed-vector conditions with relative residuals.

    The zero vector satisfies all three trivially.  Rejects operators
    that are not positive contractions, since the equivalence is only a
    theorem for those.
    """
    check = is_positive_contraction(op, tol_psd=tol_psd)
    if not check:
        raise PreconditionError(
            f"not a positive contraction: offending eigenvalue {check.witness}"
        )
    xi = np.asarray(vector)
    if xi.shape != (op.dim,):
        raise DimensionMismatchError(
            f"vector of shape {xi.shape} does not match dim {op.dim}"
        )
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
) -> bool:
    """Whether the fixed spaces satisfy ``P' <= P`` for ``T' <= T``.

    Preconditions (both operators are positive contractions and the
    ordering holds) are enforced; this function answers the projection
    comparison only.
    """
    decomps = []
    for name, op in (("lower", t_lower), ("upper", t_upper)):
        decomp, check = contraction_decompose(op, tol_psd=tol_psd)
        if not check:
            raise PreconditionError(
                f"{name} operand is not a positive contraction: "
                f"offending eigenvalue {check.witness}"
            )
        decomps.append(decomp)
    ordering = loewner_leq(t_lower, t_upper, tol_psd=tol_psd)
    if not ordering:
        raise PreconditionError(
            f"operands are not ordered: min eig of difference {ordering.witness}"
        )
    p_lower, p_upper = (
        _cluster_projection(decomp, tol_eig) for decomp in decomps
    )
    return bool(loewner_leq(p_lower.operator, p_upper.operator, tol_psd=tol_psd))


def operator_to_dict(op: Operator) -> dict:
    """JSON-ready dict: ``dim`` plus row-major ``[re, im]`` entry pairs."""
    entries = [
        [[float(np.real(x)), float(np.imag(x))] for x in row]
        for row in op.entries
    ]
    return {"dim": op.dim, "entries": entries}


def operator_from_dict(data: dict) -> Operator:
    if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
        raise ValueError("operator document needs 'dim' and 'entries'")
    dim = data["dim"]
    rows = data["entries"]
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"bad dim: {dim!r}")
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise ValueError("entries must form a dim x dim grid")
    matrix = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, pair in enumerate(row):
            if len(pair) != 2:
                raise ValueError(f"entry ({i},{j}) is not a [re, im] pair")
            matrix[i, j] = complex(pair[0], pair[1])
    if np.all(matrix.imag == 0.0):
        return Operator(matrix.real)
    return Operator(matrix)
