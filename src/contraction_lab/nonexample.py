"""A unitary orbit that converges weakly but is not totally bounded.

Row ``n`` sweeps a quarter circle in ``span{e_n, e_{n+1}}`` in ``n``
equal steps of angle ``theta_n = pi / (2n)``:

    xi_{<n,j>} = cos((j-1) theta_n) e_n + sin((j-1) theta_n) e_{n+1}

with the triangular index ``<n,j> = j + (n-1)n/2``.  Consecutive
vectors get arbitrarily close (step distance ``2 sin(theta_n / 2)``),
every coordinate eventually vanishes, yet the orbit revisits a fresh
basis vector at the start of every row, so no finite epsilon-net can
cover it.  Each step is realized by a plane rotation, giving a product
of rank-2-perturbation unitaries that walks the whole orbit from e_1.

Every point has at most two nonzero coordinates, so the orbit, its
checks, its Givens steps and its artifacts are all computed on arrays of
those coordinates, in O(n_max^2) memory; no dense orbit is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .products import (
    _ROW_BLOCK,
    EpsilonNet,
    _write_rows,
    orbit_epsilon_net,
)

__all__ = [
    "flat_index",
    "NonexampleSequence",
    "StepDistanceReport",
    "CoordinateDecay",
    "TailBound",
    "VanishingReport",
    "NetGrowthRow",
    "NetGrowthTable",
    "GivensFactorization",
    "build_nonexample",
    "verify_step_distances",
    "verify_vanishing_conditions",
    "verify_not_totally_bounded",
    "givens_factorization",
    "reconstruction_error",
    "write_sequence_csv",
    "write_givens_csv",
    "write_net_csv",
    "write_step_distances_csv",
]

_DIST_TOL = 1e-10
_SUPPORT_TOL = 1e-12
_NORM_TOL = 1e-12
_RANK_TOL = 1e-9  # singular values of U - I at or below this count as 0
_RECON_TOL = 1e-9  # the nonexample command's bound on reconstruction_error
_BLAS_DOT_BLOCK = 16  # see _pair_dot
_TAIL_K_MAX = 3  # verify_vanishing_conditions bounds k-step tails, k <= this


def flat_index(n: int, j: int) -> int:
    """Triangular enumeration: row n occupies (n-1)n/2 + 1 .. n(n+1)/2."""
    return j + (n - 1) * n // 2


@dataclass(frozen=True, eq=False)
class NonexampleSequence:
    """Finite truncation of the orbit: all rows up to ``n_max``,
    living in dimension ``n_max + 1`` (row ``n_max`` touches the last
    coordinate).

    Point ``m`` is held sparsely, in O(n_max^2) memory for the whole
    orbit: ``rows[m - 1]`` is its row ``n``, and ``cos[m - 1]`` and
    ``sin[m - 1]`` are its coordinates ``n`` and ``n + 1`` (1-based).
    Every other coordinate is 0.  ``vector(m)`` builds one dense vector
    on demand.
    """

    n_max: int
    rows: np.ndarray
    cos: np.ndarray
    sin: np.ndarray

    @property
    def count(self) -> int:
        return self.rows.size

    @property
    def ambient_dim(self) -> int:
        return self.n_max + 1

    @staticmethod
    def angle_of(n: int) -> float:
        return math.pi / (2 * n)

    @property
    def points(self) -> np.ndarray:
        """``(count, 2)`` support windows: point ``m``'s coordinates
        ``rows[m - 1]`` and ``rows[m - 1] + 1``."""
        return np.stack((self.cos, self.sin), axis=1)

    def vector(self, m: int) -> np.ndarray:
        if not 1 <= m <= self.count:
            raise PreconditionError(
                f"index {m} outside 1..{self.count}"
            )
        out = np.zeros(self.ambient_dim)
        n = self.rows[m - 1]
        out[n - 1] = self.cos[m - 1]
        out[n] = self.sin[m - 1]
        return out


def build_nonexample(n_max: int) -> NonexampleSequence:
    if n_max < 2:
        raise PreconditionError(f"need at least two rows, got n_max={n_max}")
    lengths = np.arange(1, n_max + 1)
    rows = np.repeat(lengths, lengths)
    # (j - 1) theta_n with theta_n = pi / (2n), rounded as scalar code
    # rounds it; math's cos and sin, not numpy's vector ones, so the bits
    # do not depend on how numpy was built
    steps = np.arange(rows.size) - flat_index(rows, 1) + 1
    angles = (steps * (math.pi / (2 * rows))).tolist()
    return NonexampleSequence(
        n_max=n_max,
        rows=rows,
        cos=np.fromiter(map(math.cos, angles), float, len(angles)),
        sin=np.fromiter(map(math.sin, angles), float, len(angles)),
    )


def _step_pairs(
    seq: NonexampleSequence,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Consecutive points ``m`` and ``m + 1`` as ``(count - 1, 2)``
    arrays ``x`` and ``y`` on the window of ``x``, coordinates ``n`` and
    ``n + 1`` of its row ``n``, plus the steps whose inner products
    :func:`_pair_dot` fuses.

    Point ``m + 1`` fits that window: in the same row it has the same
    support, and a row head is the basis vector ``e_{n+1}``.
    """
    cross = seq.rows[1:] != seq.rows[:-1]
    x = seq.points[:-1]
    y = np.stack(
        (
            np.where(cross, 0.0, seq.cos[1:]),
            np.where(cross, seq.cos[1:], seq.sin[1:]),
        ),
        axis=1,
    )
    dim = seq.ambient_dim
    fused = seq.rows[:-1] >= dim - dim % _BLAS_DOT_BLOCK
    return x, y, fused


def _pair_dot(a: np.ndarray, b: np.ndarray, fused: np.ndarray) -> np.ndarray:
    """Row-wise inner products of ``(steps, 2)`` arrays, rounded as
    ``np.dot`` rounds them on the dense vectors.

    OpenBLAS's x86-64 ``ddot``, which ``np.dot`` calls, sums the leading
    ``dim - dim % 16`` entries of a length-``dim`` vector in SIMD lanes:
    one nonzero product per lane here, so the dot is the rounded sum of
    the two rounded products.  It sums the remaining entries in a scalar
    loop that fuses each multiply-add, and a dot of the two support
    entries alone runs that same loop.  The ``fused`` steps, whose
    second coordinate lies in that remainder, take the latter.  A BLAS
    that fuses nothing gives the plain sum either way.
    """
    out = a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]
    for k in np.flatnonzero(fused).tolist():
        out[k] = np.dot(a[k], b[k])
    return out


@dataclass(frozen=True, eq=False)
class StepDistanceReport:
    """Every step ``m -> m + 1`` (``m = 1 .. count - 1``) as arrays: the
    row being left, whether the step stays inside it, and the measured
    and expected distances."""

    rows: np.ndarray
    within: np.ndarray
    measured: np.ndarray
    expected: np.ndarray
    tol: float

    @property
    def deviations(self) -> np.ndarray:
        return np.abs(self.measured - self.expected)

    @property
    def within_row_ok(self) -> bool:
        return bool(np.all(self.deviations[self.within] <= self.tol))

    @property
    def cross_row_ok(self) -> bool:
        return bool(np.all(self.deviations[~self.within] <= self.tol))

    @property
    def max_within_deviation(self) -> float:
        return float(self.deviations[self.within].max(initial=0.0))

    @property
    def max_cross_deviation(self) -> float:
        return float(self.deviations[~self.within].max(initial=0.0))


def verify_step_distances(seq: NonexampleSequence) -> StepDistanceReport:
    """Measure every consecutive step against ``2 sin(theta_n / 2)``.

    Deviations are reported, never raised; callers decide what to
    assert.
    """
    x, y, fused = _step_pairs(seq)
    diff = y - x
    expected = [
        2.0 * math.sin(seq.angle_of(n) / 2.0) for n in range(1, seq.n_max + 1)
    ]
    rows = seq.rows[:-1]
    return StepDistanceReport(
        rows=rows,
        within=seq.rows[1:] == rows,
        measured=np.sqrt(_pair_dot(diff, diff, fused)),
        expected=np.asarray(expected)[rows - 1],
        tol=_DIST_TOL,
    )


@dataclass(frozen=True)
class CoordinateDecay:
    """Coordinate ``c`` must read exactly zero from the start of row
    ``c + 1`` on (the support of row ``n`` is ``{n, n+1}``)."""

    coordinate: int
    first_clear_index: int
    max_abs_after: float

    @property
    def ok(self) -> bool:
        return self.max_abs_after <= _SUPPORT_TOL


@dataclass(frozen=True)
class TailBound:
    """Over the last row, ``||xi_{m+k} - xi_m||`` is at most ``k`` step
    lengths by the triangle inequality."""

    k: int
    tail_max: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.tail_max <= self.bound


@dataclass(frozen=True)
class VanishingReport:
    """Weak-vanishing evidence at finite truncation: coordinates die
    out, norms stay exactly 1, and k-step differences shrink with the
    row angle."""

    coordinate_decays: tuple[CoordinateDecay, ...]
    max_norm_deviation: float
    norms_nonincreasing: bool
    tail_bounds: tuple[TailBound, ...]

    @property
    def coordinates_ok(self) -> bool:
        return all(c.ok for c in self.coordinate_decays)

    @property
    def norms_ok(self) -> bool:
        return self.max_norm_deviation <= _NORM_TOL and self.norms_nonincreasing

    @property
    def tails_ok(self) -> bool:
        return all(t.ok for t in self.tail_bounds)

    @property
    def all_ok(self) -> bool:
        return self.coordinates_ok and self.norms_ok and self.tails_ok


def verify_vanishing_conditions(seq: NonexampleSequence) -> VanishingReport:
    # every stored coordinate (1-based c) of every point m, and whether
    # m lies at or past flat_index(c + 1, 1), where c must read 0
    m = np.arange(1, seq.count + 1)
    coords = np.concatenate((seq.rows, seq.rows + 1))
    values = np.abs(np.concatenate((seq.cos, seq.sin)))
    late = np.concatenate((m, m)) >= flat_index(coords + 1, 1)
    max_after = np.zeros(seq.n_max + 2)
    np.maximum.at(max_after, coords[late], values[late])
    decays = tuple(
        CoordinateDecay(
            coordinate=c,
            first_clear_index=flat_index(c + 1, 1),
            max_abs_after=float(max_after[c]),
        )
        for c in range(1, seq.n_max)
    )

    norms = np.linalg.norm(seq.points, axis=1)
    max_dev = float(np.abs(norms - 1.0).max())
    nonincreasing = bool(np.all(np.diff(norms) <= _NORM_TOL))

    last = seq.n_max
    row = seq.points[flat_index(last, 1) - 1 :]
    step = 2.0 * math.sin(seq.angle_of(last) / 2.0)
    tails = tuple(
        TailBound(
            k=k,
            tail_max=float(
                np.linalg.norm(row[k:] - row[:-k], axis=1).max(initial=0.0)
            ),
            bound=k * step + _DIST_TOL,
        )
        for k in range(1, _TAIL_K_MAX + 1)
    )

    return VanishingReport(
        coordinate_decays=decays,
        max_norm_deviation=max_dev,
        norms_nonincreasing=nonincreasing,
        tail_bounds=tails,
    )


@dataclass(frozen=True)
class NetGrowthRow:
    rows_completed: int
    prefix_count: int
    net_size: int


@dataclass(frozen=True)
class NetGrowthTable:
    """Greedy net size after each completed row.

    A net that grows without bound as rows complete is the finite
    shadow of failing total boundedness; for ``epsilon < sqrt(2)/2``
    the size after row ``r`` is at least ``r``, because the ``r`` basis
    vectors seen so far are pairwise ``sqrt(2)`` apart and no single
    net member can cover two of them.  The same fact keeps the net
    local: points two or more rows apart have disjoint supports and lie
    exactly ``sqrt(2)`` apart, so below that (less a rounding margin)
    only rows ``n - 1`` and ``n`` are measured for a point of row ``n``.
    """

    epsilon: float
    rows: tuple[NetGrowthRow, ...]
    net: EpsilonNet

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(r.net_size for r in self.rows)

    @property
    def dominates_row_count(self) -> bool:
        return all(r.net_size >= r.rows_completed for r in self.rows)


def verify_not_totally_bounded(
    seq: NonexampleSequence, epsilon: float
) -> NetGrowthTable:
    """Greedy epsilon-net sizes over row-aligned prefixes of the orbit.

    Greedy membership is decided in scan order, so the net over a
    prefix is a prefix of the full net; one pass suffices.  The points
    go to :func:`orbit_epsilon_net` as their support windows.
    """
    net = orbit_epsilon_net(seq.points, epsilon, starts=seq.rows - 1)
    completed = np.arange(1, seq.n_max + 1)
    prefixes = flat_index(completed, completed)
    sizes = np.searchsorted(np.asarray(net.member_indices), prefixes)
    rows = tuple(
        NetGrowthRow(rows_completed=r, prefix_count=prefix, net_size=size)
        for r, prefix, size in zip(
            completed.tolist(), prefixes.tolist(), sizes.tolist()
        )
    )
    return NetGrowthTable(epsilon=epsilon, rows=rows, net=net)


def _rank_ok(u, v, c, s, angle) -> np.ndarray:
    """Per step: ``rank(U - I)`` is 2.

    With ``u, v`` orthonormal, ``U - I`` acts on their span as
    ``[[c - 1, -s], [s, c - 1]]`` and vanishes elsewhere, so its two
    nonzero singular values both equal ``hypot(c - 1, s)``, which is
    ``2 sin(angle / 2)`` for unit vectors.  ``u`` and ``v`` are
    ``(steps, k)`` arrays, one plane per row.
    """
    gram = np.stack(
        (
            np.einsum("ij,ij->i", u, u) - 1.0,
            np.einsum("ij,ij->i", u, v),
            np.einsum("ij,ij->i", v, v) - 1.0,
        )
    )
    return (
        (np.abs(gram).max(axis=0) <= _NORM_TOL)
        & (0.0 < angle)
        & (angle < math.pi)
        & (np.hypot(c - 1.0, s) > _RANK_TOL)
    )


@dataclass(frozen=True, eq=False)
class GivensFactorization:
    """The rotations carrying each point to the next, as arrays with
    one row per step ``m = 1 .. len``.

    Step ``m`` acts on coordinates ``frame[m-1]`` and ``frame[m-1] + 1``
    (0-based), where ``u`` and ``v`` hold its plane; the rotation by
    ``angle`` on that plane has cosine ``c`` and sine ``s``.
    ``rank_ok`` checks every step at once.
    """

    frame: np.ndarray
    u: np.ndarray
    v: np.ndarray
    c: np.ndarray
    s: np.ndarray
    angle: np.ndarray

    def __len__(self) -> int:
        return self.c.size

    @property
    def rank_ok(self) -> np.ndarray:
        return _rank_ok(self.u, self.v, self.c, self.s, self.angle)


def givens_factorization(seq: NonexampleSequence) -> GivensFactorization:
    """One rotation per consecutive pair, on the two-coordinate window
    of the step, with the inner products rounded as on the dense vectors
    (:func:`_pair_dot`).

    Every step of the orbit turns by at most a quarter circle and by at
    least ``theta_{n_max}``, so ``c >= 0`` and ``s > 0``: no step is an
    identity or an antipodal one, and each plane fills its window.
    """
    x, y, fused = _step_pairs(seq)
    c = _pair_dot(x, y, fused)
    v = y - c[:, None] * x
    s = np.sqrt(_pair_dot(v, v, fused))
    return GivensFactorization(
        frame=seq.rows[:-1] - 1,
        u=x,
        v=v / s[:, None],
        c=c,
        s=s,
        angle=np.fromiter(
            map(math.atan2, s.tolist(), c.tolist()), float, c.size
        ),
    )


def reconstruction_error(
    seq: NonexampleSequence, steps: GivensFactorization
) -> float:
    """Largest distance between ``e_1`` carried through steps ``1..m``
    and orbit point ``m + 1``, over all ``m``.

    A sequential walk of the rotations of ``givens_factorization(seq)``
    on the two scalars of each step's window, which starts at the row of
    point ``m``.  Point ``m + 1`` lies in the three
    coordinates from there, and the third is not yet carried, so the
    coordinates below the window never change again: their squared
    errors are summed once, as the window passes them.
    """
    if len(steps) != seq.count - 1:
        raise PreconditionError("steps must be the factorization of seq")
    carried = [0.0] * (seq.ambient_dim + 1)
    carried[0] = 1.0
    frozen = 0.0
    passed = 0  # coordinates below this one are summed into frozen
    worst = 0.0
    for first in range(0, len(steps), _ROW_BLOCK):
        block = slice(first, first + _ROW_BLOCK)
        after = slice(first + 1, first + 1 + _ROW_BLOCK)
        columns = (
            steps.frame[block], steps.u[block, 0], steps.u[block, 1],
            steps.v[block, 0], steps.v[block, 1], steps.c[block] - 1.0,
            steps.s[block], seq.rows[after] - 1 - steps.frame[block],
            seq.cos[after], seq.sin[after],
        )
        for f, u0, u1, v0, v1, c1, s, shift, cos, sin in zip(
            *(column.tolist() for column in columns)
        ):
            while passed < f:
                frozen += carried[passed] ** 2
                passed += 1
            x0 = carried[f]
            x1 = carried[f + 1]
            a = u0 * x0 + u1 * x1
            b = v0 * x0 + v1 * x1
            x0 = x0 + c1 * (u0 * a + v0 * b) + s * (v0 * a - u0 * b)
            x1 = x1 + c1 * (u1 * a + v1 * b) + s * (v1 * a - u1 * b)
            carried[f] = x0
            carried[f + 1] = x1
            if shift:  # point m + 1 heads the next row
                error = x0 * x0 + (x1 - cos) ** 2 + sin * sin
            else:
                error = (x0 - cos) ** 2 + (x1 - sin) ** 2
            worst = max(worst, frozen + error)
    return math.sqrt(worst)


def write_sequence_csv(seq: NonexampleSequence, path) -> None:
    """``sequence.csv``: one row ``m,n,j,cos,sin`` per point, ``cos``
    and ``sin`` being its coordinates ``n`` and ``n + 1`` (1-based)."""
    m = np.arange(1, seq.count + 1)
    with open(path, "w", newline="") as handle:
        handle.write("m,n,j,cos,sin\r\n")
        _write_rows(
            handle,
            "%d,%d,%d,%.17g,%.17g\r\n",
            (m, seq.rows, m - flat_index(seq.rows, 1) + 1, seq.cos, seq.sin),
        )


def write_givens_csv(steps: GivensFactorization, path) -> None:
    """``givens.csv``: one row ``m,angle,v1,v2`` per step.

    Step ``m`` leaves point ``m``, so ``sequence.csv`` row ``m`` holds
    the rest of its plane: the step acts on coordinates ``n`` and
    ``n + 1`` (1-based), ``u`` is that point's ``cos,sin``, and ``v1,v2``
    are ``v``'s entries there."""
    with open(path, "w", newline="") as handle:
        handle.write("m,angle,v1,v2\r\n")
        _write_rows(
            handle,
            "%d,%.17g,%.17g,%.17g\r\n",
            (np.arange(1, len(steps) + 1), steps.angle, *steps.v.T),
        )


def write_net_csv(table: NetGrowthTable, path) -> None:
    completed = np.array([row.rows_completed for row in table.rows])
    with open(path, "w", newline="") as handle:
        handle.write("N_max,epsilon,net_size\r\n")
        _write_rows(
            handle,
            "%d,%.17g,%d\r\n",
            (
                completed,
                np.full(completed.size, float(table.epsilon)),
                np.array(table.sizes),
            ),
        )


def write_step_distances_csv(report: StepDistanceReport, path) -> None:
    """``step_distances.csv``: one row ``m,row,kind,measured`` per step.

    The expected distance ``2 sin(pi / (4 row))`` and the deviation
    ``|measured - expected|`` follow from the row, as in
    :func:`verify_step_distances`, so they are not written."""
    with open(path, "w", newline="") as handle:
        handle.write("m,row,kind,measured\r\n")
        _write_rows(
            handle,
            "%d,%d,%s,%.17g\r\n",
            (
                np.arange(1, report.rows.size + 1),
                report.rows,
                np.where(report.within, "within", "cross"),
                report.measured,
            ),
        )
