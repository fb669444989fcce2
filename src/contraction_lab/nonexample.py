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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .products import EpsilonNet, orbit_epsilon_net

__all__ = [
    "flat_index",
    "row_col",
    "NonexampleSequence",
    "StepDistance",
    "StepDistanceReport",
    "CoordinateDecay",
    "TailBound",
    "VanishingReport",
    "NetGrowthRow",
    "NetGrowthTable",
    "GivensStep",
    "build_nonexample",
    "verify_step_distances",
    "verify_vanishing_conditions",
    "verify_not_totally_bounded",
    "givens_factorization",
    "sequence_to_json",
    "givens_to_json",
    "write_net_csv",
]

_DIST_TOL = 1e-10
_SUPPORT_TOL = 1e-12
_NORM_TOL = 1e-12
_RANK_TOL = 1e-9  # singular values of U - I at or below this count as 0


def flat_index(n: int, j: int) -> int:
    """Triangular enumeration: row n occupies (n-1)n/2 + 1 .. n(n+1)/2."""
    return j + (n - 1) * n // 2


def row_col(m: int) -> tuple[int, int]:
    n = (math.isqrt(8 * m - 7) + 1) // 2
    return n, m - (n - 1) * n // 2


@dataclass(frozen=True, eq=False)
class NonexampleSequence:
    """Finite truncation of the orbit: all rows up to ``n_max``,
    living in dimension ``n_max + 1`` (row ``n_max`` touches the last
    coordinate)."""

    n_max: int
    vectors: np.ndarray

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.n_max + 1

    @staticmethod
    def angle_of(n: int) -> float:
        return math.pi / (2 * n)

    def vector(self, m: int) -> np.ndarray:
        if not 1 <= m <= self.count:
            raise PreconditionError(
                f"index {m} outside 1..{self.count}"
            )
        return self.vectors[m - 1]


def build_nonexample(n_max: int) -> NonexampleSequence:
    if n_max < 2:
        raise PreconditionError(f"need at least two rows, got n_max={n_max}")
    count = n_max * (n_max + 1) // 2
    dim = n_max + 1
    vectors = np.zeros((count, dim))
    for n in range(1, n_max + 1):
        theta = math.pi / (2 * n)
        for j in range(1, n + 1):
            m = flat_index(n, j)
            vectors[m - 1, n - 1] = math.cos((j - 1) * theta)
            vectors[m - 1, n] = math.sin((j - 1) * theta)
    return NonexampleSequence(n_max=n_max, vectors=vectors)


@dataclass(frozen=True)
class StepDistance:
    """Distance between consecutive orbit points ``m -> m + 1``.

    ``kind`` is ``"within"`` inside a row and ``"cross"`` at a row
    boundary; ``expected`` is ``2 sin(theta_n / 2)`` for the row being
    left.  Within-row agreement is exact by construction and treated as
    a verdict; cross-row values are measured and reported.
    """

    m: int
    row: int
    kind: str
    measured: float
    expected: float

    @property
    def deviation(self) -> float:
        return abs(self.measured - self.expected)

    @property
    def ok(self) -> bool:
        return self.deviation <= _DIST_TOL


@dataclass(frozen=True)
class StepDistanceReport:
    steps: tuple[StepDistance, ...]
    tol: float

    @property
    def within_row(self) -> tuple[StepDistance, ...]:
        return tuple(s for s in self.steps if s.kind == "within")

    @property
    def cross_row(self) -> tuple[StepDistance, ...]:
        return tuple(s for s in self.steps if s.kind == "cross")

    @property
    def within_row_ok(self) -> bool:
        return all(s.ok for s in self.within_row)

    @property
    def cross_row_ok(self) -> bool:
        return all(s.ok for s in self.cross_row)

    @property
    def max_within_deviation(self) -> float:
        return max((s.deviation for s in self.within_row), default=0.0)

    @property
    def max_cross_deviation(self) -> float:
        return max((s.deviation for s in self.cross_row), default=0.0)


def verify_step_distances(seq: NonexampleSequence) -> StepDistanceReport:
    """Measure every consecutive step against ``2 sin(theta_n / 2)``.

    Deviations are reported, never raised; callers decide what to
    assert.
    """
    steps = []
    for m in range(1, seq.count):
        n, j = row_col(m)
        kind = "within" if j < n else "cross"
        measured = float(
            np.linalg.norm(seq.vectors[m] - seq.vectors[m - 1])
        )
        expected = 2.0 * math.sin(seq.angle_of(n) / 2.0)
        steps.append(
            StepDistance(
                m=m, row=n, kind=kind, measured=measured, expected=expected
            )
        )
    return StepDistanceReport(steps=tuple(steps), tol=_DIST_TOL)


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


def verify_vanishing_conditions(
    seq: NonexampleSequence, k_max: int
) -> VanishingReport:
    if k_max < 1:
        raise PreconditionError(f"k_max must be >= 1, got {k_max}")

    decays = []
    for c in range(1, seq.n_max):
        start = flat_index(c + 1, 1)
        tail = seq.vectors[start - 1 :, c - 1]
        decays.append(
            CoordinateDecay(
                coordinate=c,
                first_clear_index=start,
                max_abs_after=float(np.abs(tail).max()),
            )
        )

    norms = np.linalg.norm(seq.vectors, axis=1)
    max_dev = float(np.abs(norms - 1.0).max())
    nonincreasing = bool(np.all(np.diff(norms) <= _NORM_TOL))

    last = seq.n_max
    row_start = flat_index(last, 1)
    step = 2.0 * math.sin(seq.angle_of(last) / 2.0)
    tails = []
    for k in range(1, k_max + 1):
        diffs = [
            float(np.linalg.norm(seq.vectors[m + k - 1] - seq.vectors[m - 1]))
            for m in range(row_start, seq.count - k + 1)
        ]
        tails.append(
            TailBound(
                k=k,
                tail_max=max(diffs, default=0.0),
                bound=k * step + _DIST_TOL,
            )
        )

    return VanishingReport(
        coordinate_decays=tuple(decays),
        max_norm_deviation=max_dev,
        norms_nonincreasing=nonincreasing,
        tail_bounds=tuple(tails),
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
    net member can cover two of them.
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
    prefix is a prefix of the full net; one pass suffices.
    """
    net = orbit_epsilon_net(seq.vectors, epsilon)
    members = np.asarray(net.member_indices)
    rows = []
    for r in range(1, seq.n_max + 1):
        prefix = flat_index(r, r)
        rows.append(
            NetGrowthRow(
                rows_completed=r,
                prefix_count=prefix,
                net_size=int((members < prefix).sum()),
            )
        )
    return NetGrowthTable(epsilon=epsilon, rows=tuple(rows), net=net)


@dataclass(frozen=True, eq=False)
class GivensStep:
    """Plane rotation carrying orbit point ``m`` to ``m + 1``.

    The rotation acts by ``angle`` on ``span(u, v)`` and as the identity
    on its complement, so ``matrix - I`` has rank 2 (rank 0 for flagged
    identity steps).  Only the coordinates where ``x_m`` or ``x_{m+1}``
    is nonzero can move, so the step keeps that ``support`` (0-based
    indices, at most two for the built orbit) with ``u`` and ``v``
    restricted to it; ``plane`` and ``matrix`` are dense views built on
    demand.
    """

    m: int
    dim: int
    support: np.ndarray
    u: np.ndarray
    v: np.ndarray
    c: float
    s: float
    angle: float
    identity: bool

    def _dense(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim, dtype=values.dtype)
        out[self.support] = values
        return out

    @property
    def plane(self) -> tuple[np.ndarray, np.ndarray] | None:
        if self.identity:
            return None
        return self._dense(self.u), self._dense(self.v)

    @property
    def matrix(self) -> np.ndarray:
        eye = np.eye(self.dim)
        if self.identity:
            return eye
        u, v = self.plane
        return (
            eye
            + (self.c - 1.0) * (np.outer(u, u) + np.outer(v, v))
            + self.s * (np.outer(v, u) - np.outer(u, v))
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``matrix @ x`` with arithmetic only on the support."""
        out = np.array(x, dtype=float)
        if self.identity:
            return out
        xs = out[self.support]
        a = self.u @ xs
        b = self.v @ xs
        out[self.support] = (
            xs
            + (self.c - 1.0) * (self.u * a + self.v * b)
            + self.s * (self.v * a - self.u * b)
        )
        return out

    @property
    def rank_ok(self) -> bool:
        """``rank(matrix - I)`` is 2 (0 for identity steps), read off the
        structure instead of a dense SVD.

        With ``u, v`` orthonormal, ``matrix - I`` acts on their span as
        ``[[c - 1, -s], [s, c - 1]]`` and vanishes elsewhere, so its two
        nonzero singular values both equal ``hypot(c - 1, s)``, which is
        ``2 sin(angle / 2)`` for unit vectors.
        """
        if self.identity:
            return True
        u, v = self.u, self.v
        gram = np.array([[u @ u, u @ v], [v @ u, v @ v]])
        return bool(
            np.abs(gram - np.eye(2)).max() <= _NORM_TOL
            and 0.0 < self.angle < math.pi
            and math.hypot(self.c - 1.0, self.s) > _RANK_TOL
        )


def givens_factorization(seq_or_vectors) -> list[GivensStep]:
    """One rotation per consecutive pair; coincident pairs yield a
    flagged identity step so the factorization stays aligned with the
    orbit indices.  Antipodal pairs leave the rotation plane
    underdetermined and are rejected (cannot occur for the built
    orbit, whose step angles stay below pi/2)."""
    vectors = (
        seq_or_vectors.vectors
        if isinstance(seq_or_vectors, NonexampleSequence)
        else np.asarray(seq_or_vectors)
    )
    count, dim = vectors.shape
    steps: list[GivensStep] = []
    for m in range(1, count):
        x = vectors[m - 1]
        y = vectors[m]
        if np.linalg.norm(y - x) <= 1e-14:
            steps.append(
                GivensStep(
                    m=m, dim=dim, support=np.empty(0, dtype=np.intp),
                    u=np.empty(0), v=np.empty(0), c=1.0, s=0.0, angle=0.0,
                    identity=True,
                )
            )
            continue
        # c, s and v come from the dense vectors so that the angle and
        # plane keep the same rounding however sparse the pair is
        c = float(x @ y)
        v = y - c * x
        s = float(np.linalg.norm(v))
        if s <= 1e-14:
            raise PreconditionError(
                f"vectors {m} and {m + 1} are antipodal: rotation plane "
                "is underdetermined"
            )
        v = v / s
        support = np.flatnonzero((x != 0.0) | (y != 0.0))
        steps.append(
            GivensStep(
                m=m, dim=dim, support=support, u=x[support], v=v[support],
                c=c, s=s, angle=math.atan2(s, c), identity=False,
            )
        )
    return steps


def sequence_to_json(seq: NonexampleSequence) -> list[dict]:
    """Sparse export: only the (at most two) nonzero coordinates per
    vector, keyed by 1-based index."""
    out = []
    for m in range(1, seq.count + 1):
        n, j = row_col(m)
        vec = seq.vectors[m - 1]
        coords = {
            str(i + 1): float(vec[i])
            for i in np.flatnonzero(vec != 0.0)
        }
        out.append({"m": m, "n": n, "j": j, "coords": coords})
    return out


def givens_to_json(steps: list[GivensStep]) -> list[dict]:
    out = []
    for step in steps:
        entry = {
            "m": step.m,
            "angle": step.angle,
            "identity": step.identity,
            "plane": None
            if step.identity
            else {
                "support": [int(i) + 1 for i in step.support],
                "u": [float(x) for x in step.u],
                "v": [float(x) for x in step.v],
            },
        }
        out.append(entry)
    return out


def write_net_csv(table: NetGrowthTable, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("N_max", "epsilon", "net_size"))
        for row in table.rows:
            writer.writerow(
                [
                    row.rows_completed,
                    format(float(table.epsilon), ".17g"),
                    row.net_size,
                ]
            )
