"""Dense references for the sparse orbit code in ``nonexample``.

The orbit, its row/column index, its Givens arithmetic and its greedy
net as they were first written, on dense ``(count, n_max + 1)``
vectors: slow and O(n_max^3) in memory, but with nothing to get wrong
about supports.  Also the CSV files the artifact writers must reproduce
byte for byte, written a row at a time by ``csv.writer``.
"""

import csv
import math

import numpy as np


def dense_orbit(n_max):
    """Row ``n`` sweeps ``cos((j-1) theta_n) e_n + sin((j-1) theta_n) e_{n+1}``."""
    count = n_max * (n_max + 1) // 2
    vectors = np.zeros((count, n_max + 1))
    m = 0
    for n in range(1, n_max + 1):
        theta = math.pi / (2 * n)
        for j in range(1, n + 1):
            vectors[m, n - 1] = math.cos((j - 1) * theta)
            vectors[m, n] = math.sin((j - 1) * theta)
            m += 1
    return vectors


def row_col(m):
    """Row ``n`` and column ``j`` of point ``m``, inverting
    ``nonexample.flat_index``."""
    n = (math.isqrt(8 * m - 7) + 1) // 2
    return n, m - (n - 1) * n // 2


def dense_step_distances(vectors):
    return np.array(
        [np.linalg.norm(y - x) for x, y in zip(vectors[:-1], vectors[1:])]
    )


def dense_givens(vectors):
    """``(c, s, angle)`` per step: ``c = x @ y``, ``s = |y - c x|``."""
    out = []
    for x, y in zip(vectors[:-1], vectors[1:]):
        c = float(x @ y)
        s = float(np.linalg.norm(y - c * x))
        out.append((c, s, math.atan2(s, c)))
    return np.array(out)


def rotation(u, v, c, s):
    """``I + (c - 1)(u u^T + v v^T) + s (v u^T - u v^T)``: the rotation
    with cosine ``c`` and sine ``s`` on ``span(u, v)``, the identity on
    its complement."""
    return (
        np.eye(u.size)
        + (c - 1.0) * (np.outer(u, u) + np.outer(v, v))
        + s * (np.outer(v, u) - np.outer(u, v))
    )


def step_plane(steps, k, dim):
    """Dense ``(u, v)`` of step ``k`` (0-based) of a factorization whose
    orbit lives in dimension ``dim``."""
    u = np.zeros(dim)
    v = np.zeros(dim)
    window = slice(steps.frame[k], steps.frame[k] + 2)
    u[window] = steps.u[k]
    v[window] = steps.v[k]
    return u, v


def step_rotation(steps, k, dim):
    """Dense rotation matrix of step ``k`` (0-based)."""
    u, v = step_plane(steps, k, dim)
    return rotation(u, v, steps.c[k], steps.s[k])


def unit_pair_plane(x, y):
    """``(u, v, c, s, angle)`` of the rotation carrying unit ``x`` to
    unit ``y``: ``c = x @ y``, ``v`` the unit part of ``y`` orthogonal
    to ``x``."""
    c = float(x @ y)
    v = y - c * x
    s = float(np.linalg.norm(v))
    return x, v / s, c, s, math.atan2(s, c)


def _write_csv(path, header, rows):
    """``rows`` through ``csv.writer``, each float formatted by
    ``format(x, ".17g")``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format(x, ".17g") if isinstance(x, float) else x for x in row]
            )


def reference_sequence_csv(seq, path):
    """``sequence.csv``: per point its ``m``, row ``n``, column ``j`` and
    coordinates ``n`` and ``n + 1``."""
    rows = []
    for m, (n, c, s) in enumerate(
        zip(seq.rows.tolist(), seq.cos.tolist(), seq.sin.tolist()), start=1
    ):
        rows.append((m, n, m - (n - 1) * n // 2, c, s))
    _write_csv(path, ("m", "n", "j", "cos", "sin"), rows)


def reference_givens_csv(steps, path):
    """``givens.csv``: per step its ``m``, angle and ``v`` on the
    window; the window and ``u`` are ``sequence.csv`` row ``m``'s."""
    rows = [
        (k + 1, angle, *v)
        for k, (angle, v) in enumerate(
            zip(steps.angle.tolist(), steps.v.tolist())
        )
    ]
    _write_csv(path, ("m", "angle", "v1", "v2"), rows)


def scalar_greedy_net(points, epsilon):
    """Reference greedy scan: one distance per (point, member) pair."""
    members = []
    for i in range(points.shape[0]):
        if all(
            np.linalg.norm(points[i] - points[j]) > epsilon for j in members
        ):
            members.append(i)
    return tuple(members)


def dense_greedy_net(points, epsilon):
    """The same scan, each point against all members in one call."""
    members = np.empty_like(points)
    indices = []
    for i, point in enumerate(points):
        k = len(indices)
        if k == 0 or np.all(
            np.linalg.norm(members[:k] - point, axis=1) > epsilon
        ):
            members[k] = point
            indices.append(i)
    return tuple(indices)


def ulps(a, b):
    """Distance in units in the last place between float arrays of one
    sign."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a.view(np.int64) - b.view(np.int64))
