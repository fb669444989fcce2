"""Dense references for the sparse orbit code in ``nonexample``.

The orbit, its Givens arithmetic and its greedy net as they were first
written, on dense ``(count, n_max + 1)`` vectors: slow and O(n_max^3) in
memory, but with nothing to get wrong about supports.
"""

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
