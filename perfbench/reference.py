"""Fixed reference program, timed next to every command run.

It imports numpy and mixes the two kinds of work the workloads do:
dense 128 x 128 LAPACK calls and interpreter-bound Python loops.  It
never imports ``contraction_lab``, so no change to the package moves
its time; only the host does.  ``run.py`` divides each command run's
time by the reference runs on either side of it (see README.md).
"""

import numpy as np

DIM = 128
LAPACK_ROUNDS = 60
PYTHON_ITERATIONS = 1_000_000

rng = np.random.default_rng(0)
a = rng.standard_normal((DIM, DIM))
a = (a + a.T) / (2 * DIM)
for _ in range(LAPACK_ROUNDS):
    w, v = np.linalg.eigh(a)
    a = (v * np.tanh(w)) @ v.T
    np.linalg.norm(a, 2)

total = 0.0
for i in range(PYTHON_ITERATIONS):
    total += (i % 7) * 0.5

assert np.isfinite(a).all() and total > 0
