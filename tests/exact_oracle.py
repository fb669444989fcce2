"""Exact references for the Cholesky certificates of ``certify``.

Every float is a dyadic rational, so a stored matrix of dim 1 or 2 can
be judged in fractions: its Gram matrix, positive semidefiniteness by
Sylvester's criterion, and the gap rule of ``gaps.has_gap_at``.  Also
the unit roundoff and the Haar frames that the certificate tests draw
their edge cases from.
"""

import math
from fractions import Fraction

import numpy as np

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


def exact_sqrt_above(value):
    """The least float whose square is at least the exact ``value``."""
    root = math.sqrt(float(value))
    while Fraction(root) ** 2 < value:
        root = np.nextafter(root, np.inf)
    while Fraction(np.nextafter(root, 0.0)) ** 2 >= value:
        root = np.nextafter(root, 0.0)
    return float(root)


def exact_gap_rule_holds(entries, low, high, slack):
    """Whether the exact eigenvalues of a stored Hermitian matrix of dim
    1 or 2 lie outside ``(low, high)`` and in ``[-slack, 1 + slack]``:
    Sylvester's criterion on ``(T - low)(T - high)``, ``T + slack I`` and
    ``(1 + slack) I - T``, in fractions."""
    t = exact_entries(entries)
    square = exact_gram(entries)  # T* T = T^2
    lo, hi = Fraction(low), Fraction(high)
    w = [
        [
            (sq[0] - (lo + hi) * tv[0] + (lo * hi if i == j else 0),
             sq[1] - (lo + hi) * tv[1])
            for j, (sq, tv) in enumerate(zip(square_row, t_row))
        ]
        for i, (square_row, t_row) in enumerate(zip(square, t))
    ]
    s = Fraction(slack)
    return (
        exact_psd(w)
        and exact_psd(shifted(t, -s, 1))
        and exact_psd(shifted(t, 1 + s, -1))
    )
