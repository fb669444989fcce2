"""The rounding model of float64 arithmetic and the Cholesky
certificates that rest on it.

Each certificate reads entries alone and proves, by one stacked Cholesky
factorization, that a solve (``eigvalsh``, the SVD) would pass each
matrix of a stack: the order ``T_{n+1} <= T_n``, ``0 <= T_n <= I``,
``||S_n|| <= 1`` or the gap window of :mod:`contraction_lab.gaps`.  A
True, or a bound, is proved; a False or None proves nothing, and the
caller solves.

The constants, with ``u = 2**-53``, ``n = dim``, ``F = ||T||_F^2``,
``gamma_k = k u / (1 - k u)`` and ``k = n`` for real ``T``, ``3n`` for
complex (a complex product's parts are real inner products of length
``2n``, and ``sqrt(2) gamma_2n <= gamma_3n``; Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., section 3.6):

* ``T @ T`` is within ``gamma_k |T||T|`` entrywise, in any summation
  order (Higham section 3.5), and forming :func:`_rounding_bounds`'
  ``M`` adds at most ``gamma_6 (|T||T| + |alpha||T| + (|beta| + eta)
  I)``.  That bound is symmetric, so it also holds for the Hermitian
  matrix ``A`` that the factorization reads from one triangle.
  With ``eta < |beta|``, ``||A - (M_exact - eta I)||_2`` is at most
  ``gamma_(k+6) sigma``, ``sigma = F + |alpha| sqrt(n F) + 2 n |beta|``:
  ``|| |T||T| ||_F <= F``.
* A factorization that runs to completion gives ``R* R = A + dA``,
  ``|dA| <= gamma_(k+1) |R*||R|`` (Higham, Theorem 10.5).  Cauchy-
  Schwarz on ``R``'s columns gives ``||dA||_2 <= gamma_(k+1) / (1 -
  gamma_(k+1)) trace(A)``, and ``trace(A) <= (1 + gamma_(k+6)) sigma``,
  since the diagonal of ``|T||T|`` sums to ``F`` and that of ``|T|`` to
  at most ``sqrt(n F)``.
* :func:`_factored` factors some orders ``n`` bordered, as ``B = [[A,
  0], [0, 1]]``, which is faster there.  Each entry of ``B``'s factor in
  ``A``'s block reads only entries of ``A`` and of that block, so the
  block is computed as a Cholesky factorization of ``A``, with some
  order of its inner products.  While its pivots are positive, the
  border's entries of the factor are computed from exact zeros and are
  0, so the last pivot is exactly 1: ``B``'s factorization runs to
  completion exactly when that one of ``A`` does.  Theorem 10.5 holds
  for any order of the inner products, so its bound, and every constant
  here, holds for ``A`` as stated.
* ``eps = 2 (k + 7) u sigma`` exceeds both terms together by more than
  the rounding of ``F``, ``sigma``, ``rho`` and the shifts.
* ``rho = 4 n^2 u ||T||_F``.  LAPACK bounds the error of its symmetric
  eigenvalues by ``p(n) u ||T||_2``, ``p(n)`` a modestly growing
  function of ``n`` (LAPACK Users' Guide, 3rd ed., section 4.7); this
  takes ``p(n) = 4 n^2`` and ``||T||_F >= ||T||_2``.

Every constant grows with ``F``, so for a stack ``F`` is the largest of
its matrices' and the constants bound each of them.  They are Python
floats, which overflow to ``inf`` without a warning.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .operators import SpectralDecomposition, _eigvalsh

__all__ = []

# unit roundoff of float64
_UNIT_ROUNDOFF = 2.0**-53


def _gamma(k: int) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)``."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _inner_length(n: int, *arrays: np.ndarray) -> int:
    """``k`` of products of ``n x n`` matrices of ``arrays``' common
    type: ``n`` when it is real, ``3n`` when complex."""
    return n if np.result_type(*arrays) == np.float64 else 3 * n


def _eig_error(n: int, frob: float) -> float:
    """``rho = 4 n^2 u ||T||_F`` of an ``n x n`` Hermitian ``T`` with
    ``||T||_F`` at most ``frob``."""
    return 4.0 * n * n * _UNIT_ROUNDOFF * frob


def _rounding_bounds(entries: np.ndarray):
    """``(rho, eps)`` of the Hermitian ``entries`` ``T``, or of every
    matrix of a ``(k, n, n)`` stack at once:

    * ``rho`` bounds the error of each eigenvalue ``eigvalsh`` computes;
    * ``eps(alpha, beta)`` bounds the rounding of forming ``M = +-T @ T +
      alpha T + (beta - eta) I`` and of factoring it by Cholesky, for a
      shift ``0 <= eta < |beta|``: success proves ``M_exact >= (eta -
      eps) I``.
    """
    n = entries.shape[-1]
    k = _inner_length(n, entries)
    # a complex entry as its real and imaginary parts
    parts = entries.reshape(-1, n * n).view(np.float64)
    frob2 = float(np.einsum("ij,ij->i", parts, parts).max(initial=0.0))
    rho = _eig_error(n, frob2**0.5)
    spread = (n * frob2) ** 0.5

    def eps(alpha: float, beta: float):
        sigma = frob2 + abs(alpha) * spread + 2.0 * n * abs(beta)
        return 2.0 * (k + 7) * _UNIT_ROUNDOFF * sigma

    return rho, eps


def _factored(stack: np.ndarray) -> bool:
    """Whether one stacked Cholesky factorization of the Hermitian
    matrices of ``stack`` runs to completion.  At orders ``n`` that are
    multiples of 64 from 128 up, each matrix ``A`` is factored as ``[[A,
    0], [0, 1]]``, which proves what a factorization of ``A`` proves
    (module docstring)."""
    n = stack.shape[-1]
    # numpy's bundled OpenBLAS factors those orders slower than n + 1.
    # One cholesky of order n against n + 1, one BLAS thread, 2-core
    # x86-64 host, numpy 2.4.6 with scipy-openblas 0.3.31, fastest of 9
    # interleaved rounds (15 from 320 up): real 128: 142 -> 93 us, 192:
    # 294 -> 220, 256: 1122 -> 886, 320: 1676 -> 1504, 384: 3095 ->
    # 2702, 512: 8799 -> 6340; complex 128: 252 -> 213.  Bordering loses
    # at 96 (45 -> 50) and 160 (145 -> 155).  OpenBLAS's DYNAMIC_ARCH
    # picks its kernels per CPU, so the rule is tuned to this BLAS; where
    # it does not pay, it costs about 10 us a call.  `gap` and
    # `simulate` at dim 128 factor one matrix a call.  On stacks of 2-8
    # at order 128, a loop of calls drew fresh pages for the copy and
    # the factor each time, and bordering cost 193-207 us a matrix
    # against 159-165
    if n >= 128 and n % 64 == 0:
        wide = np.zeros((*stack.shape[:-2], n + 1, n + 1), stack.dtype)
        wide[..., :n, :n] = stack
        wide[..., n, n] = 1.0
        stack = wide
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return False
    return True


def _shifted_diagonals(stack: np.ndarray, shift: float) -> np.ndarray:
    """``stack``, one C-contiguous matrix or ``(k, n, n)`` stack of them,
    with ``shift`` added to the diagonal of each in place (through a
    reshaped view, which only a contiguous array gives)."""
    n = stack.shape[-1]
    stack.reshape(-1, n * n)[:, :: n + 1] += shift
    return stack


def _rounded_up(total: float) -> float:
    """``total * (1 + 4u)``: at least the exact value of a nonnegative
    sum of three terms or fewer that rounded to ``total``, or of one
    correctly rounded sum (``math.fsum``)."""
    return total * (1.0 + 4.0 * _UNIT_ROUNDOFF)


def _contraction_factors(
    stack: np.ndarray, slack: float
) -> np.ndarray | None:
    """``C - eta_C I`` of each Hermitian matrix ``T`` of the ``(k, n,
    n)`` ``stack``, or None when the shift leaves no room at the
    eigenvalues 0 and 1 (``eta_C >= s (1 + s)``, always at ``slack`` 0).

    With ``s = slack``, ``C = (T + s)(1 + s - T) = T - T @ T + s (1 + s)
    I`` and ``eta_C = eps(1, s (1 + s)) + rho (1 + 2s)``, from the
    stack's :func:`_rounding_bounds`.  The eigenvalue ``c(l) = (l + s)(1
    + s - l)`` of ``C`` at each eigenvalue ``l`` of ``T`` is below ``rho
    (1 + 2s)`` outside ``[rho - s, 1 + s - rho]``, so a factorization of
    ``C - eta_C I`` keeps every eigenvalue that ``eigvalsh`` computes in
    ``[-s, 1 + s]``."""
    rho, eps = _rounding_bounds(stack)
    c_const = slack * (1.0 + slack)
    c_shift = eps(1.0, c_const) + rho * (1.0 + 2.0 * slack)
    if not c_shift < c_const:
        return None
    c = np.matmul(stack, stack)
    np.subtract(stack, c, out=c)
    return _shifted_diagonals(c, c_const - c_shift)


def _contractions_certified(stack: np.ndarray, slack: float) -> bool:
    """True when it is proved that ``eigvalsh`` finds every eigenvalue of
    each Hermitian matrix of the ``(k, n, n)`` ``stack`` in ``[-slack, 1
    + slack]``, so that ``operators._contraction_witness`` passes it at
    ``slack``: :func:`_contraction_factors` gives factors, and they
    factor."""
    c = _contraction_factors(stack, slack)
    return c is not None and _factored(c)


def _decreasing_certified(
    steps: np.ndarray, upper: np.ndarray, lower: np.ndarray, slack: float
) -> bool:
    """True when it is proved that ``eigvalsh`` finds every eigenvalue of
    each step of the ``(k, n, n)`` ``steps`` in ``[-slack, 1 + slack]``
    and the least eigenvalue of each ``upper - lower``, as
    ``operators.loewner_margin`` computes it, at least ``-slack``: the
    steps' :func:`_contraction_factors` and :func:`_order_bound`'s ``D +
    (s - eta_D) I`` factor together, in one call."""
    c = _contraction_factors(steps, slack)
    if c is None:
        return False
    return _order_bound(upper - lower, slack, solved=True, joint=c) is not None


def _order_bound(
    d: np.ndarray, slack: float, *, solved: bool,
    joint: np.ndarray | None = None,
) -> float | None:
    """A lower bound that one stacked Cholesky factorization proves on
    the least eigenvalue of each difference ``D = T_n - T_{n+1}`` of the
    ``(k, n, n)`` stack ``d``, as computed and C-contiguous, which it
    shifts in place; None when the factorization fails or the shift
    leaves no room.  The matrices of ``joint``, if any, are factored in
    the same call, and must factor too.

    ``M = D + (s - eta) I``, ``s = slack``, is :func:`_rounding_bounds`'
    form with ``alpha = 1``, ``beta = s`` and no quadratic term, which
    drops only nonnegative terms from both parts of ``eps``, so its
    factorization proves ``D >= (eta - s - eps(1, s)) I``.  With
    ``solved``, the bound is on what ``eigvalsh`` computes of ``D``: ``eta
    = eta_D = eps(1, s) + rho`` gives ``D >= (rho - s) I``, so every
    eigenvalue it computes is at least ``-slack``, which is returned, and
    ``eta_D >= s`` declines.  Without, the bound is on the exact difference
    ``D_x`` of the two stored steps ``D`` was rounded from: ``eta = 0``
    gives ``D_x >= -(s + eps(1, s) + 2 u ||D||_F) I``, as the subtraction
    rounds each entry by at most ``u`` of its own size, so ``||D - D_x||_2
    <= ||D - D_x||_F <= u / (1 - u) ||D||_F``, which ``2 u ||D||_F = rho /
    (2 n^2)`` exceeds; :func:`_rounded_up` takes up the rounding of the
    sum.
    """
    rho, eps = _rounding_bounds(d)
    reserve = eps(1.0, slack) + rho if solved else 0.0
    if not reserve < slack < np.inf:
        return None
    _shifted_diagonals(d, slack - reserve)
    if not _factored(d if joint is None else np.concatenate((joint, d))):
        return None
    if solved:
        return -slack
    n = d.shape[-1]
    return -_rounded_up(slack + eps(1.0, slack) + rho / (2.0 * n * n))


def _norms_certified(stack: np.ndarray, tol: float) -> bool:
    """True when it is proved that the SVD finds ``||S||_2 <= 1 + tol``
    for each square matrix ``S`` of the ``(k, n, n)`` ``stack``, so that
    ``1 - ||S||`` passes ``operators._slack_verdict`` at ``tol``.

    Of ``S``, not Hermitian, :func:`_rounding_bounds`' ``rho`` bounds the
    error of each singular value the SVD computes, ``p(n) u ||S||_2``
    (LAPACK Users' Guide, section 4.9), and ``eps(0, beta)`` the
    rounding of forming and factoring ``beta I - S* S - eta I``: ``S*
    S`` is within ``gamma_k |S*||S|`` entrywise, and the Frobenius norm
    and the trace of ``|S*||S|`` are at most ``F``, as for ``|T||T|``.
    With ``beta = (1 + tol - rho)^2`` and ``eta = eps(0, beta)``, a
    factorization of ``c I - S* S``, ``c = beta - eta``, proves
    ``||S||_2 <= 1 + tol - rho``, so the SVD finds ``||S|| <= 1 + tol``.
    It declines without factoring unless ``1 + tol - rho`` and ``c`` are
    positive and ``c`` finite (``(1 + tol)^2`` overflows at ``tol``
    1e300)."""
    rho, eps = _rounding_bounds(stack)
    reach = 1.0 + tol - rho
    top = reach * reach
    c = top - eps(0.0, top)
    # a reach below 0 would square to a top that proves nothing
    if not (reach > 0.0 and 0.0 < c < np.inf):
        return False
    # a contiguous copy: matmul loops over a strided stack far slower
    adjoint = stack.swapaxes(1, 2).copy()
    if np.iscomplexobj(adjoint):
        np.conjugate(adjoint, out=adjoint)
    gram = np.matmul(adjoint, stack)
    np.negative(gram, out=gram)
    return _factored(_shifted_diagonals(gram, c))


class _Anchor(NamedTuple):
    """A segment anchor of the gap scan, as :func:`_window_closes` reads it.

    ``low`` and ``high`` are the ends of the gap window of its delta and
    ``slack`` the PSD slack ``s``; ``reach``, :func:`_eig_error`'s ``R``
    of ``||T||_F <= sqrt(n) (1 + s)``, bounds ``eigvalsh``'s error on
    any step with every eigenvalue in ``[-s, 1 + s]``, and ``sigma = 16
    n u (1 + s)`` is the shift of each order factorization.  ``under``
    is the anchor's largest eigenvalue below the window (None when there
    is none), ``top`` its largest, and ``rho`` their ``eigh`` error.
    ``basis`` holds, as rows, the adjoints of its eigenvectors whose
    eigenvalues count as 1 (``>= high``; None when there is none), and
    ``ortho`` bounds ``||V* V - I||_2`` of their columns ``V``."""

    low: float
    high: float
    slack: float
    reach: float
    sigma: float
    under: float | None
    top: float
    rho: float
    basis: np.ndarray | None
    ortho: float


def _anchor_of(
    decomp: SpectralDecomposition, entries: np.ndarray, low: float,
    high: float, slack: float,
) -> _Anchor | None:
    """The anchor at a decomposed step whose eigenvalues avoid the gap
    window ``(low, high)``, or None where no window could close on it:
    where ``2 R`` leaves no room at the eigenvalue 1 that fixed spaces
    hold (``2 R >= 1 - high``) or at 0 (``2 R >= s``), always at
    ``tol_eig`` 0 or ``tol_psd`` 0 and where ``R`` overflows (at
    ``tol_psd`` 1e300, say), where the anchor's own eigenvalues fail
    :func:`_window_closes`' first two tests with no rise, or where its
    basis is too far from orthonormal (``e >= 1/2``).  ``e = 2 (||V* V -
    I||_F + r gamma_k)``, of ``V* V - I`` as computed, exceeds the true
    ``||V* V - I||_2`` while ``r gamma_k <= 1/4``."""
    n = entries.shape[0]
    reach = _eig_error(n, n**0.5) * (1.0 + slack)
    if not (2.0 * reach < 1.0 - high and 2.0 * reach < slack < np.inf):
        return None
    rho = _rounding_bounds(entries)[0]
    eigenvalues = decomp.eigenvalues
    r = int(np.count_nonzero(eigenvalues >= high))
    under = float(eigenvalues[n - r - 1]) if r < n else None
    top = float(eigenvalues[-1])
    if under is not None and math.fsum((under, rho, reach, -low)) > 0:
        return None
    if math.fsum((top, rho, reach, -1.0, -slack)) > 0:
        return None
    basis, ortho = None, 0.0
    if r:
        basis = decomp.eigenvectors[:, n - r :].conj().T.copy()
        k = _inner_length(n, basis)
        gram = _shifted_diagonals(basis @ basis.conj().T, -1.0)
        drift = float(np.vdot(gram, gram).real) ** 0.5
        ortho = 2.0 * (drift + r * _gamma(k))
        if not (ortho < 0.5 and r * _gamma(k) <= 0.25):
            return None
    sigma = 16.0 * n * _UNIT_ROUNDOFF * (1.0 + slack)
    return _Anchor(
        low, high, slack, reach, sigma, under, top, rho, basis, ortho
    )


def _window_closes(
    anchor: _Anchor, rise: float, drop: float, last: np.ndarray
) -> bool:
    """True when it is proved that ``eigvalsh`` finds every eigenvalue of
    every step ``T_m`` of a window outside ``anchor``'s gap window
    ``(low, high)`` and inside ``[-s, 1 + s]``, so that
    ``gaps.has_gap_at`` passes each.

    The window's order is proved: ``T_m <= T_a + rise I`` for the anchor
    ``T_a`` and ``T_m >= T_b - drop I`` for its last step ``T_b``, whose
    entries ``last`` are.  By Weyl's monotonicity theorem (Horn and
    Johnson, *Matrix Analysis*, 2nd ed., Cor. 4.3.12), ``lambda_k(T_m)
    <= lambda_k(T_a) + rise`` and ``lambda_k(T_m) >= lambda_k(T_b) -
    drop`` for every ``k``.  With ``r`` the anchor's eigenvalues ``>=
    high`` and ``R`` the ``eigvalsh`` error bound (:class:`_Anchor`), the
    window closes when

    * ``under + rho + rise + R <= low`` (the ``n - r`` lower eigenvalues)
      and ``top + rho + rise + R <= 1 + s``, summed exactly
      (``math.fsum``), so no solve is spent on a window these refuse;
    * a Cholesky factorization of ``T_b + c I``, ``c = s - eps(1, s) -
      drop - R`` (rounded down), proves ``lambda_min(T_b) >= -c - eps(1,
      c) >= R + drop - s`` (:func:`_rounding_bounds`);
    * with ``r > 0``, the compression ``G = V* T_b V`` on the anchor's
      top eigenvectors ``V`` has ``lambda_min(G) >= g = nu - rho_G - E``:
      ``nu`` is the least eigenvalue ``eigvalsh`` computes, ``rho_G = 4
      r^2 u sqrt(2) ||G||_F`` its error, as computed (the Hermitian
      matrix it reads from one triangle has ``||.||_F <= sqrt(2)
      ||G||_F``), and ``E = 2 gamma_(2k) r (1 + e) sqrt(n) (1 + s)``
      twice the compression's rounding, the factor 2 for the rounding of
      ``E`` itself: ``G`` as computed is within ``gamma_(2k) |V*||T_b||V|``
      entrywise of the exact product (two products, ``gamma_k + gamma_k
      (1 + gamma_k) <= gamma_(2k)``), a symmetric bound with ``||.||_F``
      at most ``||V||_F^2 ||T_b||_F <= r (1 + e) sqrt(n) (1 + s)`` by the
      two tests above.  With ``V = Q P``, ``Q`` orthonormal and ``P* P =
      V* V``, Ostrowski's theorem (Horn and Johnson, Thm. 4.5.9) gives
      ``lambda_min(Q* T_b Q) >= g / (1 + e) >= g - e |nu|``, and Cauchy
      interlacing (Cor. 4.3.37) puts it below the top ``r`` eigenvalues
      of ``T_b``; the test is ``g - e |nu| >= high + drop + R``, summed
      exactly.

    Then every ``T_m`` has its lower ``n - r`` eigenvalues at most ``low
    - R``, its top ``r`` at least ``high + R`` and all of them in ``[R -
    s, 1 + s - R]``, so ``||T_m||_F <= sqrt(n) (1 + s)`` and what
    ``eigvalsh`` computes passes the rule.
    """
    s, reach = anchor.slack, anchor.reach
    if anchor.under is not None and math.fsum(
        (anchor.under, anchor.rho, rise, reach, -anchor.low)
    ) > 0:
        return False
    if math.fsum((anchor.top, anchor.rho, rise, reach, -1.0, -s)) > 0:
        return False
    _, eps = _rounding_bounds(last)
    floor = eps(1.0, s)
    shift = (s - _rounded_up(floor + drop + reach)) * (
        1.0 - 2.0 * _UNIT_ROUNDOFF
    )
    if not shift > 0.0:
        return False
    if not _factored(_shifted_diagonals(last.copy(), shift)):
        return False
    basis = anchor.basis
    if basis is None:
        return True
    r = basis.shape[0]
    n = last.shape[0]
    k = _inner_length(n, basis, last)
    g = basis @ (last @ basis.conj().T)
    nu = float(_eigvalsh(g)[0])
    rho_g = _eig_error(r, (2.0 * float(np.vdot(g, g).real)) ** 0.5)
    rounding = 2.0 * _gamma(2 * k) * r * (1.0 + anchor.ortho) * n**0.5 * (
        1.0 + s
    )
    spread = _rounded_up(anchor.ortho * abs(nu))
    return math.fsum(
        (nu, -rho_g, -rounding, -spread, -drop, -reach, -anchor.high)
    ) >= 0
