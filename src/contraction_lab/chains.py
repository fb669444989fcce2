"""Generators for decreasing chains of positive contractions.

A chain is a sequence ``T_1 >= T_2 >= ... >= 0`` of positive
contractions on a fixed finite-dimensional space.  Generators produce
them from eigenvalue curves, from random Schur-style decrements, or from
engineered spectra with a guaranteed gap below the 1-cluster.

Every generator is deterministic given its spec and seed, so chains can
be rebuilt bit-for-bit from a JSON document.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .certify import _contractions_certified
from .config import DEFAULT, DEFAULT_HORIZON
from .errors import ChainGenerationError, ChainSpecError, PreconditionError
from .operators import (
    Operator,
    SpectralDecomposition,
    _contraction_witness,
    _eigvalsh,
    _hermitized,
    _stored_operator,
    is_positive_contraction,
    spectral_decompose,
)

__all__ = [
    "Curve",
    "const",
    "harmonic_to",
    "affine_harmonic",
    "geometric",
    "peel",
    "ContractionChain",
    "ChainSpec",
    "diagonal_chain",
    "conjugated_diagonal_chain",
    "schur_decrement_chain",
    "gap_engineered_chain",
    "near_one_accumulating_chain",
    "halving_decrement_sampler",
    "random_schur_chain",
    "random_orthogonal",
    "stream_rng",
    "parse_chain_spec",
    "build_chain",
]

# A spec whose run would hold more than this many entries (1 GiB of
# float64) is refused before anything is allocated.  A Schur chain is
# counted at dim * dim * horizon entries, though it stores
# dim (dim + 1) / 2 a step (each step's upper triangle, see _pack) and
# holds one full block: the ceiling keeps a 2x margin on its store.  A
# curve-built chain holds its dim x horizon curve table and one block;
# a run over it adds the six horizon x (dim + 5) trace arrays of
# iterate_products, their summaries and a few dim x dim matrices.  That
# is counted as 16 * (dim + 5) * (dim + horizon): simulate peaked 8.5
# and 9.1 times (dim + 5) * (dim + horizon) float64 above its imports at
# dim 8, horizon 100000 and at dim 64, horizon 10000.
CACHE_CEILING = 2**27

# A chain builds and stores its steps in blocks of consecutive steps
# whose complex dim x dim matrices fit in this many bytes, and the
# per-step work over a chain (its order check, the product engine's
# metrics) goes a block at a time: one numpy or LAPACK call per block
# instead of per step where matrices are tiny and call overhead
# dominates, and one step per block from dim 64 up.  A 1 MiB budget was
# no faster on ``verify`` and cost 3 MB of resident memory.
_BLOCK_BYTES = 64 * 1024

# spawn-key namespaces so independent draws never share a stream
_STREAM_CONJUGATION = 1
_STREAM_SCHUR_INIT = 2
_STREAM_SCHUR_STEP = 3
_STREAM_GAP = 4
_STREAM_NEAR_ONE = 5

# a Schur chain's free start eigenvalues are drawn from [this, top)
_SCHUR_LEAST = 0.1


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, namespace, index...) tuples."""
    if seed is None:
        raise PreconditionError(
            "seeded stream requires an explicit seed; None would draw "
            "OS entropy and break reproducibility"
        )
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix, deterministic given the generator state."""
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


@dataclass(frozen=True)
class Curve:
    """One eigenvalue as a function of the step index ``n >= 1``.

    Every tag has a closed-form limit, so every curve-built chain
    carries its analytic limit operator.
    """

    tag: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown curve tag {self.tag!r}")

    def values(self, horizon: int) -> np.ndarray:
        """The curve at the steps ``n = 1..horizon``."""
        steps = np.arange(1, horizon + 1, dtype=float)
        return _TAGS[self.tag].values(*self.params, steps)

    @property
    def limit(self) -> float:
        return _TAGS[self.tag].limit(*self.params)

    def to_spec(self) -> list:
        return [self.tag, *self.params]


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def _affine_rule(offset, slope) -> tuple[float, float]:
    offset, slope = float(offset), float(slope)
    if not (offset >= 0.0 and slope >= 0.0 and offset + slope <= 1.0 + 1e-12):
        raise ValueError(
            f"affine_harmonic needs offset, slope >= 0 and peak <= 1, "
            f"got {offset} + {slope}"
        )
    return offset, slope


def _peel_rule(stage, level, decay) -> tuple[float, float, float]:
    if not float(stage).is_integer():
        raise ValueError(f"peel stage must be a whole number, got {stage}")
    stage = int(stage)
    if stage < 1:
        raise ValueError(f"peel stage must be >= 1, got {stage}")
    level = _check_unit("peel level", level)
    decay = float(decay)
    if not 0.0 < decay <= 1.0:
        raise ValueError(f"peel decay must lie in (0, 1], got {decay}")
    return float(stage), level, decay


def _pow(base: float, exponents: np.ndarray) -> np.ndarray:
    # libm's pow, which Python's scalar ``**`` calls; ``np.power`` rounds
    # differently on some builds (SIMD loops)
    return np.array([math.pow(base, e) for e in exponents.tolist()])


def _peel_values(stage, level, decay, steps: np.ndarray) -> np.ndarray:
    # 1 before the stage; the power only from the stage on, where its
    # exponent is nonnegative and cannot overflow
    values = np.ones(steps.size)
    due = steps >= stage
    values[due] = level * _pow(decay, steps[due] - stage)
    return values


class _Tag(NamedTuple):
    # parameter names; rule that checks the parameters and returns them
    # normalized; values at the float steps 1..h; closed-form limit
    names: tuple[str, ...]
    rule: Callable[..., tuple[float, ...]]
    values: Callable[..., np.ndarray]
    limit: Callable[..., float]


_TAGS = {
    "const": _Tag(
        ("c",),
        lambda c: (_check_unit("const level", c),),
        lambda c, steps: np.full(steps.size, c, dtype=float),
        lambda c: c,
    ),
    "harmonic_to": _Tag(
        ("c",),
        lambda c: (_check_unit("harmonic target", c),),
        lambda c, steps: c + (1.0 - c) / steps,
        lambda c: c,
    ),
    "affine_harmonic": _Tag(
        ("a", "b"),
        _affine_rule,
        lambda a, b, steps: a + b / steps,
        lambda a, b: a,
    ),
    "geometric": _Tag(
        ("r",),
        lambda r: (_check_unit("geometric ratio", r),),
        lambda r, steps: _pow(r, steps),
        lambda r: 1.0 if r == 1.0 else 0.0,
    ),
    "peel": _Tag(
        ("stage", "level", "decay"),
        _peel_rule,
        _peel_values,
        lambda stage, level, decay: level if decay == 1.0 else 0.0,
    ),
}


def _curve(tag: str, *params) -> Curve:
    """A curve whose parameters have passed its tag's rule."""
    return Curve(tag, _TAGS[tag].rule(*params))


def const(level: float) -> Curve:
    return _curve("const", level)


def harmonic_to(target: float) -> Curve:
    """``target + (1 - target)/n``: starts at 1, decays to ``target``."""
    return _curve("harmonic_to", target)


def affine_harmonic(offset: float, slope: float) -> Curve:
    """``offset + slope/n`` with both parts nonnegative and peak <= 1
    (a NaN part fails the test)."""
    return _curve("affine_harmonic", offset, slope)


def geometric(ratio: float) -> Curve:
    return _curve("geometric", ratio)


def peel(stage: int, level: float, decay: float) -> Curve:
    """Hold at 1 before ``stage``, then drop to ``level`` and decay.

    The one-step drop followed by a geometric slide is what lets a
    coordinate leave the 1-cluster *into* a prescribed band below 1.
    """
    return _curve("peel", stage, level, decay)


def _block_steps(dim: int) -> int:
    """Consecutive steps per block in dimension ``dim``."""
    return max(1, _BLOCK_BYTES // (16 * dim * dim))


@functools.lru_cache(maxsize=16)
def _triangle(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For a ``dim x dim`` matrix read flat: the indices of its upper
    triangle, row by row (the packed layout); for each entry, the index
    of the packed entry it reads (its own, or its mirror's below the
    diagonal); and the mask of the strict lower triangle.  Read-only,
    since every caller shares them."""
    rows, cols = np.triu_indices(dim)
    mirror = np.empty((dim, dim), dtype=np.intp)
    mirror[rows, cols] = mirror[cols, rows] = np.arange(len(rows))
    arrays = rows * dim + cols, mirror.ravel(), np.tri(dim, k=-1, dtype=bool)
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _pack(stack: np.ndarray) -> np.ndarray:
    """A hermitized ``(k, dim, dim)`` stack as the upper triangles of its
    matrices, a ``(k, dim (dim + 1) / 2)`` array of its dtype, that
    :func:`_unpack` gives back bit for bit.

    A real ``(M + M*) / 2`` rounds the same sum into ``h_ij`` and
    ``h_ji``, so it is symmetric bit for bit.  A complex one is the
    conjugate of its upper triangle below the diagonal except, at
    times, for the sign of a zero part, which the upper triangle does
    not fix (its halving is a complex product, whose real part at
    ``[i, j]`` is ``re * 0.5 - im * 0``): a complex stack that
    :func:`_unpack` would not give back byte for byte is returned as it
    is."""
    k, dim = len(stack), stack.shape[-1]
    upper, _, _ = _triangle(dim)
    packed = np.take(stack.reshape(k, dim * dim), upper, axis=1)
    if np.iscomplexobj(stack):
        if _unpack(packed).tobytes() != stack.tobytes():
            return stack
    return packed


def _unpack(packed: np.ndarray) -> np.ndarray:
    """The full ``(k, dim, dim)`` stack that :func:`_pack` made
    ``packed`` from: the upper triangles as stored, and below the
    diagonal their conjugates, with a zero imaginary part ``+0.0``.  A
    stack that was kept whole is returned as it is."""
    if packed.ndim == 3:
        return packed
    k, size = packed.shape
    dim = math.isqrt(8 * size + 1) // 2
    _, mirror, lower = _triangle(dim)
    full = np.take(packed, mirror, axis=1).reshape(k, dim, dim)
    if np.iscomplexobj(full):
        np.subtract(0.0, full.imag, out=full.imag, where=lower)
    return full


class _Steps:
    """A step source: ``stack(first, stop, chain)`` returns steps
    ``first .. first + k - 1``, ``1 <= k <= stop - first + 1``, as a
    hermitized ``(k, dim, dim)`` stack of one dtype, each matrix as
    ``operators._hermitized`` gives it (so :func:`_pack` keeps it
    exactly).  A recursive source reads earlier steps from ``chain``,
    the chain being built, and keeps no reference to it; the chain lays
    the steps out in blocks.

    A ``whole`` source returns every step asked for, each a function of
    its index alone, so the chain stores nothing, holds only the block
    it read last and asks again for any other; it is asked for whole
    blocks.  Any other is recorded, and is asked for steps up to the
    run's last step at most, and may work ahead to there."""

    whole = False

    def stack(self, first: int, stop: int, chain=None) -> np.ndarray:
        raise NotImplementedError


class _PerStep(_Steps):
    """A ``Callable[[int], Operator]`` as a source: one step per call.
    A value that is not an :class:`Operator` is refused: its entries
    need not be hermitized."""

    def __init__(self, factory: Callable[[int], Operator]):
        self._factory = factory

    def stack(self, first: int, stop: int, chain=None) -> np.ndarray:
        op = self._factory(first)
        if not isinstance(op, Operator):
            raise ChainGenerationError(
                f"step {first} is of type {type(op).__name__}, not an "
                f"Operator"
            )
        return op.entries[None]


def _as_steps(factory: Callable[[int], Operator]) -> _Steps:
    """A source for a per-step factory; a source is its own."""
    return factory if isinstance(factory, _Steps) else _PerStep(factory)


class ContractionChain:
    """Lazy, memoized view of a decreasing chain of positive contractions.

    ``operator_at(n)`` is 1-based and defined for ``1 <= n <= horizon``.
    Steps come in blocks of consecutive steps, each of one dtype, of at
    most ``_block_steps(dim)`` steps.  The chain holds one block in
    full, a read-only ``(block, dim, dim)`` stack: ``step_blocks`` hands
    out slices of it, and ``operator_at(n)`` is an :class:`Operator`
    over the step in it, so a step read while its block is handed out
    shares the block's memory.

    A curve-built chain stores nothing: its source hands out a whole
    block ``F diag(values_n) F^T`` for a fixed orthogonal frame ``F`` at
    once, and the chain computes the block of any step it is asked for
    from the curve table, bit for bit the same each time, and holds the
    one it computed last.  Every other chain records every step it
    built, in step order: the Schur recurrence reads earlier steps, and
    a per-step ``factory`` (a ``Callable[[int], Operator]``) need not be
    pure.  Both hand out one step per call; the chain alone lays the
    record out.  It builds a block in full, the open block, copying a
    stack that does not fill it in, and closes it when it is full or a
    step of another dtype starts the next block.  A closed block is
    stored as its steps' upper triangles (:func:`_pack`), since every
    step is Hermitian: ``dim (dim + 1) / 2`` entries a step, which
    :func:`_unpack` turns back into the full block bit for bit.  The
    block held is the one built last or unpacked last; an open block
    that is not yet full stays stored in full, so a read of an earlier
    block before it fills holds two.  The Schur recurrence draws its
    decrements ahead no further than the last step of the latest run
    (:meth:`run_horizon`).  Blocks are built behind a lock, so
    recursively defined chains stay consistent under concurrent access.

    The store holds the operators only, not their eigenvectors, which
    would store another ``dim x dim`` matrix for every step.
    ``decomposition_at(n)`` keeps the one ``eigh`` it computed last in a
    one-slot handover under the same lock, so two consumers of the same
    step share one solve when they ask in turn: the Schur generator
    needs ``T_n``'s decomposition for ``T_n^{1/2}``, and a walk over the
    chain in step order asks for it again for ``T_n``'s fixed space.
    """

    def __init__(
        self,
        dim: int,
        kind: str,
        horizon: int,
        factory: Callable[[int], Operator],
        *,
        analytic_limit: Operator | None = None,
        seed: int | None = None,
        gap_guarantee: float | None = None,
    ):
        _check(None, horizon=horizon)
        self.dim = dim
        self.kind = kind
        self.horizon = horizon
        self.seed = seed
        self.analytic_limit = analytic_limit
        self.gap_guarantee = gap_guarantee
        self._steps = _as_steps(factory)
        # the recorded blocks in step order (each closed one packed, an
        # open one in full), the first step of each, the last step built
        # and the latest run's last step; a whole source records
        # nothing and counts as built to the horizon.  Then the first
        # step and the block held in full: a whole source's computed
        # last, any other's built or unpacked last
        self._blocks: list[np.ndarray] = []
        self._firsts: list[int] = []
        self._built = horizon if self._steps.whole else 0
        self._reach = horizon
        self._held: tuple[int, np.ndarray] | None = None
        self._handover: tuple[int, SpectralDecomposition] | None = None
        self._lock = threading.RLock()

    def _build(self, n: int) -> None:
        """Build every step up to ``n``; the caller holds the lock."""
        dim = self.dim
        while self._built < n:
            step = self._built + 1
            size = min(self.horizon - step + 1, _block_steps(dim))
            start, block = step, None
            last = self._blocks[-1] if self._blocks else None
            if last is not None and step < self._firsts[-1] + len(last):
                start, block = self._firsts[-1], last  # open
            end = start + (size if block is None else len(block)) - 1
            end = min(end, max(n, self._reach))
            got = self._steps.stack(step, end, self)
            if got.shape[1:] != (dim, dim):
                raise ChainGenerationError(
                    f"step {step} has dim {got.shape[-1]}, chain has dim "
                    f"{dim}"
                )
            if block is not None and got.dtype != block.dtype:
                # a block holds one dtype: close it at the steps built
                self._blocks[-1] = _pack(block[: step - start])
                block = None
            if block is None:
                start, block = step, got
                if len(got) < size:
                    block = np.empty((size, dim, dim), got.dtype)
                self._blocks.append(block)
                self._firsts.append(step)
            if block is not got:
                block[step - start : step - start + len(got)] = got
            self._built = step + len(got) - 1
            self._held = (start, block)
            if self._built == start + len(block) - 1:
                self._blocks[-1] = _pack(block)

    def _block_of(self, n: int) -> tuple[int, np.ndarray]:
        """The first step and the full block that hold step ``n``, made
        the block held: a whole source's computed, any other's built up
        to ``n`` and unpacked unless it is held or open; the caller
        holds the lock.  The rows of an open block past the last step
        built are not yet written."""
        if not 1 <= n <= self.horizon:
            raise PreconditionError(
                f"step {n} outside materialized range 1..{self.horizon}"
            )
        if self._steps.whole:
            size = _block_steps(self.dim)
            first = n - (n - 1) % size
            if self._held is None or self._held[0] != first:
                stop = min(first + size - 1, self.horizon)
                self._held = (first, self._steps.stack(first, stop, self))
            return self._held
        self._build(n)
        k = bisect.bisect_right(self._firsts, n) - 1
        if self._held is None or self._held[0] != self._firsts[k]:
            self._held = (self._firsts[k], _unpack(self._blocks[k]))
        return self._held

    def _entries(self, n: int) -> np.ndarray:
        """Step ``n``'s entries in the block held, read-only."""
        with self._lock:
            first, block = self._block_of(n)
            entries = block[n - first]
        entries.setflags(write=False)
        return entries

    def operator_at(self, n: int) -> Operator:
        return _stored_operator(self._entries(n))

    def run_horizon(self, horizon: int | None = None) -> int:
        """The last step of a run (default: the chain's), refused outside
        ``1 .. self.horizon`` before any run reads a step.  A one-step
        source works ahead no further than it."""
        h = self.horizon if horizon is None else horizon
        if not 1 <= h <= self.horizon:
            raise PreconditionError(
                f"horizon {h} outside materialized range 1..{self.horizon}"
            )
        with self._lock:
            self._reach = h
        return h

    def step_blocks(self, horizon: int | None = None) -> Iterator[np.ndarray]:
        """Steps ``1 ..`` :meth:`run_horizon` as read-only stacks of
        consecutive steps in step order, one per block, each built when
        it is reached and a slice of the block held when handed out."""
        h = self.run_horizon(horizon)
        n = 1
        while n <= h:
            with self._lock:
                first, block = self._block_of(n)
                self._build(min(first + len(block) - 1, h))
                # a step of another dtype may have closed the block early
                first, block = self._block_of(n)
                last = min(first + len(block) - 1, h)
                stack = block[n - first : last - first + 1]
            stack.setflags(write=False)
            yield stack
            n = last + 1

    def decomposition_at(self, n: int) -> SpectralDecomposition:
        """``eigh`` of ``T_n``, taken from the handover slot when the last
        decomposition computed was this step's, else computed and left
        there.  Its arrays are read-only, since every taker shares them."""
        with self._lock:
            # the slot first: a step decomposed is built, and the Schur
            # generator's read of T_{n-1} then needs no block
            held = self._handover
            if held is not None and held[0] == n:
                return held[1]
            # building T_n may itself decompose T_{n-1} (Schur)
            op = _stored_operator(self._entries(n))
            decomp = spectral_decompose(op)
            decomp.eigenvalues.setflags(write=False)
            decomp.eigenvectors.setflags(write=False)
            self._handover = (n, decomp)
            return decomp

    def __repr__(self):
        return (
            f"ContractionChain(kind={self.kind!r}, dim={self.dim}, "
            f"horizon={self.horizon}, seed={self.seed})"
        )


def _curve_table(
    curves: Sequence[Curve], horizon: int
) -> np.ndarray:
    """Sample all curves on 1..horizon.  The first curve that leaves
    ``[0, 1]`` or, failing that, increases is refused at its first
    faulty step."""
    table = np.empty((len(curves), horizon))
    slack = 1e-12
    for k, curve in enumerate(curves):
        row = table[k] = curve.values(horizon)
        bad_range = np.where((row < -slack) | (row > 1.0 + slack))[0]
        if bad_range.size:
            n = int(bad_range[0]) + 1
            raise ChainGenerationError(
                f"curve {k} leaves [0, 1] at n={n}: value {row[n - 1]}"
            )
        rising = np.where(np.diff(row) > slack)[0]
        if rising.size:
            n = int(rising[0]) + 1
            raise ChainGenerationError(
                f"curve {k} increases at n={n}: "
                f"{row[n - 1]} -> {row[n]}"
            )
    return np.clip(table, 0.0, 1.0)


def diagonal_chain(
    curves: Sequence[Curve],
    dim: int | None = None,
    horizon: int = DEFAULT_HORIZON,
    *,
    seed: int | None = None,
) -> ContractionChain:
    """Chain of diagonal contractions, one eigenvalue curve per coordinate.

    Curves are sampled up to the horizon at build time; a curve that
    leaves ``[0, 1]`` or increases anywhere is rejected with the
    offending coordinate and step in the message.  The chain is the
    conjugated one with the identity frame: multiplying by ``I`` is
    exact in float64, so every operator is exactly ``diag`` of its
    sampled values.
    """
    curves = list(curves)
    dim = len(curves) if dim is None else dim
    _check("diagonal", dim=dim, horizon=horizon, seed=seed, curves=curves)
    return _conjugated_chain(
        curves, horizon, np.eye(dim), kind="diagonal", seed=seed
    )


def _conjugated_chain(
    curves: Sequence[Curve],
    horizon: int,
    frame: np.ndarray,
    *,
    kind: str,
    seed: int | None,
    gap_guarantee: float | None = None,
) -> ContractionChain:
    """The chain of ``curves`` conjugated by ``frame``, one curve per
    coordinate, whose arguments have passed :func:`_check`."""
    limits = [float(c.limit) for c in curves]
    analytic = Operator((frame * limits) @ frame.T)
    return ContractionChain(
        len(frame), kind, horizon,
        _CurveSteps(_curve_table(curves, horizon), frame),
        analytic_limit=analytic, seed=seed, gap_guarantee=gap_guarantee,
    )


class _CurveSteps(_Steps):
    """Steps ``F diag(table[:, n - 1]) F^T`` of a sampled curve table,
    a whole stack in one matrix product; each is exactly what
    ``Operator((F * table[:, n - 1]) @ F.T)`` holds."""

    whole = True

    def __init__(self, table: np.ndarray, frame: np.ndarray):
        self._table = table
        self._frame = frame

    def stack(self, first: int, stop: int, chain=None) -> np.ndarray:
        values = self._table[:, first - 1 : stop].T
        frame = self._frame
        return _hermitized((frame * values[:, None, :]) @ frame.T)


def conjugated_diagonal_chain(
    curves: Sequence[Curve],
    dim: int | None = None,
    horizon: int = DEFAULT_HORIZON,
    *,
    seed: int,
) -> ContractionChain:
    """Diagonal curves conjugated by one seeded orthogonal frame.

    Conjugation by a fixed frame preserves the Loewner order, so the
    chain inherits monotonicity from the curves while exercising dense
    matrices downstream.
    """
    curves = list(curves)
    dim = len(curves) if dim is None else dim
    kind = "conjugated_diagonal"
    _check(kind, dim=dim, horizon=horizon, seed=seed, curves=curves)
    frame = random_orthogonal(dim, stream_rng(seed, _STREAM_CONJUGATION))
    return _conjugated_chain(curves, horizon, frame, kind=kind, seed=seed)


def _psd_sqrt(decomp: SpectralDecomposition) -> np.ndarray:
    w, v = decomp.eigenvalues, decomp.eigenvectors
    # eigenvalues inside -tol_psd are noise; clip before the square root
    tol = DEFAULT.psd(decomp.dim)
    if w[0] < -tol:
        raise ChainGenerationError(
            f"cannot take PSD square root: eigenvalue {w[0]}"
        )
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def schur_decrement_chain(
    first: Operator,
    decrement_sampler: Callable[[int], Operator],
    horizon: int = DEFAULT_HORIZON,
    *,
    seed: int | None = None,
) -> ContractionChain:
    """Chain built by ``T_{n+1} = T_n^{1/2} (I - D_n) T_n^{1/2}``.

    The difference ``T_n - T_{n+1} = T_n^{1/2} D_n T_n^{1/2}`` is PSD for
    any ``0 <= D_n <= I``, so the ordering holds by construction.  The
    sampler must be a pure function of the step index; samplers that
    emit anything but a positive contraction are rejected at the step
    they would build.  The decrements a sampler hands out together (a
    block of them from :func:`halving_decrement_sampler`, one from any
    other) are proved positive contractions by one stacked Cholesky
    factorization of their entries; where it cannot prove it, one
    stacked ``eigvalsh`` checks them and words any refusal.  No analytic
    limit is attached.
    ``T_n^{1/2}`` comes from the chain's ``decomposition_at(n)``, so a
    caller that decomposes ``T_n`` in step order shares that solve.
    """
    check = is_positive_contraction(first)
    if not check:
        raise ChainGenerationError(
            f"starting operator is not a positive contraction: "
            f"eigenvalue {check.witness}"
        )
    return ContractionChain(
        first.dim,
        "schur_decrement",
        horizon,
        _SchurSteps(first, _as_steps(decrement_sampler)),
        analytic_limit=None,
        seed=seed,
    )


class _SchurSteps(_Steps):
    """The Schur recurrence, one step per call.  The decrements are
    drawn, and checked, a block at a time: from the one that makes the
    step asked for up to the one that makes ``stop``, which the chain
    caps at the run's last step.  One stacked Cholesky factorization
    (:func:`certify._contractions_certified`) proves them positive
    contractions; when it cannot, one stacked ``eigvalsh`` decides, and
    each step is refused with its own eigenvalue when it is built."""

    def __init__(self, first: Operator, decrements: _Steps):
        self._first = first.entries
        self._decrements = decrements
        # the decrements drawn last (from step _dec_first) and their
        # eigenvalues, None when the certificate passed them all
        self._dec_first = 0
        self._decs = np.empty((0, 0, 0))
        self._dec_eigs = None

    def stack(self, first, stop, chain):
        if first == 1:
            return self._first[None]
        dim = chain.dim
        k = first - 1  # decrement k makes T_{k+1}
        if not 0 <= k - self._dec_first < len(self._decs):
            self._dec_first = k
            self._decs = self._decrements.stack(k, stop - 1)
            self._dec_eigs = None
            if not _contractions_certified(self._decs, DEFAULT.psd(dim)):
                self._dec_eigs = _eigvalsh(self._decs)
        i = k - self._dec_first
        dec = self._decs[i]
        if dec.shape != (dim, dim):
            raise ChainGenerationError(
                f"decrement at step {k} has dim {dec.shape[0]}, "
                f"chain has dim {dim}"
            )
        if self._dec_eigs is not None:
            check = _contraction_witness(self._dec_eigs[i], DEFAULT.psd(dim))
            if not check:
                raise ChainGenerationError(
                    f"decrement at step {k} is not a positive "
                    f"contraction: eigenvalue {check.witness}"
                )
        root = _psd_sqrt(chain.decomposition_at(k))
        eye = np.eye(dim, dtype=root.dtype)
        return _hermitized((root @ (eye - dec) @ root)[None])


class _HalvingSampler(_Steps):
    """See :func:`halving_decrement_sampler`."""

    def __init__(self, dim: int, seed: int, fixed_rank: int, frame):
        self._dim = dim
        self._seed = seed
        self._fixed_rank = fixed_rank
        self._frame = frame

    def __call__(self, n: int) -> Operator:
        entries = self.stack(n, n)[0]
        entries.setflags(write=False)
        return _stored_operator(entries)

    def stack(self, first: int, stop: int, chain=None) -> np.ndarray:
        fixed = self._fixed_rank
        steps = range(first, stop + 1)
        free = self._dim - fixed
        # each step keeps its own stream; one QR for the stack
        gauss = np.empty((len(steps), free, free))
        weights = np.empty((len(steps), free))
        for i, n in enumerate(steps):
            rng = stream_rng(self._seed, _STREAM_SCHUR_STEP, n)
            gauss[i] = rng.standard_normal((free, free))
            weights[i] = rng.uniform(0.0, 1.0, size=free)
        # 2^-n exactly, as Python's 0.5**n
        weights *= np.ldexp(1.0, -np.arange(first, stop + 1))[:, None]
        # Q is Haar up to the signs of its columns, which B diag(w) B^T
        # does not see
        basis = self._frame[:, fixed:] @ np.linalg.qr(gauss)[0]
        return _hermitized(
            (basis * weights[:, None, :]) @ basis.swapaxes(1, 2)
        )


def halving_decrement_sampler(
    dim: int, seed: int, *, fixed_rank: int = 0
) -> Callable[[int], Operator]:
    """Random PSD contractions scaled by ``2^-n``.

    Step ``n``'s decrement is ``B diag(w) B^T``, drawn from step ``n``'s
    own stream: ``w`` holds ``uniform(0, 1)`` weights times ``2^-n``, and
    ``B`` is the last ``dim - fixed_rank`` columns of the identity times
    the ``Q`` of a Gaussian matrix's QR factorization, a Haar-random
    basis up to the signs of its columns, which ``B diag(w) B^T`` does
    not see.  So with ``fixed_rank > 0`` the decrements vanish on the
    leading ``fixed_rank`` coordinates, and that subspace stays fixed
    along the whole chain (:func:`random_schur_chain` draws its
    decrements this way in its own orthogonal frame).  ``sampler(n)``
    is step ``n``'s decrement; a Schur chain draws a block of steps at
    once, with one stacked ``qr``.
    """
    _check("schur_decrement", dim=dim, seed=seed, fixed_rank=fixed_rank)
    return _HalvingSampler(dim, seed, fixed_rank, np.eye(dim))


def random_schur_chain(
    dim: int,
    seed: int,
    horizon: int = DEFAULT_HORIZON,
    *,
    fixed_rank: int = 0,
    top: float = 0.9,
) -> ContractionChain:
    """Seeded Schur-decrement chain with a clean convergence profile.

    The start operator has ``fixed_rank`` eigenvalues exactly 1 and the
    rest drawn from ``[0.1, top)``; decrements act only off the fixed
    subspace, so products converge geometrically to the projection onto
    it.
    """
    _check("schur_decrement", dim=dim, horizon=horizon, seed=seed,
           fixed_rank=fixed_rank, top=top)
    rng = stream_rng(seed, _STREAM_SCHUR_INIT)
    frame = random_orthogonal(dim, rng)
    free = dim - fixed_rank
    eigs = np.concatenate(
        [np.ones(fixed_rank), rng.uniform(_SCHUR_LEAST, top, size=free)]
    )
    first = Operator(frame @ np.diag(eigs) @ frame.T)
    sampler = _HalvingSampler(dim, seed, fixed_rank, frame)
    return schur_decrement_chain(first, sampler, horizon, seed=seed)


def gap_engineered_chain(
    dim: int,
    delta: float,
    fixed_rank: int,
    seed: int,
    horizon: int = DEFAULT_HORIZON,
) -> ContractionChain:
    """Chain whose every member has the same gap below the 1-cluster.

    Exactly ``fixed_rank`` eigenvalues sit at 1 for all n; the rest decay
    inside ``[0, 1 - delta]``.  The guarantee is recorded on the chain so
    certificate searches can report analytic scope.
    """
    kind = "gap_engineered"
    _check(kind, dim=dim, horizon=horizon, seed=seed, delta=delta,
           fixed_rank=fixed_rank)
    rng = stream_rng(seed, _STREAM_GAP)
    frame = random_orthogonal(dim, rng)
    free = dim - fixed_rank
    targets = rng.uniform(0.2, 0.9, size=free)
    curves = [const(1.0)] * fixed_rank + [
        affine_harmonic((1.0 - delta) * c, (1.0 - delta) * (1.0 - c))
        for c in targets
    ]
    return _conjugated_chain(
        curves, horizon, frame, kind=kind, seed=seed, gap_guarantee=delta
    )


# Peel depths laddered through the gaps of the default search grid: each
# violation forces the certificate search one grid level down.
_NEAR_ONE_LADDER = (0.3, 0.15, 0.07, 0.03, 0.015, 0.007, 0.003)


def _peel_window(horizon: int) -> tuple[int, int]:
    """First and last step at which :func:`near_one_accumulating_chain`
    stages a peel; its stages lie at least 2 steps apart."""
    return max(4, horizon // 10), horizon - max(40, horizon // 10)


def _near_one_max_dim(horizon: int) -> int:
    """Largest ``dim`` whose ``dim - 1`` peels fit the window, 1 when
    not one peel fits."""
    lo, hi = _peel_window(horizon)
    return max(1, (hi - lo) // 2 + 1)


def near_one_accumulating_chain(
    dim: int,
    seed: int,
    horizon: int = DEFAULT_HORIZON,
) -> ContractionChain:
    """Stress chain whose spectra keep re-entering every band below 1.

    Coordinate 1 stays fixed at 1.  Each remaining coordinate holds at 1
    until its stage, then peels into a band ``(1 - depth, 1)`` and slides
    away geometrically.  Depths descend through the gaps of the default
    search grid and the final peel lands inside the finest band, so a
    certificate search keeps ratcheting its candidate gap down until the
    grid is exhausted, with the fixed-space rank dropping at every hit.

    A decreasing chain cannot move eigenvalues upward toward 1, so the
    crowding is staged in time instead: at any step some coordinate has
    only just left the 1-cluster.  Products still converge fast because
    every peeled coordinate keeps decaying.
    """
    kind = "near_one_accumulating"
    _check(kind, dim=dim, horizon=horizon, seed=seed)
    peel_count = dim - 1
    lo, hi = _peel_window(horizon)
    rng = stream_rng(seed, _STREAM_NEAR_ONE)

    depths = list(_NEAR_ONE_LADDER[: peel_count - 1])
    while len(depths) < peel_count - 1:
        depths.append(float(rng.choice(_NEAR_ONE_LADDER)))
    depths = [d * rng.uniform(0.8, 1.2) for d in depths]
    # final coordinate dives inside the finest default grid band
    depths.append(rng.uniform(2e-4, 8e-4))
    depths.sort(reverse=True)

    # evenly spread stages with seeded wobble; the arithmetic keeps every
    # stage in [lo, hi] and consecutive stages at least 2 apart
    slack = (hi - lo - 2 * (peel_count - 1)) // peel_count
    stages = []
    for i in range(peel_count):
        wobble = int(rng.integers(0, slack + 1)) if slack > 0 else 0
        stages.append(lo + (2 + slack) * i + wobble)

    curves = [const(1.0)] + [
        peel(int(stage), 1.0 - depth, 0.9)
        for stage, depth in zip(stages, depths)
    ]
    return _conjugated_chain(curves, horizon, np.eye(dim), kind=kind, seed=seed)


def _is_int(value) -> bool:
    """The one integer rule: a Python or numpy integer, but not a
    ``bool`` (a JSON ``true`` or ``false``)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _positive_int(value, dim: int) -> bool:
    return _is_int(value) and value >= 1


def _parse_curve(entry, index: int, violations: list[str]) -> Curve | None:
    if not isinstance(entry, (list, tuple)) or not entry:
        violations.append(f"curve {index}: expected [tag, params...]")
        return None
    tag, *params = entry
    spec_tag = _TAGS.get(tag) if isinstance(tag, str) else None
    if spec_tag is None:
        violations.append(f"curve {index}: unknown tag {tag!r}")
        return None
    arity = len(spec_tag.names)
    if len(params) != arity:
        violations.append(
            f"curve {index}: tag {tag!r} takes {arity} parameter(s), "
            f"got {len(params)}"
        )
        return None
    for p in params:
        if not (_is_int(p) or type(p) is float and np.isfinite(p)):
            violations.append(f"curve {index}: {p!r} is not a finite number")
            return None
    try:
        return _curve(tag, *params)
    except (OverflowError, ValueError) as exc:
        violations.append(f"curve {index}: {exc}")
        return None


class _Key(NamedTuple):
    # default when absent; rule on (value, dim); violation message, which
    # formats the value; taken by every kind
    default: object
    rule: Callable[[object, int], bool]
    message: str
    shared: bool = False


_KEYS = {
    "dim": _Key(
        None, _positive_int, "dim must be a positive integer, got {!r}", True
    ),
    "horizon": _Key(
        DEFAULT_HORIZON,
        _positive_int,
        "horizon must be a positive integer, got {!r}",
        True,
    ),
    "seed": _Key(
        None,
        lambda v, dim: v is None or (_is_int(v) and v >= 0),
        "seed must be a nonnegative integer, got {!r}",
        True,
    ),
    "curves": _Key(
        None,
        lambda v, dim: isinstance(v, list) and len(v) > 0,
        "diagonal kinds need a nonempty 'curves' list",
    ),
    "delta": _Key(
        None,
        lambda v, dim: isinstance(v, numbers.Real) and 0.0 < v < 1.0,
        "delta must lie in (0, 1), got {!r}",
    ),
    "fixed_rank": _Key(
        0,
        lambda v, dim: _is_int(v) and 0 <= v <= dim,
        "fixed_rank must be an integer in [0, dim], got {!r}",
    ),
    "top": _Key(
        0.9,
        lambda v, dim: isinstance(v, numbers.Real) and _SCHUR_LEAST <= v < 1,
        f"top must lie in [{_SCHUR_LEAST}, 1), got {{!r}}",
    ),
}


@dataclass(frozen=True)
class ChainSpec:
    """Declarative chain description: what :func:`parse_chain_spec`
    returns for a decoded JSON document, and what :func:`build_chain`
    builds.  ``to_json_dict`` gives back a document that parses to an
    equal spec."""

    kind: str
    dim: int
    horizon: int = _KEYS["horizon"].default
    seed: int | None = _KEYS["seed"].default
    curves: tuple[Curve, ...] | None = _KEYS["curves"].default
    delta: float | None = _KEYS["delta"].default
    fixed_rank: int = _KEYS["fixed_rank"].default
    top: float = _KEYS["top"].default

    def to_json_dict(self) -> dict:
        taken = _KINDS[self.kind].keys
        doc: dict = {"kind": self.kind}
        for key, entry in _KEYS.items():
            value = getattr(self, key)
            if (entry.shared or key in taken) and value is not None:
                if key == "curves":
                    value = [c.to_spec() for c in value]
                doc[key] = value
        return doc


class _Kind(NamedTuple):
    # builder, keys taken besides the shared ones, seed needed, least and
    # largest dim at a horizon, and whether the chain stores every step
    # (else curve-built)
    build: Callable[[ChainSpec], ContractionChain]
    keys: tuple[str, ...] = ()
    seeded: bool = True
    dims: Callable[[int], tuple[int, float]] = lambda horizon: (1, math.inf)
    stores_steps: bool = False


_KINDS = {
    "diagonal": _Kind(
        lambda s: diagonal_chain(s.curves, s.dim, s.horizon, seed=s.seed),
        ("curves",),
        seeded=False,
    ),
    "schur_decrement": _Kind(
        lambda s: random_schur_chain(
            s.dim, s.seed, s.horizon, fixed_rank=s.fixed_rank, top=s.top
        ),
        ("fixed_rank", "top"),
        stores_steps=True,
    ),
    "conjugated_diagonal": _Kind(
        lambda s: conjugated_diagonal_chain(
            s.curves, s.dim, s.horizon, seed=s.seed
        ),
        ("curves",),
    ),
    "gap_engineered": _Kind(
        lambda s: gap_engineered_chain(
            s.dim, s.delta, s.fixed_rank, s.seed, s.horizon
        ),
        ("delta", "fixed_rank"),
    ),
    "near_one_accumulating": _Kind(
        lambda s: near_one_accumulating_chain(s.dim, s.seed, s.horizon),
        dims=lambda horizon: (2, _near_one_max_dim(horizon)),
    ),
}


def _refusals(kind: str | None, values: dict) -> tuple[list[str], dict]:
    """Every rule that ``values``, given for some keys of ``_KEYS``,
    break, and the values that pass their key's own rule.

    A key's rule reads the dim if it passed, else 0.  A passed curve
    list must hold one curve per passed dim.  A known ``kind`` adds its
    dims at a passed horizon and, if seeded, refuses a None seed."""
    refusals: list[str] = []
    passed: dict = {}
    for key, entry in _KEYS.items():
        if key not in values:
            continue
        if entry.rule(values[key], passed.get("dim", 0)):
            passed[key] = values[key]
        else:
            refusals.append(entry.message.format(values[key]))
    dim, horizon = passed.get("dim"), passed.get("horizon")
    curves = passed.get("curves")
    if dim is not None and curves is not None and len(curves) != dim:
        refusals.append(f"{len(curves)} curves for dimension {dim}")
    spec_kind = _KINDS.get(kind)
    if spec_kind is None:
        return refusals, passed
    if dim is not None and horizon is not None:
        lo, hi = spec_kind.dims(horizon)
        if not lo <= dim <= hi:
            refusals.append(
                f"{kind} at horizon {horizon} takes dim {lo}..{hi}, "
                f"got {dim}"
            )
    if spec_kind.seeded and "seed" in values and values["seed"] is None:
        refusals.append(f"kind {kind!r} requires a seed")
    return refusals, passed


def _check(kind: str | None, **values) -> None:
    """Refuse a generator's arguments: one error names every rule of
    :func:`_refusals` that they break."""
    refusals, _ = _refusals(kind, values)
    if refusals:
        raise ChainGenerationError("; ".join(refusals))


def parse_chain_spec(data: dict) -> ChainSpec:
    """Validate a decoded chain spec document, collecting every
    violation: of the key and kind tables, of each curve, and of the
    ceiling on what a run holds."""
    if not isinstance(data, dict):
        raise ChainSpecError(["spec must be a JSON object"])
    violations = [
        f"unknown key {key!r}"
        for key in sorted(set(data) - set(_KEYS) - {"kind"})
    ]
    kind = data.get("kind")
    spec_kind = _KINDS.get(kind) if isinstance(kind, str) else None
    if spec_kind is None:
        violations.append(
            f"unknown kind {kind!r}; expected one of {', '.join(_KINDS)}"
        )
    taken = spec_kind.keys if spec_kind is not None else ()

    fields: dict = {}
    for key, entry in _KEYS.items():
        if entry.shared or key in taken:
            fields[key] = data.get(key, entry.default)
        elif key in data:
            violations.append(f"kind {kind!r} does not take {key!r}")
    refusals, passed = _refusals(kind if spec_kind else None, fields)
    violations += refusals
    if "curves" in passed:
        fields["curves"] = tuple(
            _parse_curve(entry, i, violations)
            for i, entry in enumerate(passed["curves"])
        )

    if spec_kind is not None and "dim" in passed and "horizon" in passed:
        dim, horizon = passed["dim"], passed["horizon"]
        if spec_kind.stores_steps:
            rule, held = "dim * dim * horizon", dim * dim * horizon
            what = "cached operator entries"
        else:
            rule = "16 * (dim + 5) * (dim + horizon)"
            held = 16 * (dim + 5) * (dim + horizon)
            what = "entries a run holds"
        if held > CACHE_CEILING:
            violations.append(
                f"{rule} = {held} exceeds the ceiling of {CACHE_CEILING} "
                f"{what}"
            )
    if violations:
        raise ChainSpecError(violations)
    return ChainSpec(kind=kind, **fields)


def build_chain(spec: ChainSpec) -> ContractionChain:
    """Materialize the chain a spec describes."""
    spec_kind = _KINDS.get(spec.kind)
    if spec_kind is None:
        raise ChainSpecError([f"unknown kind {spec.kind!r}"])
    return spec_kind.build(spec)
