"""Generators for decreasing chains of positive contractions.

A chain is a sequence ``T_1 >= T_2 >= ... >= 0`` of positive
contractions on a fixed finite-dimensional space.  Generators produce
them from eigenvalue curves, from random Schur-style decrements, or from
engineered spectra with a guaranteed gap below the 1-cluster.

Every generator is deterministic given its spec and seed, so chains can
be rebuilt bit-for-bit from a JSON document.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT, DEFAULT_HORIZON
from .errors import ChainGenerationError, ChainSpecError, PreconditionError
from .operators import (
    Operator,
    SpectralDecomposition,
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
    "custom_curve",
    "ContractionChain",
    "ChainSpec",
    "diagonal_chain",
    "conjugated_diagonal_chain",
    "schur_decrement_chain",
    "gap_engineered_chain",
    "near_one_accumulating_chain",
    "halving_decrement_sampler",
    "parse_chain_spec",
    "build_chain",
    "chain_to_json_dict",
]

CHAIN_KINDS = (
    "diagonal",
    "schur_decrement",
    "conjugated_diagonal",
    "gap_engineered",
    "near_one_accumulating",
)

# kinds that cannot be built without a seed
SEEDED_KINDS = (
    "schur_decrement",
    "conjugated_diagonal",
    "gap_engineered",
    "near_one_accumulating",
)

# spawn-key namespaces so independent draws never share a stream
_STREAM_CONJUGATION = 1
_STREAM_SCHUR_INIT = 2
_STREAM_SCHUR_STEP = 3
_STREAM_GAP = 4
_STREAM_NEAR_ONE = 5


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

    Built-in tags have closed-form limits, which is what lets diagonal
    chains carry an analytic limit operator.  ``custom`` curves wrap an
    arbitrary callable and may leave the limit unknown.
    """

    tag: str
    params: tuple[float, ...] = ()
    fn: Callable[[int], float] | None = None
    limit_value: float | None = None

    def value(self, n: int) -> float:
        if self.tag == "const":
            return self.params[0]
        if self.tag == "harmonic_to":
            c = self.params[0]
            return c + (1.0 - c) / n
        if self.tag == "affine_harmonic":
            a, b = self.params
            return a + b / n
        if self.tag == "geometric":
            return self.params[0] ** n
        if self.tag == "peel":
            stage, level, decay = self.params
            if n < stage:
                return 1.0
            return level * decay ** (n - stage)
        if self.tag == "custom":
            return float(self.fn(n))
        raise ValueError(f"unknown curve tag {self.tag!r}")

    @property
    def limit(self) -> float | None:
        if self.tag == "const":
            return self.params[0]
        if self.tag == "harmonic_to":
            return self.params[0]
        if self.tag == "affine_harmonic":
            return self.params[0]
        if self.tag == "geometric":
            return 1.0 if self.params[0] == 1.0 else 0.0
        if self.tag == "peel":
            _, level, decay = self.params
            return level if decay == 1.0 else 0.0
        return self.limit_value

    def to_spec(self) -> list:
        if self.tag == "custom":
            raise ValueError("custom curves cannot be serialized")
        return [self.tag, *self.params]


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def const(level: float) -> Curve:
    return Curve("const", (_check_unit("const level", level),))


def harmonic_to(target: float) -> Curve:
    """``target + (1 - target)/n``: starts at 1, decays to ``target``."""
    return Curve("harmonic_to", (_check_unit("harmonic target", target),))


def affine_harmonic(offset: float, slope: float) -> Curve:
    """``offset + slope/n`` with both parts nonnegative and peak <= 1."""
    offset, slope = float(offset), float(slope)
    if offset < 0.0 or slope < 0.0 or offset + slope > 1.0 + 1e-12:
        raise ValueError(
            f"affine_harmonic needs offset, slope >= 0 and peak <= 1, "
            f"got {offset} + {slope}"
        )
    return Curve("affine_harmonic", (offset, slope))


def geometric(ratio: float) -> Curve:
    return Curve("geometric", (_check_unit("geometric ratio", ratio),))


def peel(stage: int, level: float, decay: float) -> Curve:
    """Hold at 1 before ``stage``, then drop to ``level`` and decay.

    The one-step drop followed by a geometric slide is what lets a
    coordinate leave the 1-cluster *into* a prescribed band below 1.
    """
    stage = int(stage)
    if stage < 1:
        raise ValueError(f"peel stage must be >= 1, got {stage}")
    level = _check_unit("peel level", level)
    decay = float(decay)
    if not 0.0 < decay <= 1.0:
        raise ValueError(f"peel decay must lie in (0, 1], got {decay}")
    return Curve("peel", (float(stage), level, decay))


def custom_curve(fn: Callable[[int], float], limit: float | None = None) -> Curve:
    return Curve("custom", (), fn=fn, limit_value=limit)


_CURVE_BUILDERS = {
    "const": (const, 1),
    "harmonic_to": (harmonic_to, 1),
    "affine_harmonic": (affine_harmonic, 2),
    "geometric": (geometric, 1),
    "peel": (peel, 3),
}


class ContractionChain:
    """Lazy, memoized view of a decreasing chain of positive contractions.

    ``operator_at(n)`` is 1-based and defined for ``1 <= n <= horizon``.
    Materialization is cached behind a lock so recursively defined chains
    (Schur decrements) stay consistent under concurrent access.  Every
    curve-built kind materializes ``F diag(values_n) F^T`` for a fixed
    orthogonal frame ``F`` (the identity for diagonal chains).

    The cache holds the operators only, not their eigenvectors, which
    would store another ``dim x dim`` matrix for every cached step.
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
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.dim = dim
        self.kind = kind
        self.horizon = horizon
        self.seed = seed
        self.analytic_limit = analytic_limit
        self.gap_guarantee = gap_guarantee
        self._factory = factory
        self._cache: dict[int, Operator] = {}
        self._handover: tuple[int, SpectralDecomposition] | None = None
        self._lock = threading.RLock()

    def operator_at(self, n: int) -> Operator:
        if not 1 <= n <= self.horizon:
            raise PreconditionError(
                f"step {n} outside materialized range 1..{self.horizon}"
            )
        with self._lock:
            op = self._cache.get(n)
            if op is None:
                op = self._factory(n)
                self._cache[n] = op
            return op

    def decomposition_at(self, n: int) -> SpectralDecomposition:
        """``eigh`` of ``T_n``, taken from the handover slot when the last
        decomposition computed was this step's, else computed and left
        there.  Its arrays are read-only, since every taker shares them."""
        with self._lock:
            # materializing T_n may itself decompose T_{n-1} (Schur)
            op = self.operator_at(n)
            held = self._handover
            if held is not None and held[0] == n:
                return held[1]
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
    """Sample all curves on 1..horizon and validate range and monotonicity."""
    dim = len(curves)
    table = np.empty((dim, horizon))
    for k, curve in enumerate(curves):
        for n in range(1, horizon + 1):
            table[k, n - 1] = curve.value(n)
    slack = 1e-12
    for k in range(dim):
        row = table[k]
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


def _limits_of(curves: Sequence[Curve]) -> list[float] | None:
    limits = [c.limit for c in curves]
    if any(v is None for v in limits):
        return None
    return [float(v) for v in limits]


def diagonal_chain(
    curves: Sequence[Curve],
    dim: int | None = None,
    horizon: int = DEFAULT_HORIZON,
    *,
    kind: str = "diagonal",
    seed: int | None = None,
    gap_guarantee: float | None = None,
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
    dim = _curve_dim(curves, dim)
    return _conjugated_chain(
        curves,
        dim,
        horizon,
        np.eye(dim),
        kind=kind,
        seed=seed,
        gap_guarantee=gap_guarantee,
    )


def _curve_dim(curves: Sequence[Curve], dim: int | None) -> int:
    if dim is None:
        dim = len(curves)
    if len(curves) != dim:
        raise ChainGenerationError(f"{len(curves)} curves for dimension {dim}")
    return dim


def _conjugated_chain(
    curves: Sequence[Curve],
    dim: int,
    horizon: int,
    frame: np.ndarray,
    *,
    kind: str,
    seed: int | None,
    gap_guarantee: float | None = None,
) -> ContractionChain:
    table = _curve_table(curves, horizon)
    limits = _limits_of(curves)
    analytic = None
    if limits is not None:
        analytic = Operator(frame @ np.diag(limits) @ frame.T)

    def factory(n: int) -> Operator:
        return Operator(frame @ np.diag(table[:, n - 1]) @ frame.T)

    return ContractionChain(
        dim,
        kind,
        horizon,
        factory,
        analytic_limit=analytic,
        seed=seed,
        gap_guarantee=gap_guarantee,
    )


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
    dim = _curve_dim(curves, dim)
    frame = random_orthogonal(dim, stream_rng(seed, _STREAM_CONJUGATION))
    return _conjugated_chain(
        curves,
        dim,
        horizon,
        frame,
        kind="conjugated_diagonal",
        seed=seed,
    )


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
    where it happens.  No analytic limit is attached.  ``T_n^{1/2}``
    comes from the chain's ``decomposition_at(n)``, so a caller that
    decomposes ``T_n`` in step order shares that solve.
    """
    check = is_positive_contraction(first)
    if not check:
        raise ChainGenerationError(
            f"starting operator is not a positive contraction: "
            f"eigenvalue {check.witness}"
        )
    dim = first.dim
    materialized = [first]
    lock = threading.RLock()

    def factory(n: int) -> Operator:
        with lock:
            while len(materialized) < n:
                step = len(materialized)  # producing T_{step+1} from T_step
                dec = decrement_sampler(step)
                if dec.dim != dim:
                    raise ChainGenerationError(
                        f"decrement at step {step} has dim {dec.dim}, "
                        f"chain has dim {dim}"
                    )
                dec_ok = is_positive_contraction(dec)
                if not dec_ok:
                    raise ChainGenerationError(
                        f"decrement at step {step} is not a positive "
                        f"contraction: eigenvalue {dec_ok.witness}"
                    )
                # ``chain`` is bound below, before any step is built
                root = _psd_sqrt(chain.decomposition_at(step))
                eye = np.eye(dim, dtype=root.dtype)
                nxt = Operator(root @ (eye - dec.entries) @ root)
                materialized.append(nxt)
            return materialized[n - 1]

    chain = ContractionChain(
        dim,
        "schur_decrement",
        horizon,
        factory,
        analytic_limit=None,
        seed=seed,
    )
    return chain


def halving_decrement_sampler(
    dim: int,
    seed: int,
    *,
    fixed_rank: int = 0,
    frame: np.ndarray | None = None,
) -> Callable[[int], Operator]:
    """Random PSD contractions scaled by ``2^-n``.

    With ``fixed_rank > 0`` the decrements vanish on the leading
    ``fixed_rank`` coordinates of ``frame``, so that subspace stays fixed
    along the whole chain.
    """
    if frame is None:
        frame = np.eye(dim)

    def sampler(n: int) -> Operator:
        rng = stream_rng(seed, _STREAM_SCHUR_STEP, n)
        free = dim - fixed_rank
        block = np.zeros((dim, dim))
        if free > 0:
            gauss = rng.standard_normal((free, free))
            _, basis = np.linalg.eigh((gauss + gauss.T) / 2.0)
            weights = rng.uniform(0.0, 1.0, size=free)
            block[fixed_rank:, fixed_rank:] = (basis * weights) @ basis.T
        scaled = (0.5**n) * (frame @ block @ frame.T)
        return Operator(scaled)

    return sampler


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
    rest below ``top``; decrements act only off the fixed subspace, so
    products converge geometrically to the projection onto it.
    """
    if not 0 <= fixed_rank <= dim:
        raise ChainGenerationError(
            f"fixed_rank {fixed_rank} out of range for dim {dim}"
        )
    if not 0.0 < top < 1.0:
        raise ChainGenerationError(f"top must lie in (0, 1), got {top}")
    rng = stream_rng(seed, _STREAM_SCHUR_INIT)
    frame = random_orthogonal(dim, rng)
    free = dim - fixed_rank
    eigs = np.concatenate(
        [np.ones(fixed_rank), rng.uniform(0.1, top, size=free)]
    )
    first = Operator(frame @ np.diag(eigs) @ frame.T)
    sampler = halving_decrement_sampler(
        dim, seed, fixed_rank=fixed_rank, frame=frame
    )
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
    if not 0.0 < delta < 1.0:
        raise ChainGenerationError(f"delta must lie in (0, 1), got {delta}")
    if not 0 <= fixed_rank <= dim:
        raise ChainGenerationError(
            f"fixed_rank {fixed_rank} out of range for dim {dim}"
        )
    rng = stream_rng(seed, _STREAM_GAP)
    frame = random_orthogonal(dim, rng)
    free = dim - fixed_rank
    targets = rng.uniform(0.2, 0.9, size=free)
    curves = [const(1.0)] * fixed_rank + [
        affine_harmonic((1.0 - delta) * c, (1.0 - delta) * (1.0 - c))
        for c in targets
    ]
    return _conjugated_chain(
        curves,
        dim,
        horizon,
        frame,
        kind="gap_engineered",
        seed=seed,
        gap_guarantee=delta,
    )


# Peel depths laddered through the gaps of the default search grid: each
# violation forces the certificate search one grid level down.
_NEAR_ONE_LADDER = (0.3, 0.15, 0.07, 0.03, 0.015, 0.007, 0.003)


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
    if dim < 2:
        raise ChainGenerationError(
            f"need dim >= 2 to accumulate near 1, got {dim}"
        )
    peel_count = dim - 1
    lo = max(4, horizon // 10)
    hi = horizon - max(40, horizon // 10)
    if hi - lo < 2 * peel_count:
        raise ChainGenerationError(
            f"horizon {horizon} too small to stage {peel_count} peels"
        )
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
    return diagonal_chain(
        curves,
        dim,
        horizon,
        kind="near_one_accumulating",
        seed=seed,
    )


@dataclass(frozen=True)
class ChainSpec:
    """Declarative chain description, round-trippable through JSON."""

    kind: str
    dim: int
    horizon: int = DEFAULT_HORIZON
    seed: int | None = None
    curves: tuple[Curve, ...] | None = None
    delta: float | None = None
    fixed_rank: int = 0
    top: float = 0.9

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind, "dim": self.dim, "horizon": self.horizon}
        if self.seed is not None:
            doc["seed"] = self.seed
        if self.curves is not None:
            doc["curves"] = [c.to_spec() for c in self.curves]
        if self.delta is not None:
            doc["delta"] = self.delta
        if self.kind in ("gap_engineered", "schur_decrement"):
            doc["fixed_rank"] = self.fixed_rank
        if self.kind == "schur_decrement":
            doc["top"] = self.top
        return doc


def _parse_curve(entry, index: int, violations: list[str]) -> Curve | None:
    if not isinstance(entry, (list, tuple)) or not entry:
        violations.append(f"curve {index}: expected [tag, params...]")
        return None
    tag, *params = entry
    builder = _CURVE_BUILDERS.get(tag)
    if builder is None:
        violations.append(f"curve {index}: unknown tag {tag!r}")
        return None
    fn, arity = builder
    if len(params) != arity:
        violations.append(
            f"curve {index}: tag {tag!r} takes {arity} parameter(s), "
            f"got {len(params)}"
        )
        return None
    try:
        return fn(*params)
    except (TypeError, ValueError) as exc:
        violations.append(f"curve {index}: {exc}")
        return None


_KNOWN_KEYS = {
    "kind", "dim", "horizon", "seed", "curves", "delta", "fixed_rank", "top",
}


def parse_chain_spec(document: str | dict) -> ChainSpec:
    """Validate a chain spec document, collecting every violation."""
    violations: list[str] = []
    if isinstance(document, str):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ChainSpecError([f"invalid JSON: {exc}"]) from exc
    else:
        data = document
    if not isinstance(data, dict):
        raise ChainSpecError(["spec must be a JSON object"])

    for key in sorted(set(data) - _KNOWN_KEYS):
        violations.append(f"unknown key {key!r}")

    kind = data.get("kind")
    if kind not in CHAIN_KINDS:
        violations.append(
            f"unknown kind {kind!r}; expected one of {', '.join(CHAIN_KINDS)}"
        )

    dim = data.get("dim")
    if not isinstance(dim, int) or dim < 1:
        violations.append(f"dim must be a positive integer, got {dim!r}")
        dim = 0
    if kind == "near_one_accumulating" and isinstance(dim, int) and dim < 2:
        violations.append("near_one_accumulating needs dim >= 2")

    horizon = data.get("horizon", DEFAULT_HORIZON)
    if not isinstance(horizon, int) or horizon < 1:
        violations.append(f"horizon must be a positive integer, got {horizon!r}")
        horizon = DEFAULT_HORIZON

    seed = data.get("seed")
    if seed is not None and not isinstance(seed, int):
        violations.append(f"seed must be an integer, got {seed!r}")
        seed = None
    if kind in SEEDED_KINDS and seed is None:
        violations.append(f"kind {kind!r} requires a seed")

    curves = None
    if kind in ("diagonal", "conjugated_diagonal"):
        raw = data.get("curves")
        if not isinstance(raw, list) or not raw:
            violations.append("diagonal kinds need a nonempty 'curves' list")
        else:
            parsed = [
                _parse_curve(entry, i, violations) for i, entry in enumerate(raw)
            ]
            if dim and len(parsed) != dim:
                violations.append(
                    f"{len(parsed)} curves for dimension {dim}"
                )
            if all(c is not None for c in parsed):
                curves = tuple(parsed)
    elif "curves" in data:
        violations.append(f"kind {kind!r} does not take 'curves'")

    delta = data.get("delta")
    if kind == "gap_engineered":
        if not isinstance(delta, (int, float)) or not 0.0 < float(delta) < 1.0:
            violations.append(f"delta must lie in (0, 1), got {delta!r}")
            delta = None
        else:
            delta = float(delta)
    elif delta is not None:
        violations.append(f"kind {kind!r} does not take 'delta'")
        delta = None

    fixed_rank = data.get("fixed_rank", 0)
    if kind in ("gap_engineered", "schur_decrement"):
        if (
            not isinstance(fixed_rank, int)
            or not 0 <= fixed_rank <= (dim or 0)
        ):
            violations.append(
                f"fixed_rank must be an integer in [0, dim], got {fixed_rank!r}"
            )
            fixed_rank = 0
    elif "fixed_rank" in data:
        violations.append(f"kind {kind!r} does not take 'fixed_rank'")

    top = data.get("top", 0.9)
    if kind == "schur_decrement":
        if not isinstance(top, (int, float)) or not 0.0 < float(top) < 1.0:
            violations.append(f"top must lie in (0, 1), got {top!r}")
            top = 0.9
        else:
            top = float(top)
    elif "top" in data:
        violations.append(f"kind {kind!r} does not take 'top'")

    if violations:
        raise ChainSpecError(violations)
    return ChainSpec(
        kind=kind,
        dim=dim,
        horizon=horizon,
        seed=seed,
        curves=curves,
        delta=delta,
        fixed_rank=fixed_rank,
        top=top,
    )


def build_chain(spec: ChainSpec) -> ContractionChain:
    """Materialize the chain a spec describes."""
    if spec.kind == "diagonal":
        return diagonal_chain(
            spec.curves, spec.dim, spec.horizon, seed=spec.seed
        )
    if spec.kind == "conjugated_diagonal":
        return conjugated_diagonal_chain(
            spec.curves, spec.dim, spec.horizon, seed=spec.seed
        )
    if spec.kind == "schur_decrement":
        return random_schur_chain(
            spec.dim,
            spec.seed,
            spec.horizon,
            fixed_rank=spec.fixed_rank,
            top=spec.top,
        )
    if spec.kind == "gap_engineered":
        return gap_engineered_chain(
            spec.dim,
            spec.delta,
            spec.fixed_rank,
            spec.seed,
            spec.horizon,
        )
    if spec.kind == "near_one_accumulating":
        return near_one_accumulating_chain(spec.dim, spec.seed, spec.horizon)
    raise ChainSpecError([f"unknown kind {spec.kind!r}"])


def chain_to_json_dict(chain: ContractionChain, up_to: int | None = None) -> dict:
    """Serialize the materialized prefix of a chain."""
    from .operators import operator_to_dict

    stop = chain.horizon if up_to is None else min(up_to, chain.horizon)
    return {
        "kind": chain.kind,
        "dim": chain.dim,
        "horizon": chain.horizon,
        "seed": chain.seed,
        "operators": [
            operator_to_dict(chain.operator_at(n)) for n in range(1, stop + 1)
        ],
    }
