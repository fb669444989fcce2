"""Seeded corpora shared by the test suite and the verify command.

Everything here is deterministic given the seed constants: the same
chains, operator pairs, and probe vectors come back on every run, so
verdicts are stable and failures are replayable.

Horizons are calibrated per generator kind so that the slowest
coordinate products sit well below the 1e-6 convergence threshold at
the final step (e.g. a 0.9-capped eigenvalue curve needs ~160 steps to
pass 5e-8).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .chains import (
    ContractionChain,
    Curve,
    _refusals,
    affine_harmonic,
    conjugated_diagonal_chain,
    const,
    diagonal_chain,
    gap_engineered_chain,
    geometric,
    harmonic_to,
    near_one_accumulating_chain,
    random_orthogonal,
    random_schur_chain,
    stream_rng,
)
from .errors import PreconditionError
from .operators import Operator, _eigh

__all__ = [
    "KIND_HORIZONS",
    "CORPUS_DIMS",
    "CORPUS_SEED_COUNT",
    "mixed_curves",
    "corpus_chains",
    "random_contraction",
    "equivalence_corpus",
    "monotone_pair_corpus",
    "descent_triple_corpus",
]

KIND_HORIZONS = {
    "diagonal": 200,
    "conjugated_diagonal": 200,
    "schur_decrement": 160,
    "gap_engineered": 200,
    "near_one_accumulating": 400,
}

CORPUS_DIMS = (2, 4, 8, 16)
CORPUS_SEED_COUNT = 5

_STREAM_CURVE_MIX = 21
_STREAM_EQUIV = 22
_STREAM_MONOTONE = 23
_STREAM_DESCENT = 24

# fixed seeds of the operator corpora
_SEED_EQUIV = 7
_SEED_MONOTONE = 11
_SEED_DESCENT = 13

_EQUIV_DIMS = (2, 3, 4, 6, 8, 12, 16)
_GAP_DELTAS = (0.05, 0.1, 0.2)


def mixed_curves(dim: int, seed: int) -> list[Curve]:
    """Seeded per-coordinate curve mix with every non-fixed limit capped
    at 0.9, so products decay at least like 0.9^n."""
    rng = stream_rng(seed, _STREAM_CURVE_MIX)
    curves: list[Curve] = []
    for _ in range(dim):
        pick = rng.uniform()
        level = 0.1 + 0.8 * rng.uniform()
        if pick < 0.25:
            curves.append(const(1.0))
        elif pick < 0.45:
            curves.append(const(level))
        elif pick < 0.70:
            curves.append(harmonic_to(level))
        elif pick < 0.90:
            offset = 0.8 * rng.uniform()
            slope = (1.0 - offset) * rng.uniform()
            curves.append(affine_harmonic(offset, slope))
        else:
            curves.append(geometric(0.2 + 0.7 * rng.uniform()))
    return curves


def corpus_chains(
    dims=CORPUS_DIMS, seed_count: int = CORPUS_SEED_COUNT
) -> Iterator[ContractionChain]:
    """One chain per generator kind x dimension x seed, at the
    calibrated horizons, built only when the next one is asked for and
    not kept afterwards.  A dim that some kind's rules refuse at its
    horizon (outside ``2..161`` for ``near_one_accumulating``) is refused
    first."""
    for dim in dims:
        for kind, horizon in KIND_HORIZONS.items():
            refusals, _ = _refusals(kind, {"dim": dim, "horizon": horizon})
            if refusals:
                raise PreconditionError(f"corpus dim {dim}: {refusals[0]}")
    for dim in dims:
        for seed in range(seed_count):
            yield diagonal_chain(
                mixed_curves(dim, seed),
                dim=dim,
                horizon=KIND_HORIZONS["diagonal"],
                seed=seed,
            )
            yield conjugated_diagonal_chain(
                mixed_curves(dim, seed),
                dim,
                KIND_HORIZONS["conjugated_diagonal"],
                seed=seed,
            )
            yield random_schur_chain(
                dim,
                seed,
                KIND_HORIZONS["schur_decrement"],
                fixed_rank=seed % (dim // 2 + 1),
            )
            yield gap_engineered_chain(
                dim,
                _GAP_DELTAS[seed % len(_GAP_DELTAS)],
                seed % (dim + 1),
                seed,
                KIND_HORIZONS["gap_engineered"],
            )
            yield near_one_accumulating_chain(
                dim, seed, KIND_HORIZONS["near_one_accumulating"]
            )


def random_contraction(
    dim: int, rng: np.random.Generator
) -> tuple[Operator, np.ndarray, np.ndarray]:
    """Random positive contraction with a seeded mix of exact-1 and
    bounded-away eigenvalues: each is 1 with probability 0.3, else
    uniform in ``[0, 0.95)``; returns (operator, eigenvalues, frame)."""
    frame = random_orthogonal(dim, rng)
    eigs = np.where(
        rng.uniform(size=dim) < 0.3,
        1.0,
        0.95 * rng.uniform(size=dim),
    )
    entries = (frame * eigs) @ frame.T
    return Operator(entries), eigs, frame


def equivalence_corpus(
    count: int = 1000,
) -> Iterator[tuple[Operator, np.ndarray]]:
    """(T, xi) pairs: alternately a generic random probe and an exact
    eigenvector of T, so both O(1) residuals and machine-zero residuals
    are exercised.  Each pair is drawn when asked for and not kept."""
    rng = stream_rng(_SEED_EQUIV, _STREAM_EQUIV)
    for i in range(count):
        dim = _EQUIV_DIMS[i % len(_EQUIV_DIMS)]
        op, _, frame = random_contraction(dim, rng)
        if i % 2 == 0:
            xi = rng.standard_normal(dim)
        else:
            xi = frame[:, rng.integers(0, dim)].copy()
        yield op, xi


def monotone_pair_corpus(
    count: int = 500,
) -> Iterator[tuple[Operator, Operator]]:
    """(upper, lower) pairs with lower = sqrt(T)(I - D)sqrt(T) <= upper,
    each drawn when asked for and not kept.

    Flavors rotate through: D = 0 (equal pair), D supported on the
    non-fixed block (fixed space preserved exactly), and D touching the
    whole space (fixed space generically destroyed).
    """
    rng = stream_rng(_SEED_MONOTONE, _STREAM_MONOTONE)
    for i in range(count):
        dim = _EQUIV_DIMS[i % len(_EQUIV_DIMS)]
        fixed_rank = int(rng.integers(0, dim + 1))
        frame = random_orthogonal(dim, rng)
        eigs = np.concatenate(
            [
                np.ones(fixed_rank),
                0.1 + 0.8 * rng.uniform(size=dim - fixed_rank),
            ]
        )
        upper_entries = (frame * eigs) @ frame.T
        root = (frame * np.sqrt(eigs)) @ frame.T

        flavor = i % 3
        if flavor == 0:
            scale = 0.0
        else:
            scale = 0.05 + 0.45 * rng.uniform()
        raw = rng.standard_normal((dim, dim))
        sym = (raw + raw.T) / 2.0
        ew, ev = _eigh(sym)
        weights = rng.uniform(size=dim)
        if flavor == 1 and fixed_rank > 0:
            # decrement in the frame's non-fixed block only
            block = np.zeros((dim, dim))
            sub = dim - fixed_rank
            if sub > 0:
                raw_b = rng.standard_normal((sub, sub))
                sym_b = (raw_b + raw_b.T) / 2.0
                ew_b, ev_b = _eigh(sym_b)
                w_b = rng.uniform(size=sub)
                block[fixed_rank:, fixed_rank:] = (ev_b * w_b) @ ev_b.T
            decrement = frame @ block @ frame.T
        else:
            decrement = (ev * weights) @ ev.T
        decrement = scale * decrement
        lower_entries = root @ (np.eye(dim) - decrement) @ root
        yield Operator(upper_entries), Operator(lower_entries)


def descent_triple_corpus(
    count: int = 60,
) -> Iterator[tuple[Operator, Operator, float]]:
    """(upper, lower, delta) triples meeting the strict-descent lemma's
    hypotheses: upper has a gap at delta, lower sits below upper and
    puts an eigenvalue inside (1 - delta, 1).  Each triple is drawn when
    asked for and not kept."""
    rng = stream_rng(_SEED_DESCENT, _STREAM_DESCENT)
    for i in range(count):
        dim = _EQUIV_DIMS[i % len(_EQUIV_DIMS)]
        delta = _GAP_DELTAS[i % len(_GAP_DELTAS)]
        fixed_rank = int(rng.integers(1, dim + 1))
        frame = random_orthogonal(dim, rng)
        complement = (1.0 - delta - 0.02) * rng.uniform(size=dim - fixed_rank)
        upper_eigs = np.concatenate([np.ones(fixed_rank), complement])
        lower_eigs = upper_eigs.copy()
        drop = int(rng.integers(0, fixed_rank))
        lower_eigs[drop] = 1.0 - delta / 2.0
        lower_eigs[fixed_rank:] *= 0.98
        yield (
            Operator((frame * upper_eigs) @ frame.T),
            Operator((frame * lower_eigs) @ frame.T),
            delta,
        )
