import gc
import math
import re
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contraction_lab import (
    ChainGenerationError,
    ChainSpecError,
    Curve,
    Operator,
    PreconditionError,
    affine_harmonic,
    build_chain,
    conjugated_diagonal_chain,
    const,
    diagonal,
    diagonal_chain,
    fixed_point_projection,
    gap_engineered_chain,
    geometric,
    halving_decrement_sampler,
    harmonic_to,
    hermitian_eigenvalues,
    identity,
    is_positive_contraction,
    loewner_leq,
    near_one_accumulating_chain,
    parse_chain_spec,
    peel,
    random_orthogonal,
    random_schur_chain,
    schur_decrement_chain,
    spectral_decompose,
    stream_rng,
)
from contraction_lab import chains
from contraction_lab.chains import CACHE_CEILING
from contraction_lab.config import DEFAULT


# ---------------------------------------------------------------------------
# Seeded randomness


def test_stream_rng_deterministic_and_keyed():
    a = stream_rng(7, 1, 2).uniform(size=4)
    b = stream_rng(7, 1, 2).uniform(size=4)
    c = stream_rng(7, 1, 3).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_rng_rejects_none_seed():
    with pytest.raises(PreconditionError):
        stream_rng(None, 1)


def test_random_orthogonal_is_orthogonal_and_deterministic():
    u1 = random_orthogonal(6, stream_rng(5, 9))
    u2 = random_orthogonal(6, stream_rng(5, 9))
    assert np.array_equal(u1, u2)
    assert np.allclose(u1 @ u1.T, np.eye(6), atol=1e-12)


# ---------------------------------------------------------------------------
# Curves


def test_curve_values_and_limits():
    assert const(0.5).values(17)[16] == 0.5
    assert const(0.5).limit == 0.5

    h = harmonic_to(0.5)
    assert h.values(2)[0] == 1.0
    assert h.values(2)[1] == pytest.approx(0.75)
    assert h.limit == 0.5

    a = affine_harmonic(0.3, 0.4)
    assert a.values(2) == pytest.approx([0.7, 0.5])
    assert a.limit == 0.3

    g = geometric(0.5)
    assert g.values(3)[2] == pytest.approx(0.125)
    assert g.limit == 0.0
    assert geometric(1.0).limit == 1.0

    p = peel(5, 0.8, 0.9)
    assert p.values(7) == pytest.approx([1.0] * 4 + [0.8, 0.72, 0.8 * 0.81])
    assert p.limit == 0.0
    assert peel(5, 0.8, 1.0).limit == 0.8
    assert peel(900, 0.5, 0.9).values(3).tolist() == [1.0] * 3
    # the power is taken from the stage on only: before it, a negative
    # exponent on this decay would overflow
    assert peel(700, 0.5, 1e-300).values(800)[:699].tolist() == [1.0] * 699


def _scalar_curve(tag: str, params: tuple, n: int) -> float:
    """One curve value the way a scalar loop computes it, with Python's
    ``**`` and ``/`` on floats."""
    if tag == "const":
        return params[0]
    if tag == "harmonic_to":
        return params[0] + (1.0 - params[0]) / n
    if tag == "affine_harmonic":
        return params[0] + params[1] / n
    if tag == "geometric":
        return params[0] ** n
    stage, level, decay = params
    return 1.0 if n < stage else level * decay ** (n - stage)


def _draw_curve(tag: str, rng: np.random.Generator) -> Curve:
    if tag == "affine_harmonic":
        offset = float(rng.uniform())
        return affine_harmonic(offset, (1.0 - offset) * float(rng.uniform()))
    if tag == "peel":
        return peel(
            int(rng.integers(1, 900)),
            float(rng.uniform()),
            float(rng.uniform(0.05, 1.0)),
        )
    return getattr(chains, tag)(float(rng.uniform()))


@pytest.mark.parametrize("tag", sorted(chains._TAGS))
def test_curve_values_are_bitwise_the_scalar_formula(tag):
    # geometric and peel must raise through libm's pow, as ``**`` does;
    # an ``np.power`` loop rounds some of these draws differently
    rng = stream_rng(31, 7)
    curves = [_draw_curve(tag, rng) for _ in range(50)]
    if tag == "geometric":
        curves.append(geometric(0.7))
    for curve in curves:
        assert curve.tag == tag
        scalar = [_scalar_curve(tag, curve.params, n) for n in range(1, 801)]
        assert np.array_equal(curve.values(800), scalar), curve


def test_curve_validation():
    with pytest.raises(ValueError):
        const(1.2)
    with pytest.raises(ValueError):
        harmonic_to(-0.1)
    with pytest.raises(ValueError):
        affine_harmonic(0.8, 0.4)  # peak above 1
    with pytest.raises(ValueError):
        peel(0, 0.5, 0.9)
    with pytest.raises(ValueError):
        peel(3, 0.5, 0.0)
    with pytest.raises(ValueError, match="unknown curve tag"):
        Curve("wiggle")
    assert const(0.5).to_spec() == ["const", 0.5]
    assert peel(5, 0.8, 0.9).to_spec() == ["peel", 5.0, 0.8, 0.9]


# ---------------------------------------------------------------------------
# Diagonal chains


def test_diagonal_chain_matches_curves():
    chain = diagonal_chain([const(1.0), harmonic_to(0.5)], horizon=20)
    for n in (1, 2, 7, 20):
        vals = np.diag(chain.operator_at(n).entries)
        assert vals[0] == 1.0
        assert vals[1] == pytest.approx(0.5 + 0.5 / n)
    assert np.allclose(
        chain.analytic_limit.entries, np.diag([1.0, 0.5]), atol=1e-15
    )


def test_diagonal_chain_is_exactly_diagonal():
    curves = [const(1.0), harmonic_to(0.3), geometric(0.7), peel(4, 0.6, 0.9)]
    horizon = 12
    chain = diagonal_chain(curves, horizon=horizon)
    table = [c.values(horizon) for c in curves]
    for n in range(1, horizon + 1):
        values = [row[n - 1] for row in table]
        assert np.array_equal(chain.operator_at(n).entries, np.diag(values))
    limits = [c.limit for c in curves]
    assert np.array_equal(
        chain.analytic_limit.entries, diagonal(limits).entries
    )


def test_diagonal_chain_range_checks():
    chain = diagonal_chain([const(1.0)], horizon=5)
    with pytest.raises(PreconditionError):
        chain.operator_at(0)
    with pytest.raises(PreconditionError):
        chain.operator_at(6)


def test_diagonal_chain_rejects_bad_curves():
    # built directly, bypassing affine_harmonic's own parameter checks
    rising = Curve("affine_harmonic", (0.5, -0.1))
    with pytest.raises(ChainGenerationError, match="increases at n=1"):
        diagonal_chain([rising], horizon=10)
    outside = Curve("affine_harmonic", (0.0, 1.5))
    with pytest.raises(ChainGenerationError, match=r"leaves \[0, 1\] at n=1"):
        diagonal_chain([outside], horizon=10)
    # the first faulty curve is named, though a later one fails the range
    # check, which comes first within a curve
    with pytest.raises(ChainGenerationError, match="curve 0 increases"):
        diagonal_chain([rising, outside], horizon=10)
    with pytest.raises(ChainGenerationError, match="curves for dimension"):
        diagonal_chain([const(1.0)], dim=2, horizon=10)


# ---------------------------------------------------------------------------
# Conjugated chains


def test_conjugated_chain_spectrum_and_determinism():
    curves = [const(1.0), harmonic_to(0.3), geometric(0.8)]
    c1 = conjugated_diagonal_chain(curves, horizon=10, seed=4)
    c2 = conjugated_diagonal_chain(curves, horizon=10, seed=4)
    c3 = conjugated_diagonal_chain(curves, horizon=10, seed=5)
    assert np.array_equal(c1.operator_at(3).entries, c2.operator_at(3).entries)
    assert not np.array_equal(
        c1.operator_at(3).entries, c3.operator_at(3).entries
    )
    expected = np.sort([1.0, 0.3 + 0.7 / 3.0, 0.8**3])
    got = hermitian_eigenvalues(c1.operator_at(3))
    assert np.allclose(got, expected, atol=1e-12)
    # off-diagonal mass: conjugation actually happened
    off = c1.operator_at(3).entries - np.diag(np.diag(c1.operator_at(3).entries))
    assert np.linalg.norm(off) > 1e-3


# ---------------------------------------------------------------------------
# Schur decrement chains


def test_schur_chain_rejects_bad_inputs():
    with pytest.raises(ChainGenerationError, match="starting operator"):
        schur_decrement_chain(diagonal([1.5, 0.5]), lambda n: diagonal([0.0, 0.0]))
    chain = schur_decrement_chain(
        identity(2), lambda n: diagonal([2.0, 0.0]), horizon=5
    )
    with pytest.raises(ChainGenerationError, match="decrement at step 1"):
        chain.operator_at(2)
    mismatched = schur_decrement_chain(
        identity(2), lambda n: identity(3), horizon=5
    )
    with pytest.raises(ChainGenerationError, match="dim"):
        mismatched.operator_at(2)


def test_halving_sampler_scale_and_positivity():
    sampler = halving_decrement_sampler(4, seed=3)
    dec = sampler(3)
    assert is_positive_contraction(dec)
    assert np.linalg.norm(dec.entries, 2) <= 0.5**3 + 1e-12


def test_random_schur_chain_keeps_fixed_subspace():
    chain = random_schur_chain(5, seed=3, horizon=25, fixed_rank=2)
    for n in (1, 5, 15, 25):
        op = chain.operator_at(n)
        assert is_positive_contraction(op)
        assert fixed_point_projection(op).rank == 2
    # dense, not diagonal
    op = chain.operator_at(3)
    assert np.linalg.norm(op.entries - np.diag(np.diag(op.entries))) > 1e-6
    with pytest.raises(ChainGenerationError):
        random_schur_chain(4, seed=0, fixed_rank=5)
    with pytest.raises(ChainGenerationError):
        random_schur_chain(4, seed=0, top=1.0)


def test_decomposition_handover_under_concurrent_walks():
    # threads walking one Schur chain in different orders must each get
    # the eigh of the step they asked for, and the chain must come out
    # as a single-threaded build makes it
    horizon = 24
    reference = random_schur_chain(5, seed=3, horizon=horizon, fixed_rank=2)
    steps = range(1, horizon + 1)
    expected = {n: spectral_decompose(reference.operator_at(n)) for n in steps}
    chain = random_schur_chain(5, seed=3, horizon=horizon, fixed_rank=2)
    rng = np.random.default_rng(0)
    orders = [list(steps), list(steps)[::-1]]
    orders += [list(rng.permutation(horizon) + 1) for _ in range(4)]
    wrong = []

    def walk(order):
        for n in order:
            got = chain.decomposition_at(n)
            if not (
                np.array_equal(got.eigenvalues, expected[n].eigenvalues)
                and np.array_equal(got.eigenvectors, expected[n].eigenvectors)
            ):
                wrong.append(n)

    threads = [threading.Thread(target=walk, args=(o,)) for o in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    for n in steps:
        assert np.array_equal(
            chain.operator_at(n).entries, reference.operator_at(n).entries
        )


# ---------------------------------------------------------------------------
# Gap engineered chains


def test_gap_engineered_spectrum():
    delta, rank = 0.1, 2
    chain = gap_engineered_chain(6, delta, rank, seed=11, horizon=40)
    assert chain.gap_guarantee == delta
    eigs1 = hermitian_eigenvalues(chain.operator_at(1))
    assert np.sum(eigs1 >= 1.0 - 1e-9) == rank
    # at n=1 every non-fixed eigenvalue sits exactly on 1 - delta
    assert np.allclose(eigs1[:-rank], 1.0 - delta, atol=1e-12)
    for n in (2, 10, 40):
        eigs = np.sort(hermitian_eigenvalues(chain.operator_at(n)))
        assert np.sum(eigs >= 1.0 - 1e-9) == rank
        assert np.all(eigs[: 6 - rank] <= 1.0 - delta + 1e-12)


def test_gap_engineered_validation():
    with pytest.raises(ChainGenerationError):
        gap_engineered_chain(4, 0.0, 1, seed=0)
    with pytest.raises(ChainGenerationError):
        gap_engineered_chain(4, 0.1, 7, seed=0)


# ---------------------------------------------------------------------------
# Near-one accumulating chains


def test_near_one_chain_shape():
    chain = near_one_accumulating_chain(6, seed=0, horizon=300)
    table = np.array(
        [np.diag(chain.operator_at(n).entries) for n in range(1, 301)]
    )
    assert np.all(table[:, 0] == 1.0)  # coordinate 1 pinned at 1
    assert np.all((table >= 0.0) & (table <= 1.0))
    first_drop = []
    for k in range(1, 6):
        col = table[:, k]
        below = np.flatnonzero(col < 1.0)
        assert below.size  # every other coordinate eventually peels
        first_drop.append(col[below[0]])
    # depth ladder spans coarse to hair-thin bands below 1
    assert min(first_drop) < 0.9
    assert max(first_drop) > 0.999


def test_near_one_chain_validation():
    with pytest.raises(ChainGenerationError):
        near_one_accumulating_chain(1, seed=0)
    with pytest.raises(ChainGenerationError, match="too small"):
        near_one_accumulating_chain(8, seed=0, horizon=50)


# ---------------------------------------------------------------------------
# Chain ordering across all kinds


@pytest.mark.parametrize(
    "make",
    [
        lambda: diagonal_chain(
            [const(1.0), harmonic_to(0.4), geometric(0.9)], horizon=30
        ),
        lambda: conjugated_diagonal_chain(
            [const(1.0), harmonic_to(0.4), geometric(0.9)],
            horizon=30,
            seed=2,
        ),
        lambda: random_schur_chain(4, seed=1, horizon=30, fixed_rank=1),
        lambda: gap_engineered_chain(4, 0.2, 1, seed=1, horizon=30),
        lambda: near_one_accumulating_chain(4, seed=1, horizon=60),
    ],
    ids=[
        "diagonal",
        "conjugated_diagonal",
        "schur_decrement",
        "gap_engineered",
        "near_one_accumulating",
    ],
)
def test_chain_is_decreasing_positive(make):
    chain = make()
    prev = chain.operator_at(1)
    assert is_positive_contraction(prev)
    for n in range(2, chain.horizon + 1):
        cur = chain.operator_at(n)
        assert is_positive_contraction(cur)
        assert loewner_leq(cur, prev)
        prev = cur


# ---------------------------------------------------------------------------
# Block store: stacked steps against the per-step formulas


def per_step_curve_entries(chain, n):
    """Step ``n`` of a curve-built chain by the per-step formula."""
    frame, table = chain._steps._frame, chain._steps._table
    return Operator((frame * table[:, n - 1]) @ frame.T).entries


def per_step_decrement(dim, seed, fixed_rank, frame, n):
    """The halving sampler's step ``n``, one step per call:
    ``B diag(w 2^-n) B^T`` with ``B`` the free columns of ``frame`` times
    the ``Q`` of a Gaussian matrix."""
    rng = stream_rng(seed, chains._STREAM_SCHUR_STEP, n)
    free = dim - fixed_rank
    gauss = rng.standard_normal((free, free))
    weights = rng.uniform(0.0, 1.0, size=free) * 0.5**n
    basis = frame[:, fixed_rank:] @ np.linalg.qr(gauss)[0]
    return Operator((basis * weights) @ basis.T)


def per_step_schur_entries(dim, seed, horizon, fixed_rank):
    """``random_schur_chain``'s steps by the recurrence, one step and one
    sampler call at a time."""
    rng = stream_rng(seed, chains._STREAM_SCHUR_INIT)
    frame = random_orthogonal(dim, rng)
    eigs = np.concatenate(
        [np.ones(fixed_rank), rng.uniform(0.1, 0.9, size=dim - fixed_rank)]
    )
    steps = [Operator(frame @ np.diag(eigs) @ frame.T)]
    for k in range(1, horizon):
        dec = per_step_decrement(dim, seed, fixed_rank, frame, k)
        root = chains._psd_sqrt(spectral_decompose(steps[-1]))
        eye = np.eye(dim, dtype=root.dtype)
        steps.append(Operator(root @ (eye - dec.entries) @ root))
    return [op.entries for op in steps]


def assert_stacks_hold(chain, expected):
    """The chain's blocks and its ``operator_at`` hold exactly
    ``expected[n - 1]`` at step ``n``, in its dtype, with no copy: step
    ``n`` is read while its block is the one being handed out."""
    n = 0
    for block in chain.step_blocks():
        assert 1 <= len(block) <= chains._block_steps(chain.dim)
        assert not block.flags.writeable
        for got in block:
            n += 1
            want = expected[n - 1]
            assert got.dtype == want.dtype, n
            assert np.array_equal(got, want), n
            op = chain.operator_at(n).entries
            assert not op.flags.writeable
            assert np.shares_memory(op, block), n
    assert n == chain.horizon == len(expected)


# horizons end mid-block: 1024, 455, 16 and 1 steps per block
BLOCK_SHAPES = [(2, 1030), (3, 460), (16, 100), (64, 200)]


@pytest.mark.parametrize("dim, horizon", BLOCK_SHAPES)
@pytest.mark.parametrize(
    "make",
    [
        lambda d, h: diagonal_chain(
            [harmonic_to(0.2 + 0.6 * k / d) for k in range(d)], d, h
        ),
        lambda d, h: conjugated_diagonal_chain(
            [geometric(0.95)] + [const(1.0)] * (d - 1), d, h, seed=3
        ),
        lambda d, h: gap_engineered_chain(d, 0.1, d // 2, seed=2, horizon=h),
        lambda d, h: near_one_accumulating_chain(d, seed=1, horizon=h),
    ],
    ids=["diagonal", "conjugated_diagonal", "gap_engineered", "near_one"],
)
def test_curve_blocks_equal_the_per_step_formula(make, dim, horizon):
    chain = make(dim, horizon)
    expected = [
        per_step_curve_entries(chain, n) for n in range(1, horizon + 1)
    ]
    assert_stacks_hold(chain, expected)


def test_evicting_store_rebuilds_each_step_bit_for_bit():
    # 16 steps per block at dim 16: a curve-built chain holds the block it
    # read last and computes any other from its table, as first built; a
    # Schur chain keeps every block
    chain = gap_engineered_chain(16, 0.1, 8, seed=2, horizon=100)
    schur = random_schur_chain(3, 5, 1030)
    list(schur.step_blocks())
    assert [len(b) for b in schur._blocks] == [455, 455, 120]
    first = chain.operator_at(1).entries
    order = list(range(100, 0, -1))
    order += list(np.random.default_rng(0).permutation(100) + 1)
    for n in order:
        got = chain.operator_at(n).entries
        assert not got.flags.writeable
        assert np.array_equal(got, per_step_curve_entries(chain, n)), n
        assert chain._held[0] <= n < chain._held[0] + 16
        assert chain._blocks == []
    # step 1 was computed again, not kept
    assert not np.shares_memory(chain.operator_at(1).entries, first)


def test_curve_chain_holds_one_block_after_any_reads():
    # 7 blocks of 16 steps at dim 16: a full pass and random reads leave
    # only the block read last, where keeping them all held 7
    chain = gap_engineered_chain(16, 0.1, 8, seed=2, horizon=100)
    assert sum(1 for _ in chain.step_blocks()) == 7
    assert chain._blocks == []
    assert chain._held[0] == 97 and len(chain._held[1]) == 4
    for n in np.random.default_rng(3).integers(1, 101, size=50).tolist():
        chain.operator_at(n)
        first, block = chain._held
        assert first <= n < first + len(block) and len(block) <= 16
        assert chain._blocks == []


def test_threads_reading_an_evicting_chain_get_identical_steps():
    horizon = 300  # 64 steps per block at dim 8
    chain = gap_engineered_chain(8, 0.1, 2, seed=4, horizon=horizon)
    expected = [
        per_step_curve_entries(chain, n) for n in range(1, horizon + 1)
    ]
    steps = list(range(1, horizon + 1))
    rng = np.random.default_rng(1)
    orders = [steps, steps[::-1]]
    orders += [list(rng.permutation(horizon) + 1) for _ in range(2)]
    wrong = []

    def walk(order):
        for n in order:
            if not np.array_equal(chain.operator_at(n).entries, expected[n - 1]):
                wrong.append(n)

    threads = [threading.Thread(target=walk, args=(o,)) for o in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert chain._blocks == []


@pytest.mark.parametrize("dim, horizon", BLOCK_SHAPES)
@pytest.mark.parametrize("full_rank", [False, True])
def test_schur_blocks_equal_the_per_step_recurrence(dim, horizon, full_rank):
    fixed_rank = dim if full_rank else 0
    chain = random_schur_chain(dim, 5, horizon, fixed_rank=fixed_rank)
    assert_stacks_hold(
        chain, per_step_schur_entries(dim, 5, horizon, fixed_rank)
    )


def test_halving_sampler_blocks_equal_its_steps():
    frame = random_orthogonal(5, stream_rng(1, 9))
    sampler = halving_decrement_sampler(5, 8, fixed_rank=2, frame=frame)
    stack = sampler.stack(3, 9)
    for n, entries in zip(range(3, 10), stack):
        expected = per_step_decrement(5, 8, 2, frame, n).entries
        assert np.array_equal(entries, expected)
        assert np.array_equal(sampler(n).entries, expected)


class OneStepPerCall(chains._Steps):
    """A source that hands out one step of another source per call."""

    def __init__(self, source):
        self._source = source

    def stack(self, first, stop, chain=None):
        return self._source.stack(first, first, chain)


@pytest.mark.parametrize("dim, horizon", BLOCK_SHAPES)
def test_one_step_and_whole_block_sources_lay_out_the_same(dim, horizon):
    whole = gap_engineered_chain(dim, 0.1, dim // 2, seed=2, horizon=horizon)
    single = chains.ContractionChain(
        dim, "one_step", horizon, OneStepPerCall(whole._steps)
    )
    got, want = list(single.step_blocks()), list(whole.step_blocks())
    assert [len(b) for b in got] == [len(b) for b in want]
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_schur_chain(3, seed=1, horizon=10, fixed_rank=1),
        lambda: gap_engineered_chain(3, 0.2, 1, seed=1, horizon=10),
        lambda: chains.ContractionChain(
            2, "factory", 10, lambda n: diagonal([1.0, 0.5])
        ),
    ],
    ids=["schur_decrement", "gap_engineered", "factory"],
)
def test_built_chain_is_freed_without_the_cycle_collector(make):
    # no source refers back to its chain, so dropping the last reference
    # frees the chain and its stored steps at once
    gc.disable()
    try:
        chain = make()
        list(chain.step_blocks())
        chain.decomposition_at(chain.horizon)
        ref = weakref.ref(chain)
        del chain
        assert ref() is None
    finally:
        gc.enable()


def test_step_blocks_refuses_a_horizon_past_the_chain_before_any_block():
    calls = []

    def factory(n):
        calls.append(n)
        return diagonal([1.0, 0.5])

    chain = chains.ContractionChain(2, "short", 5, factory)
    blocks = chain.step_blocks(6)
    with pytest.raises(
        PreconditionError, match=r"^horizon 6 outside materialized range 1\.\.5$"
    ):
        next(blocks)
    assert calls == []


def test_factory_blocks_split_where_the_dtype_changes():
    # four real steps, then complex ones: a block holds one dtype, so the
    # first block ends after step 4 and no step is cast; the factory is
    # called once per step, and only up to the step read
    rng = stream_rng(5, 0)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    unitary, _ = np.linalg.qr(z)
    calls = []

    def factory(n):
        calls.append(n)
        values = np.array([1.0, 0.5 + 0.4 / n, 0.8**n])
        if n <= 4:
            return Operator(np.diag(values))
        return Operator((unitary * values) @ unitary.conj().T)

    chain = chains.ContractionChain(3, "real_then_complex", 9, factory)
    assert chain.operator_at(3).dim == 3
    assert calls == [1, 2, 3]
    blocks = list(chain.step_blocks())
    assert calls == list(range(1, 10))
    assert [(len(b), b.dtype) for b in blocks] == [
        (4, np.float64), (5, np.complex128),
    ]
    for n, step in enumerate(np.concatenate(blocks[1:]), start=5):
        assert np.array_equal(step, factory(n).entries)
    for n in range(1, 10):
        assert np.array_equal(
            chain.operator_at(n).entries, factory(n).entries
        )
        assert chain.operator_at(n).entries.dtype == factory(n).entries.dtype


def test_schur_chain_turning_complex_keeps_each_step_dtype():
    # a real T_1 with complex decrements: T_2 is complex and starts a new
    # block, so T_1 is not cast, and every later step is complex
    unitary, _ = np.linalg.qr(
        np.array([[1.0, 1j], [2.0, -1j]]), mode="complete"
    )

    def sampler(n):
        return Operator((unitary * [0.5, 0.25]) @ unitary.conj().T)

    first = diagonal([0.9, 0.6])
    chain = schur_decrement_chain(first, sampler, horizon=6)
    blocks = list(chain.step_blocks())
    assert [(len(b), b.dtype) for b in blocks] == [
        (1, np.float64), (5, np.complex128),
    ]
    expected = [first]
    for k in range(1, 6):
        root = chains._psd_sqrt(spectral_decompose(expected[-1]))
        eye = np.eye(2, dtype=root.dtype)
        expected.append(
            Operator(root @ (eye - sampler(k).entries) @ root)
        )
    for n, op in enumerate(expected, start=1):
        got = chain.operator_at(n).entries
        assert got.dtype == op.entries.dtype
        assert np.array_equal(got, op.entries)


def test_factory_step_of_the_wrong_dim_is_refused():
    chain = chains.ContractionChain(
        2, "mismatched", 5, lambda n: identity(3 if n == 4 else 2)
    )
    assert chain.operator_at(3).dim == 2
    with pytest.raises(ChainGenerationError, match="step 4 has dim 3"):
        chain.operator_at(4)


@pytest.mark.parametrize("bad", [2.0, -0.5])
def test_bad_decrement_mid_block_raises_when_its_step_is_built(bad):
    # at dim 2, T_1 .. T_20 share one block; the bad decrement at step 5
    # only stops T_6
    def sampler(n):
        return diagonal([bad if n == 5 else 0.5, 0.25])

    chain = schur_decrement_chain(identity(2), sampler, horizon=20)
    assert chain.operator_at(5).dim == 2
    assert [len(b) for b in chain.step_blocks(5)] == [5]
    with pytest.raises(
        ChainGenerationError,
        match=rf"^decrement at step 5 is not a positive contraction: "
        rf"eigenvalue {bad}$",
    ):
        chain.operator_at(6)
    with pytest.raises(ChainGenerationError, match="decrement at step 5"):
        list(chain.step_blocks())


def test_decrement_of_the_wrong_dim_mid_block_raises_at_its_step():
    chain = schur_decrement_chain(
        identity(2),
        lambda n: identity(3) if n == 5 else diagonal([0.5, 0.25]),
        horizon=20,
    )
    assert chain.operator_at(5).dim == 2
    with pytest.raises(
        ChainGenerationError, match="decrement at step 5 has dim 3"
    ):
        chain.operator_at(6)


# ---------------------------------------------------------------------------
# Decrement certificate: a Cholesky proof of the eigvalsh rule

CERTIFIED_DIMS = [1, 2, 8, 32]


def conjugated_stack(values, is_complex, seed):
    """``Q diag(values[i]) Q*`` for each row, each with its own random
    unitary (orthogonal when real) ``Q``, hermitized."""
    rng = np.random.default_rng(seed)
    members = []
    for row in values:
        dim = len(row)
        gauss = rng.standard_normal((dim, dim))
        if is_complex:
            gauss = gauss + 1j * rng.standard_normal((dim, dim))
        q = np.linalg.qr(gauss)[0]
        members.append(Operator((q * row) @ q.conj().T).entries)
    return np.stack(members)


def eigvalsh_rule(stack, slack):
    """The decrement check without the certificate: each member's
    ``_contraction_witness`` from one stacked ``eigvalsh``."""
    return [
        chains._contraction_witness(eigs, slack)
        for eigs in np.linalg.eigvalsh(stack)
    ]


@st.composite
def edge_stacks(draw):
    """A stack of 1-8 members, each with 1-3 eigenvalues at, or a few
    ulps (of the edge, of 1, or the certificate's rounding bound ``rho``)
    around, ``-s``, 0, 1 and ``1 + s``, and the rest anywhere in
    ``[0, 1]``, with ``s`` the chain's slack, 1e-14 or 0."""
    dim = draw(st.sampled_from(CERTIFIED_DIMS))
    slack = draw(st.sampled_from([DEFAULT.psd(dim), 1e-14, 0.0]))
    rho = 4.0 * dim * dim * 2.0**-53 * math.sqrt(dim)

    def nudged(edge, j, unit):  # unit None: the edge's own ulp
        return edge + j * (np.spacing(edge) if unit is None else unit)

    near_edge = st.builds(
        nudged,
        st.sampled_from([-slack, 0.0, 1.0, 1.0 + slack]),
        st.integers(-4, 4),
        st.sampled_from([None, 2.0**-52, rho]),
    )
    edges = draw(
        st.lists(
            st.lists(near_edge, min_size=1, max_size=min(dim, 3)),
            min_size=1,
            max_size=8,
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.random.default_rng(seed).uniform(0.0, 1.0, (len(edges), dim))
    for row, values in zip(rows, edges):
        row[: len(values)] = values
    return conjugated_stack(rows, draw(st.booleans()), seed), slack


@settings(max_examples=max(100, settings.default.max_examples))
@given(case=edge_stacks())
def test_decrement_certificate_implies_the_eigvalsh_rule(case):
    # the stack as one block, and each member as a block of its own
    stack, slack = case
    rule = eigvalsh_rule(stack, slack)
    certified = chains._contractions_certified(stack, slack)
    if certified:
        assert all(rule)
    for member, check in zip(stack, rule):
        if chains._contractions_certified(member[None], slack):
            assert check
    if slack == 0.0:  # no room at the eigenvalues 0 and 1
        assert not certified


@pytest.mark.parametrize("dim", CERTIFIED_DIMS)
@pytest.mark.parametrize("is_complex", [False, True])
def test_decrement_certificate_passes_contractions_at_the_chain_slack(
    dim, is_complex
):
    # a projection, eigenvalues a few ulps inside [0, 1] and ones spread
    # across it are certified together; one member a slack's width above
    # 1 makes the whole stack decline
    slack = DEFAULT.psd(dim)
    inside = np.full(dim, 4 * 2.0**-52)
    inside[::2] = 1.0 - 4 * 2.0**-52
    rows = [np.arange(dim) % 2, inside, np.linspace(0.0, 1.0, dim)]
    stack = conjugated_stack(rows, is_complex, dim)
    assert chains._contractions_certified(stack, slack)
    rows.append(np.full(dim, 1.0 + 2 * slack))
    stack = conjugated_stack(rows, is_complex, dim)
    assert not chains._contractions_certified(stack, slack)


class StackedDecrements(chains._Steps):
    """A decrement source that hands out the steps asked for of one
    fixed stack, so a Schur chain draws them as one block."""

    def __init__(self, stack):
        self._stack = stack

    def stack(self, first, stop, chain=None):
        return self._stack[first - 1 : stop]


@given(
    dim=st.sampled_from(CERTIFIED_DIMS),
    bad=st.integers(0, 3),
    offset=st.sampled_from([1.0, -1.0]),
    excess=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    is_complex=st.booleans(),
)
def test_bad_decrement_in_a_drawn_block_gets_the_eigvalsh_message(
    dim, bad, offset, excess, seed, is_complex
):
    # decrements 1 .. 3 make T_2 .. T_4, which share the first block up
    # to dim 32; decrement `bad` (none at 0) has one eigenvalue `excess`
    # units of 2^-40 beyond -s or 1 + s.  The block falls back to the
    # stacked eigvalsh, whose witness the refusal names at that step
    slack = DEFAULT.psd(dim)
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.0, 1.0, (3, dim))
    edge = 1.0 + slack if offset > 0 else -slack
    if bad:
        rows[bad - 1, 0] = edge + offset * excess * 2.0**-40
    stack = conjugated_stack(rows, is_complex, seed)
    rule = eigvalsh_rule(stack, slack)
    assert [not check for check in rule] == [k == bad for k in (1, 2, 3)]
    chain = schur_decrement_chain(
        identity(dim), StackedDecrements(stack), horizon=4
    )
    last = bad if bad else 4
    assert chain.operator_at(last).dim == dim
    if bad:
        message = (
            f"decrement at step {bad} is not a positive contraction: "
            f"eigenvalue {rule[bad - 1].witness}"
        )
        with pytest.raises(ChainGenerationError, match=re.escape(message)):
            chain.operator_at(bad + 1)


def test_declined_block_is_checked_by_one_stacked_eigvalsh(eigensolve_counts):
    # one member above 1 + s: the block's one Cholesky call declines, and
    # one eigvalsh call on all three decrements decides each step
    slack = DEFAULT.psd(8)
    rows = np.full((3, 8), 0.5)
    rows[1, 0] = 1.0 + 2 * slack
    stack = conjugated_stack(rows, False, 3)
    chain = schur_decrement_chain(
        identity(8), StackedDecrements(stack), horizon=4
    )
    eigensolve_counts.reset()
    assert chain.operator_at(2).dim == 8
    assert eigensolve_counts.calls == {
        "eigh": 1, "eigvalsh": 1, "cholesky": 1, "qr": 0, "svd": 0,
    }
    assert eigensolve_counts == {
        "eigh": 1, "eigvalsh": 3, "cholesky": 3, "qr": 0, "svd": 0,
    }
    witness = eigvalsh_rule(stack, slack)[1].witness
    with pytest.raises(
        ChainGenerationError,
        match=re.escape(f"decrement at step 2 is not a positive "
                        f"contraction: eigenvalue {witness}"),
    ):
        chain.operator_at(3)


# ---------------------------------------------------------------------------
# Specs


def test_parse_chain_spec_round_trip():
    doc = {
        "kind": "diagonal",
        "dim": 2,
        "horizon": 12,
        "curves": [["const", 1.0], ["harmonic_to", 0.5]],
    }
    spec = parse_chain_spec(doc)
    chain = build_chain(spec)
    assert chain.dim == 2 and chain.horizon == 12
    again = build_chain(parse_chain_spec(spec.to_json_dict()))
    assert np.array_equal(
        chain.operator_at(7).entries, again.operator_at(7).entries
    )


def test_parse_chain_spec_collects_all_violations():
    doc = {"kind": "bogus", "dim": 0, "horizon": 0, "zzz": 1}
    with pytest.raises(ChainSpecError) as exc:
        parse_chain_spec(doc)
    text = "; ".join(exc.value.violations)
    assert len(exc.value.violations) >= 4
    assert "unknown key 'zzz'" in text
    assert "unknown kind" in text
    assert "dim" in text and "horizon" in text


def test_spec_ceiling_counts_what_a_run_of_each_kind_holds():
    # a curve-built chain holds its curve table and one block, and a run
    # over it trace arrays of dim + 5 probes: 16 (dim + 5)(dim + horizon)
    # entries are checked; a Schur chain stores dim * dim * horizon
    big = {
        "kind": "gap_engineered", "dim": 128, "horizon": 8200, "seed": 5,
        "delta": 0.1, "fixed_rank": 8,
    }
    chain = build_chain(parse_chain_spec(big))
    assert chain.operator_at(8200).entries.shape == (128, 128)
    schur = {"kind": "schur_decrement", "dim": 128, "horizon": 8200, "seed": 5}
    with pytest.raises(ChainSpecError) as exc:
        parse_chain_spec(schur)
    assert exc.value.violations == [
        f"dim * dim * horizon = {128 * 128 * 8200} exceeds the ceiling of "
        f"{CACHE_CEILING} cached operator entries"
    ]
    parse_chain_spec(dict(schur, horizon=8192))
    last = CACHE_CEILING // (16 * 133) - 128
    parse_chain_spec(dict(big, horizon=last))
    with pytest.raises(ChainSpecError) as exc:
        parse_chain_spec(dict(big, horizon=last + 1))
    assert exc.value.violations == [
        f"16 * (dim + 5) * (dim + horizon) = {16 * 133 * (last + 129)} "
        f"exceeds the ceiling of {CACHE_CEILING} entries a run holds"
    ]


def test_parse_chain_spec_kind_specific_rules():
    with pytest.raises(ChainSpecError, match="requires a seed"):
        parse_chain_spec({"kind": "gap_engineered", "dim": 4, "delta": 0.1})
    with pytest.raises(ChainSpecError, match="does not take 'delta'"):
        parse_chain_spec(
            {
                "kind": "diagonal",
                "dim": 1,
                "curves": [["const", 1.0]],
                "delta": 0.1,
            }
        )
    with pytest.raises(ChainSpecError, match="does not take 'curves'"):
        parse_chain_spec(
            {
                "kind": "gap_engineered",
                "dim": 4,
                "seed": 0,
                "delta": 0.1,
                "curves": [["const", 1.0]],
            }
        )
    with pytest.raises(ChainSpecError, match="unknown tag"):
        parse_chain_spec(
            {"kind": "diagonal", "dim": 1, "curves": [["wiggle", 0.5]]}
        )
    with pytest.raises(ChainSpecError, match="takes 1 parameter"):
        parse_chain_spec(
            {"kind": "diagonal", "dim": 1, "curves": [["const", 0.5, 0.5]]}
        )
    with pytest.raises(ChainSpecError, match="curve 0"):
        parse_chain_spec(
            {"kind": "diagonal", "dim": 1, "curves": [["const", 1.5]]}
        )
    with pytest.raises(ChainSpecError, match="JSON object"):
        parse_chain_spec(3)


@pytest.mark.parametrize(
    "doc",
    [
        {
            "kind": "diagonal",
            "dim": 2,
            "horizon": 10,
            "curves": [["const", 1.0], ["geometric", 0.5]],
        },
        {
            "kind": "conjugated_diagonal",
            "dim": 2,
            "horizon": 10,
            "seed": 1,
            "curves": [["const", 1.0], ["harmonic_to", 0.2]],
        },
        {
            "kind": "schur_decrement",
            "dim": 3,
            "horizon": 10,
            "seed": 1,
            "fixed_rank": 1,
        },
        {
            "kind": "gap_engineered",
            "dim": 3,
            "horizon": 10,
            "seed": 1,
            "delta": 0.2,
            "fixed_rank": 1,
        },
        {
            "kind": "near_one_accumulating",
            "dim": 3,
            "horizon": 120,
            "seed": 1,
        },
    ],
    ids=lambda d: d["kind"],
)
def test_build_chain_all_kinds(doc):
    spec = parse_chain_spec(doc)
    # the document writes the keys the kind takes, defaults included
    assert parse_chain_spec(spec.to_json_dict()) == spec
    chain = build_chain(spec)
    assert chain.kind == doc["kind"]
    assert chain.dim == doc["dim"]
    assert is_positive_contraction(chain.operator_at(chain.horizon))


def test_readme_kind_table_matches_kinds():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(
        r"^\| `(\w+)` \| ([^|]*) \|", readme.read_text(), re.MULTILINE
    )
    documented = {
        kind: set(re.findall(r"`(\w+)`", keys)) for kind, keys in rows
    }
    assert documented == {
        kind: set(entry.keys) | ({"seed"} if entry.seeded else set())
        for kind, entry in chains._KINDS.items()
    }


def test_readme_curve_tags_match_tags():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    paragraph = re.search(
        r"^Curve tags(.*?)\n\n", readme.read_text(), re.MULTILINE | re.DOTALL
    ).group(1)
    forms = re.findall(r'`\["(\w+)",([^]]*)\]`', paragraph)
    documented = {
        tag: tuple(p.strip() for p in params.split(","))
        for tag, params in forms
    }
    assert documented == {tag: e.names for tag, e in chains._TAGS.items()}


def test_curve_constructors_refuse_nan_and_fractional_stage():
    with pytest.raises(ValueError, match="affine_harmonic"):
        affine_harmonic(math.nan, 0.5)
    with pytest.raises(ValueError, match="affine_harmonic"):
        affine_harmonic(0.5, math.nan)
    with pytest.raises(ValueError, match="whole number"):
        peel(2.7, 0.5, 0.9)
    assert peel(5.0, 0.5, 0.9) == peel(5, 0.5, 0.9)


# ---------------------------------------------------------------------------
# Property: random diagonal chains stay inside the contract


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    dim=st.integers(min_value=1, max_value=6),
)
def test_random_diagonal_chains_decrease(seed, dim):
    rng = stream_rng(seed, 77)
    curves = []
    for _ in range(dim):
        pick = rng.integers(0, 3)
        if pick == 0:
            curves.append(const(float(rng.uniform(0.0, 1.0))))
        elif pick == 1:
            curves.append(harmonic_to(float(rng.uniform(0.0, 1.0))))
        else:
            curves.append(geometric(float(rng.uniform(0.1, 1.0))))
    chain = diagonal_chain(curves, horizon=25)
    prev = chain.operator_at(1)
    for n in range(2, 26):
        cur = chain.operator_at(n)
        assert loewner_leq(cur, prev)
        prev = cur
