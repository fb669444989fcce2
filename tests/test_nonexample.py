import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contraction_lab import (
    PreconditionError,
    build_nonexample,
    givens_factorization,
    verify_not_totally_bounded,
    verify_step_distances,
    verify_vanishing_conditions,
)
from contraction_lab.nonexample import (
    flat_index,
    givens_to_json,
    row_col,
    sequence_to_json,
    write_net_csv,
)

COS_PI_8 = 0.9238795325112867
SIN_PI_8 = 0.3826834323650898
TWO_SIN_PI_8 = 0.7653668647301796  # 2 sin(pi/8): row-2 step distance
TWO_SIN_PI_16 = 0.3901806440322565  # 2 sin(pi/16): row-4 step distance
HALF_PI = 1.5707963267948966


# ---------------------------------------------------------------------------
# Indexing


def test_flat_index_oracles():
    assert flat_index(1, 1) == 1
    assert flat_index(2, 1) == 2
    assert flat_index(3, 2) == 5


@given(m=st.integers(min_value=1, max_value=465))
def test_row_col_inverts_flat_index(m):
    n, j = row_col(m)
    assert 1 <= j <= n
    assert flat_index(n, j) == m


# ---------------------------------------------------------------------------
# Construction


def test_build_rejects_single_row():
    with pytest.raises(PreconditionError):
        build_nonexample(1)


def test_build_shape_and_support():
    seq = build_nonexample(10)
    assert seq.count == 55
    assert seq.ambient_dim == 11
    norms = np.linalg.norm(seq.vectors, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12
    for m in range(1, seq.count + 1):
        n, _ = row_col(m)
        off_support = np.delete(seq.vector(m), [n - 1, n])
        assert np.all(off_support == 0.0)


def test_row_heads_are_basis_vectors():
    seq = build_nonexample(6)
    for n in range(1, 7):
        head = seq.vector(flat_index(n, 1))
        expected = np.zeros(7)
        expected[n - 1] = 1.0
        assert np.array_equal(head, expected)  # cos(0), sin(0) are exact


def test_known_vector_entries():
    seq = build_nonexample(6)
    v = seq.vector(flat_index(4, 2))  # rotated once in row 4: angle pi/8
    assert v[3] == pytest.approx(COS_PI_8, abs=1e-15)
    assert v[4] == pytest.approx(SIN_PI_8, abs=1e-15)


def test_vector_index_range():
    seq = build_nonexample(3)
    with pytest.raises(PreconditionError):
        seq.vector(0)
    with pytest.raises(PreconditionError):
        seq.vector(7)


# ---------------------------------------------------------------------------
# Step distances


def test_step_distances_frozen_values():
    seq = build_nonexample(6)
    report = verify_step_distances(seq)
    by_m = {s.m: s for s in report.steps}
    assert by_m[2].kind == "within"
    assert by_m[2].measured == pytest.approx(TWO_SIN_PI_8, abs=1e-15)
    assert by_m[3].kind == "cross"
    assert by_m[3].measured == pytest.approx(TWO_SIN_PI_8, abs=1e-15)
    row4 = [s for s in report.within_row if s.row == 4]
    assert len(row4) == 3
    for s in row4:
        assert s.measured == pytest.approx(TWO_SIN_PI_16, abs=1e-15)


def test_step_distances_match_formula_everywhere():
    report = verify_step_distances(build_nonexample(30))
    assert report.within_row_ok
    assert report.max_within_deviation <= 1e-12
    # the cross-row hop lands at the same distance; measured, not assumed
    assert report.cross_row_ok
    assert report.max_cross_deviation <= 1e-12


def test_step_distances_shrink_with_row():
    report = verify_step_distances(build_nonexample(12))
    expected = [s.expected for s in report.steps]
    assert expected == sorted(expected, reverse=True)


# ---------------------------------------------------------------------------
# Vanishing conditions


def test_vanishing_conditions():
    seq = build_nonexample(10)
    report = verify_vanishing_conditions(seq, k_max=3)
    assert report.all_ok
    assert report.max_norm_deviation <= 1e-15
    assert report.norms_nonincreasing
    for decay in report.coordinate_decays:
        # rows past c never touch coordinate c: exact zeros, not small ones
        assert decay.max_abs_after == 0.0
        assert decay.first_clear_index == flat_index(decay.coordinate + 1, 1)
    for tail in report.tail_bounds:
        assert tail.ok
        assert tail.tail_max <= tail.bound


def test_vanishing_conditions_rejects_bad_k():
    with pytest.raises(PreconditionError):
        verify_vanishing_conditions(build_nonexample(3), k_max=0)


# ---------------------------------------------------------------------------
# Total boundedness failure


def test_net_growth_half_epsilon():
    table = verify_not_totally_bounded(build_nonexample(6), 0.5)
    # rows 1..5 checked by hand against the greedy scan; row 6 frozen
    assert table.sizes == (1, 3, 6, 8, 11, 13)
    assert table.size_after_rows(5) == 11
    assert table.dominates_row_count
    assert table.final_size == 13


def test_net_growth_monotone_and_dominating():
    table = verify_not_totally_bounded(build_nonexample(10), 0.5)
    sizes = table.sizes
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert table.final_size >= 10
    assert table.dominates_row_count


def test_net_collapses_for_huge_epsilon():
    # every orbit vector has nonnegative coordinates, so all sit within
    # sqrt(2) of e1 and the greedy net never grows past the first point
    table = verify_not_totally_bounded(build_nonexample(10), 1.5)
    assert table.final_size == 1


# ---------------------------------------------------------------------------
# Givens factorization


def test_givens_first_step_is_quarter_turn():
    seq = build_nonexample(4)
    steps = givens_factorization(seq)
    first = steps[0]  # e1 -> e2
    assert first.angle == pytest.approx(HALF_PI, abs=1e-15)
    assert not first.identity
    block = first.matrix[:2, :2]
    assert np.allclose(block, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
    assert np.allclose(first.matrix[2:, 2:], np.eye(3), atol=1e-15)


def test_givens_steps_are_rotations_of_rank_two():
    seq = build_nonexample(8)
    steps = givens_factorization(seq)
    assert len(steps) == seq.count - 1
    eye = np.eye(seq.ambient_dim)
    for step in steps:
        assert np.linalg.norm(step.matrix.T @ step.matrix - eye) <= 1e-12
        sv = np.linalg.svd(step.matrix - eye, compute_uv=False)
        assert int((sv > 1e-9).sum()) == 2
        mapped = step.matrix @ seq.vector(step.m)
        assert np.linalg.norm(mapped - seq.vector(step.m + 1)) <= 1e-12


def test_givens_within_row_angles():
    seq = build_nonexample(8)
    steps = givens_factorization(seq)
    for step in steps:
        n, j = row_col(step.m)
        if j < n:  # within-row step rotates by exactly theta_n
            assert step.angle == pytest.approx(seq.angle_of(n), abs=1e-12)


def test_givens_reconstructs_whole_orbit():
    seq = build_nonexample(30)
    steps = givens_factorization(seq)
    carried = seq.vector(1).copy()
    worst = 0.0
    for step in steps:
        carried = step.matrix @ carried
        worst = max(worst, np.linalg.norm(carried - seq.vector(step.m + 1)))
    assert worst <= 1e-9


def test_givens_identity_and_antipodal_handling():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    steps = givens_factorization(np.array([e1, e1, e2]))
    assert steps[0].identity
    assert steps[0].plane is None
    assert steps[0].angle == 0.0
    assert not steps[1].identity
    with pytest.raises(PreconditionError, match="antipodal"):
        givens_factorization(np.array([e1, -e1]))


# ---------------------------------------------------------------------------
# Exports


def test_sequence_to_json_sparse_entries():
    seq = build_nonexample(4)
    docs = sequence_to_json(seq)
    assert len(docs) == seq.count
    entry = docs[4]  # m = 5 is row 3, column 2
    assert (entry["m"], entry["n"], entry["j"]) == (5, 3, 2)
    assert set(entry["coords"]) == {"3", "4"}
    assert entry["coords"]["3"] == pytest.approx(math.cos(math.pi / 6))
    assert entry["coords"]["4"] == pytest.approx(math.sin(math.pi / 6))
    # row heads carry a single coordinate
    assert sequence_to_json(seq)[0]["coords"] == {"1": 1.0}


def test_givens_to_json_shape():
    seq = build_nonexample(3)
    docs = givens_to_json(givens_factorization(seq))
    assert len(docs) == seq.count - 1
    assert set(docs[0]) == {"m", "angle", "identity", "plane"}
    assert docs[0]["plane"] is not None
    ident = givens_to_json(
        givens_factorization(np.array([[1.0, 0.0], [1.0, 0.0]]))
    )
    assert ident[0]["identity"] is True and ident[0]["plane"] is None


def test_write_net_csv_layout(tmp_path):
    table = verify_not_totally_bounded(build_nonexample(5), 0.5)
    path = tmp_path / "net.csv"
    write_net_csv(table, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N_max", "epsilon", "net_size"]
    assert len(rows) == 6
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4", "5"]
    assert all(r[1] == "0.5" for r in rows[1:])
    assert [int(r[2]) for r in rows[1:]] == list(table.sizes)


# ---------------------------------------------------------------------------
# Sparse Givens steps


def test_givens_apply_matches_dense_matrix():
    seq = build_nonexample(8)
    steps = givens_factorization(seq)
    steps += givens_factorization(np.array([[1.0, 0.0], [1.0, 0.0]]))
    rng = np.random.default_rng(3)
    for step in steps:
        for _ in range(3):
            x = rng.standard_normal(step.dim)
            x /= np.linalg.norm(x)
            assert np.abs(step.apply(x) - step.matrix @ x).max() <= 1e-15


def test_givens_supports_are_small():
    steps = givens_factorization(build_nonexample(30))
    for step in steps:
        assert len(step.support) <= 3
        assert step.u.shape == step.v.shape == step.support.shape
        for dense in step.plane:
            assert np.all(np.delete(dense, step.support) == 0.0)


def test_givens_json_planes_decode_to_dense_plane():
    seq = build_nonexample(12)
    steps = givens_factorization(seq)
    docs = json.loads(json.dumps(givens_to_json(steps)))
    for step, doc in zip(steps, docs):
        assert doc["angle"] == step.angle
        plane = doc["plane"]
        assert set(plane) == {"support", "u", "v"}
        u = np.zeros(seq.ambient_dim)
        v = np.zeros(seq.ambient_dim)
        index = np.asarray(plane["support"]) - 1
        u[index] = plane["u"]
        v[index] = plane["v"]
        assert np.array_equal(u, step.plane[0])
        assert np.array_equal(v, step.plane[1])


def _svd_rank_ok(step):
    singular = np.linalg.svd(step.matrix - np.eye(step.dim), compute_uv=False)
    return int((singular > 1e-9).sum()) == (0 if step.identity else 2)


@given(
    seed=st.integers(min_value=0, max_value=2_000),
    dim=st.integers(min_value=2, max_value=6),
)
def test_givens_rank_check_agrees_with_svd(seed, dim):
    rng = np.random.default_rng(seed)
    pair = rng.standard_normal((2, dim))
    pair /= np.linalg.norm(pair, axis=1, keepdims=True)
    (step,) = givens_factorization(pair)
    assert step.rank_ok
    assert _svd_rank_ok(step)


def test_givens_rank_check_rejects_vanishing_rotation():
    # distinct enough to get a plane, too close for rank(U - I) = 2
    y = np.array([1.0, 1e-12])
    pair = np.array([[1.0, 0.0], y / np.linalg.norm(y)])
    (step,) = givens_factorization(pair)
    assert not step.identity
    assert not step.rank_ok
    assert not _svd_rank_ok(step)


def test_givens_rank_check_passes_on_orbit():
    for step in givens_factorization(build_nonexample(8)):
        assert step.rank_ok and _svd_rank_ok(step)
