import csv
import math
import tracemalloc

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
from contraction_lab.cli import NMAX_CEILING
from contraction_lab.nonexample import (
    NonexampleSequence,
    _rank_ok,
    _step_pairs,
    flat_index,
    reconstruction_error,
    write_givens_csv,
    write_net_csv,
    write_sequence_csv,
    write_step_distances_csv,
)
from contraction_lab.products import _NET_MARGIN
from orbit_oracle import (
    dense_givens,
    dense_greedy_net,
    dense_orbit,
    dense_step_distances,
    reference_givens_csv,
    reference_sequence_csv,
    rotation,
    row_col,
    scalar_greedy_net,
    step_plane,
    step_rotation,
    ulps,
    unit_pair_plane,
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
    vectors = np.array([seq.vector(m) for m in range(1, seq.count + 1)])
    assert np.array_equal(vectors, dense_orbit(10))
    norms = np.linalg.norm(vectors, axis=1)
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
    assert report.measured.size == seq.count - 1 == 20
    # step m is entry m - 1; each row is left at its last point
    assert np.flatnonzero(~report.within).tolist() == [
        flat_index(n, n) - 1 for n in range(1, 6)
    ]
    assert report.within[1]  # m = 2
    assert report.measured[1] == pytest.approx(TWO_SIN_PI_8, abs=1e-15)
    assert not report.within[2]  # m = 3
    assert report.measured[2] == pytest.approx(TWO_SIN_PI_8, abs=1e-15)
    row4 = report.measured[report.within & (report.rows == 4)]
    assert row4.size == 3
    assert np.abs(row4 - TWO_SIN_PI_16).max() <= 1e-15


def test_step_distances_match_formula_everywhere():
    report = verify_step_distances(build_nonexample(30))
    assert report.within_row_ok
    assert report.max_within_deviation <= 1e-12
    # the cross-row hop lands at the same distance; measured, not assumed
    assert report.cross_row_ok
    assert report.max_cross_deviation <= 1e-12


def test_step_distances_shrink_with_row():
    report = verify_step_distances(build_nonexample(12))
    expected = report.expected.tolist()
    assert expected == sorted(expected, reverse=True)


def test_step_distance_views_match_arrays():
    seq = build_nonexample(7)
    report = verify_step_distances(seq)
    size = report.measured.size
    assert size == 27
    for array in (report.rows, report.within, report.expected):
        assert array.shape == (size,)
    # step m (entry m - 1) leaves row rows[m - 1] of point m
    assert report.rows.tolist() == [row_col(m)[0] for m in range(1, 28)]
    assert int(report.within.sum()) + int((~report.within).sum()) == 27
    assert np.flatnonzero(~report.within).tolist() == [
        flat_index(n, n) - 1 for n in range(1, 7)
    ]
    assert np.array_equal(
        report.deviations, np.abs(report.measured - report.expected)
    )
    assert report.max_within_deviation == report.deviations[
        report.within
    ].max()
    assert report.max_cross_deviation == report.deviations[
        ~report.within
    ].max()
    assert report.within_row_ok and report.cross_row_ok


# ---------------------------------------------------------------------------
# Vanishing conditions


def test_vanishing_conditions():
    seq = build_nonexample(10)
    report = verify_vanishing_conditions(seq)
    assert report.all_ok
    assert [tail.k for tail in report.tail_bounds] == [1, 2, 3]
    assert report.max_norm_deviation <= 1e-15
    assert report.norms_nonincreasing
    for decay in report.coordinate_decays:
        # rows past c never touch coordinate c: exact zeros, not small ones
        assert decay.max_abs_after == 0.0
        assert decay.first_clear_index == flat_index(decay.coordinate + 1, 1)
    for tail in report.tail_bounds:
        assert tail.ok
        assert tail.tail_max <= tail.bound


# ---------------------------------------------------------------------------
# Total boundedness failure


def test_net_growth_half_epsilon():
    table = verify_not_totally_bounded(build_nonexample(6), 0.5)
    # rows 1..5 checked by hand against the greedy scan; row 6 frozen
    assert table.sizes == (1, 3, 6, 8, 11, 13)
    assert [row.rows_completed for row in table.rows] == [1, 2, 3, 4, 5, 6]
    assert table.dominates_row_count
    assert table.net.size == 13


def test_net_growth_monotone_and_dominating():
    table = verify_not_totally_bounded(build_nonexample(10), 0.5)
    sizes = table.sizes
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] >= 10
    assert table.dominates_row_count


def test_net_collapses_for_huge_epsilon():
    # every orbit vector has nonnegative coordinates, so all sit within
    # sqrt(2) of e1 and the greedy net never grows past the first point
    table = verify_not_totally_bounded(build_nonexample(10), 1.5)
    assert table.sizes[-1] == table.net.size == 1


# ---------------------------------------------------------------------------
# Givens factorization


def test_givens_first_step_is_quarter_turn():
    seq = build_nonexample(4)
    steps = givens_factorization(seq)
    assert steps.angle[0] == pytest.approx(HALF_PI, abs=1e-15)  # e1 -> e2
    first = step_rotation(steps, 0, seq.ambient_dim)
    assert np.allclose(first[:2, :2], [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
    assert np.allclose(first[2:, 2:], np.eye(3), atol=1e-15)


def test_givens_steps_are_rotations_of_rank_two():
    seq = build_nonexample(8)
    steps = givens_factorization(seq)
    assert len(steps) == seq.count - 1
    eye = np.eye(seq.ambient_dim)
    for k in range(len(steps)):
        matrix = step_rotation(steps, k, seq.ambient_dim)
        assert np.linalg.norm(matrix.T @ matrix - eye) <= 1e-12
        sv = np.linalg.svd(matrix - eye, compute_uv=False)
        assert int((sv > 1e-9).sum()) == 2
        mapped = matrix @ seq.vector(k + 1)
        assert np.linalg.norm(mapped - seq.vector(k + 2)) <= 1e-12


def test_givens_within_row_angles():
    seq = build_nonexample(8)
    steps = givens_factorization(seq)
    for k, angle in enumerate(steps.angle.tolist()):
        n, j = row_col(k + 1)
        if j < n:  # within-row step rotates by exactly theta_n
            assert angle == pytest.approx(seq.angle_of(n), abs=1e-12)


def test_givens_reconstructs_whole_orbit():
    seq = build_nonexample(30)
    steps = givens_factorization(seq)
    carried = seq.vector(1).copy()
    worst = 0.0
    for k in range(len(steps)):
        carried = step_rotation(steps, k, seq.ambient_dim) @ carried
        worst = max(worst, np.linalg.norm(carried - seq.vector(k + 2)))
    assert worst <= 1e-9


@pytest.mark.parametrize("n_max", [2, 16, 17, 250, NMAX_CEILING])
def test_orbit_steps_are_proper_rotations(n_max):
    # why the factorization needs no identity or antipodal case: every
    # step's plane fills the window at rows[m-1] - 1, the step turns by
    # at most a quarter circle (c >= 0; the first, e1 -> e2, by exactly
    # one) and by no less than theta_{n_max} (s bounded away from 0)
    seq = build_nonexample(n_max)
    x, y, _ = _step_pairs(seq)
    steps = givens_factorization(seq)
    assert np.array_equal(steps.frame, seq.rows[:-1] - 1)
    assert np.all((x != 0.0) | (y != 0.0))
    assert steps.c.min() >= 0.0
    assert steps.s.min() >= 0.99 * math.sin(math.pi / (2 * n_max))
    assert steps.rank_ok.all()


# ---------------------------------------------------------------------------
# Exports


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_sequence_csv_rows(tmp_path):
    seq = build_nonexample(4)
    write_sequence_csv(seq, tmp_path / "sequence.csv")
    rows = _read_csv(tmp_path / "sequence.csv")
    assert rows[0] == ["m", "n", "j", "cos", "sin"]
    assert len(rows) == 1 + seq.count
    m, n, j, cos, sin = rows[5]  # m = 5 is row 3, column 2
    assert (m, n, j) == ("5", "3", "2")
    assert float(cos) == pytest.approx(math.cos(math.pi / 6))
    assert float(sin) == pytest.approx(math.sin(math.pi / 6))
    # row heads are basis vectors: their exact zero is written as 0
    assert rows[1] == ["1", "1", "1", "1", "0"]


def test_givens_csv_shape(tmp_path):
    seq = build_nonexample(3)
    steps = givens_factorization(seq)
    write_sequence_csv(seq, tmp_path / "sequence.csv")
    write_givens_csv(steps, tmp_path / "givens.csv")
    rows = _read_csv(tmp_path / "givens.csv")
    assert rows[0] == ["m", "angle", "v1", "v2"]
    assert len(rows) == seq.count
    assert [int(row[0]) for row in rows[1:]] == list(range(1, seq.count))
    # step m's window is the 1-based row n of sequence.csv row m, the
    # point it leaves
    points = _read_csv(tmp_path / "sequence.csv")[1:-1]
    assert [int(point[1]) - 1 for point in points] == steps.frame.tolist()


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


def test_givens_supports_are_small():
    seq = build_nonexample(30)
    steps = givens_factorization(seq)
    assert steps.u.shape == steps.v.shape == (seq.count - 1, 2)
    for k in range(len(steps)):
        for dense in step_plane(steps, k, seq.ambient_dim):
            window = [steps.frame[k], steps.frame[k] + 1]
            assert np.all(np.delete(dense, window) == 0.0)


def test_givens_csv_planes_decode_to_dense_plane(tmp_path):
    # step m's plane: u is sequence.csv row m's cos,sin on its
    # coordinates n and n + 1, v is givens.csv row m's v1,v2 there
    seq = build_nonexample(12)
    steps = givens_factorization(seq)
    write_sequence_csv(seq, tmp_path / "sequence.csv")
    write_givens_csv(steps, tmp_path / "givens.csv")
    for k, (point, row) in enumerate(
        zip(
            _read_csv(tmp_path / "sequence.csv")[1:],
            _read_csv(tmp_path / "givens.csv")[1:],
        )
    ):
        _, n, _, *on_window = point
        m, angle, *plane = row
        assert int(m) == k + 1
        assert float(angle) == steps.angle[k]
        u = np.zeros(seq.ambient_dim)
        v = np.zeros(seq.ambient_dim)
        index = [int(n) - 1, int(n)]
        u[index] = [float(x) for x in on_window]
        v[index] = [float(x) for x in plane]
        dense_u, dense_v = step_plane(steps, k, seq.ambient_dim)
        assert np.array_equal(u, dense_u)
        assert np.array_equal(v, dense_v)


def _svd_rank_two(u, v, c, s):
    matrix = rotation(u, v, c, s) - np.eye(u.size)
    return int((np.linalg.svd(matrix, compute_uv=False) > 1e-9).sum()) == 2


def _pair_rank_ok(x, y):
    """``_rank_ok`` and the SVD of the dense ``U - I`` on the rotation
    carrying unit ``x`` to unit ``y``."""
    u, v, c, s, angle = unit_pair_plane(x, y)
    fast = _rank_ok(
        u[None], v[None], np.array([c]), np.array([s]), np.array([angle])
    )
    return bool(fast[0]), _svd_rank_two(u, v, c, s)


@given(
    seed=st.integers(min_value=0, max_value=2_000),
    dim=st.integers(min_value=2, max_value=6),
)
def test_givens_rank_check_agrees_with_svd(seed, dim):
    rng = np.random.default_rng(seed)
    pair = rng.standard_normal((2, dim))
    pair /= np.linalg.norm(pair, axis=1, keepdims=True)
    assert _pair_rank_ok(*pair) == (True, True)


def test_givens_rank_check_rejects_vanishing_rotation():
    # distinct enough to get a plane, too close for rank(U - I) = 2
    y = np.array([1.0, 1e-12])
    assert _pair_rank_ok(np.array([1.0, 0.0]), y / np.linalg.norm(y)) == (
        False,
        False,
    )


def test_givens_rank_check_passes_on_orbit():
    seq = build_nonexample(8)
    steps = givens_factorization(seq)
    assert steps.rank_ok.all()
    for k in range(len(steps)):
        u, v = step_plane(steps, k, seq.ambient_dim)
        assert _svd_rank_two(u, v, steps.c[k], steps.s[k])


# ---------------------------------------------------------------------------
# Sparse orbit against the dense oracle


@pytest.mark.parametrize("n_max", [5, 12, 30, 60])
def test_sparse_orbit_matches_dense_oracle(n_max):
    seq = build_nonexample(n_max)
    dense = dense_orbit(n_max)
    for m in range(1, seq.count + 1):
        assert np.array_equal(seq.vector(m), dense[m - 1])
    measured = verify_step_distances(seq).measured
    assert ulps(measured, dense_step_distances(dense)).max() <= 2
    steps = givens_factorization(seq)
    reference = dense_givens(dense)
    for column, values in enumerate((steps.c, steps.s, steps.angle)):
        assert ulps(values, reference[:, column]).max() <= 2


@pytest.mark.parametrize("n_max", [5, 12, 15, 16, 30, 60, 120])
def test_sparse_inner_products_keep_dense_bits(n_max):
    # the cosines and plane norms feed y - c x, which cancels: a cosine
    # one ulp off moves the plane by thousands of ulps at n_max 250
    seq = build_nonexample(n_max)
    steps = givens_factorization(seq)
    reference = dense_givens(dense_orbit(n_max))
    assert np.array_equal(steps.c, reference[:, 0])
    assert np.array_equal(steps.s, reference[:, 1])
    assert np.array_equal(steps.angle, reference[:, 2])


@pytest.mark.parametrize("n_max", [5, 12, 30, 60])
@pytest.mark.parametrize("epsilon", [0.1, 0.5, 0.9, 1.0, 1.41, 1.5])
def test_net_matches_dense_oracle(n_max, epsilon):
    net = verify_not_totally_bounded(build_nonexample(n_max), epsilon).net
    dense = dense_orbit(n_max)
    assert net.member_indices == dense_greedy_net(dense, epsilon)
    if n_max <= 12:
        assert net.member_indices == scalar_greedy_net(dense, epsilon)


def test_net_exact_chord_ties():
    # the chord 2 sin(k pi / (4n)) is 1 at k = 2n/3, and a row head lies
    # 1 from the point at angle pi/6 of the row before, so at epsilon 1.0
    # pairs in one row and across rows sit exactly on the boundary
    dense = dense_orbit(18)
    dist = np.linalg.norm(dense[:, None] - dense[None], axis=-1)
    ties = [
        (row_col(a + 1)[0], row_col(b + 1)[0])
        for a, b in np.argwhere(np.triu(dist == 1.0))
    ]
    assert any(r == s for r, s in ties) and any(r != s for r, s in ties)
    net = verify_not_totally_bounded(build_nonexample(18), 1.0).net
    assert net.member_indices == dense_greedy_net(dense, 1.0)


@pytest.mark.parametrize("epsilon", [1.5e154, 1e300, np.finfo(float).max])
def test_net_at_an_epsilon_whose_square_overflows(epsilon):
    # the support rule's squared reach is inf here, so every member is
    # measured; (epsilon * (1 + margin)) ** 2 raised OverflowError
    dense = dense_orbit(12)
    net = verify_not_totally_bounded(build_nonexample(12), epsilon).net
    assert net.member_indices == dense_greedy_net(dense, epsilon) == (0,)


@pytest.mark.parametrize("n_max", [12, 30])
def test_net_support_rule_boundary(n_max):
    # below sqrt(2) / (1 + margin) only rows n - 1 and n are measured;
    # from there on every member is, and the net must agree either way
    edge = math.sqrt(2.0) / (1.0 + _NET_MARGIN)
    seq = build_nonexample(n_max)
    dense = dense_orbit(n_max)
    for epsilon in (
        edge * (1.0 - 1e-12),
        np.nextafter(edge, 0.0),
        edge,
        np.nextafter(edge, 2.0),
        edge * (1.0 + 1e-12),
        math.sqrt(2.0),
    ):
        net = verify_not_totally_bounded(seq, float(epsilon)).net
        assert net.member_indices == dense_greedy_net(dense, epsilon)


def test_net_skips_disjoint_rows_below_the_margin(monkeypatch):
    # one norm call per row of the orbit, each on rows n - 1 and n only
    calls = []
    norm = np.linalg.norm

    def recording(x, *args, **kwargs):
        calls.append(np.shape(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recording)
    verify_not_totally_bounded(build_nonexample(20), 0.5)
    assert len(calls) == 20
    assert all(shape[0] <= 3 for shape in calls)  # coordinates first


def test_orbit_memory_stays_sparse():
    tracemalloc.start()
    try:
        seq = build_nonexample(400)
        verify_not_totally_bounded(seq, 0.5)
        givens_factorization(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense orbit alone is 80200 x 401 float64, 257 MB
    assert peak < 64e6


# ---------------------------------------------------------------------------
# Reconstruction


def test_reconstruction_error_matches_dense_walk():
    # the same rotation arithmetic on dense vectors, with every
    # coordinate's error summed at every step
    seq = build_nonexample(30)
    steps = givens_factorization(seq)
    carried = seq.vector(1).tolist()
    worst = 0.0
    for k in range(len(steps)):
        c, s = steps.c[k], steps.s[k]
        plane = list(
            zip(
                range(steps.frame[k], steps.frame[k] + 2),
                steps.u[k].tolist(),
                steps.v[k].tolist(),
            )
        )
        a = sum(u * carried[i] for i, u, _ in plane)
        b = sum(v * carried[i] for i, _, v in plane)
        for i, u, v in plane:
            carried[i] = (
                carried[i] + (c - 1.0) * (u * a + v * b) + s * (v * a - u * b)
            )
        target = seq.vector(k + 2).tolist()
        worst = max(
            worst, math.fsum((x - t) ** 2 for x, t in zip(carried, target))
        )
    error = reconstruction_error(seq, steps)
    assert 0.0 < error <= 1e-13
    assert error == pytest.approx(math.sqrt(worst), rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# Writers


@pytest.mark.parametrize("n_max", [2, 12, 30])
def test_orbit_writers_match_csv_writer(tmp_path, n_max):
    seq = build_nonexample(n_max)
    steps = givens_factorization(seq)
    write_sequence_csv(seq, tmp_path / "sequence.csv")
    write_givens_csv(steps, tmp_path / "givens.csv")
    reference_sequence_csv(seq, tmp_path / "sequence_reference.csv")
    reference_givens_csv(steps, tmp_path / "givens_reference.csv")
    for name in ("sequence", "givens"):
        fast = (tmp_path / f"{name}.csv").read_bytes()
        assert fast == (tmp_path / f"{name}_reference.csv").read_bytes()


def test_orbit_csvs_read_back_exactly(tmp_path):
    seq = build_nonexample(30)
    steps = givens_factorization(seq)
    write_sequence_csv(seq, tmp_path / "sequence.csv")
    write_givens_csv(steps, tmp_path / "givens.csv")
    points = np.array(_read_csv(tmp_path / "sequence.csv")[1:], dtype=float)
    assert np.array_equal(points[:, 1], seq.rows)
    assert np.array_equal(points[:, 3], seq.cos)
    assert np.array_equal(points[:, 4], seq.sin)
    planes = np.array(_read_csv(tmp_path / "givens.csv")[1:], dtype=float)
    assert np.array_equal(planes[:, 0], np.arange(1, len(steps) + 1))
    assert np.array_equal(planes[:, 1], steps.angle)
    assert np.array_equal(planes[:, 2:4], steps.v)
    # the rest of each plane is read from the point the step leaves
    assert np.array_equal(points[:-1, 1] - 1, steps.frame)
    assert np.array_equal(points[:-1, 3:5], steps.u)


def test_sequence_writer_handles_zero_coordinates(tmp_path):
    # the built orbit always has cos > 0; a hand-made sequence may not
    seq = NonexampleSequence(
        n_max=2,
        rows=np.array([1, 2, 2]),
        cos=np.array([0.0, 0.0, 0.6]),
        sin=np.array([0.8, 0.0, 0.8]),
    )
    write_sequence_csv(seq, tmp_path / "sequence.csv")
    reference_sequence_csv(seq, tmp_path / "reference.csv")
    fast = (tmp_path / "sequence.csv").read_bytes()
    assert fast == (tmp_path / "reference.csv").read_bytes()
    assert fast.splitlines()[1:3] == [b"1,1,1,0,0.80000000000000004", b"2,2,1,0,0"]


def test_step_distances_writer_matches_csv_writer(tmp_path):
    report = verify_step_distances(build_nonexample(12))
    write_step_distances_csv(report, tmp_path / "fast.csv")
    with open(tmp_path / "slow.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("m", "row", "kind", "measured"))
        for k, (row, inside, measured) in enumerate(
            zip(
                report.rows.tolist(),
                report.within.tolist(),
                report.measured.tolist(),
            )
        ):
            writer.writerow(
                [
                    k + 1,
                    row,
                    "within" if inside else "cross",
                    format(measured, ".17g"),
                ]
            )
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "slow.csv").read_bytes()


@pytest.mark.parametrize("n_max", [2, 12, 60])
def test_dropped_orbit_cells_rebuild_from_the_written_files(tmp_path, n_max):
    # the cells givens.csv and step_distances.csv no longer write, each
    # rebuilt from the files and compared, as %.17g text, with the cell
    # the full layout wrote: window,u1,u2 are sequence.csv row m's
    # n,cos,sin, and expected and deviation follow from row and measured
    # by verify_step_distances's expressions
    seq = build_nonexample(n_max)
    steps = givens_factorization(seq)
    report = verify_step_distances(seq)
    write_sequence_csv(seq, tmp_path / "sequence.csv")
    write_givens_csv(steps, tmp_path / "givens.csv")
    write_step_distances_csv(report, tmp_path / "step_distances.csv")
    points = _read_csv(tmp_path / "sequence.csv")[1:]
    planes = _read_csv(tmp_path / "givens.csv")[1:]
    distances = _read_csv(tmp_path / "step_distances.csv")[1:]
    assert len(planes) == len(distances) == len(points) - 1 == len(steps)
    for k, (point, plane, distance) in enumerate(
        zip(points, planes, distances)
    ):
        m, n, _, cos, sin = point
        assert plane[0] == distance[0] == m
        assert [n, cos, sin] == [
            str(steps.frame[k] + 1),
            format(steps.u[k, 0], ".17g"),
            format(steps.u[k, 1], ".17g"),
        ]
        row, measured = int(distance[1]), float(distance[3])
        expected = 2.0 * math.sin(seq.angle_of(row) / 2.0)
        assert format(expected, ".17g") == format(report.expected[k], ".17g")
        assert format(abs(measured - expected), ".17g") == format(
            report.deviations[k], ".17g"
        )
