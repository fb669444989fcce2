import argparse
import contextlib
import csv
import errno
import gc
import io
import json
import math
import os
import runpy
import shutil
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st

from contraction_lab import (
    DEFAULT,
    ContractionChain,
    InvariantError,
    Operator,
    PreconditionError,
    build_chain,
    chains,
    cli,
    corpus,
    limit_operator,
    parse_chain_spec,
    random_schur_chain,
)
from contraction_lab.chains import CACHE_CEILING, _near_one_max_dim
from contraction_lab.cli import NMAX_CEILING, main
from contraction_lab.corpus import KIND_HORIZONS
from contraction_lab.config import SEED_ENV_VAR

REPO_SPECS = Path(__file__).resolve().parents[1] / "specs"


def run_cli(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code if exc.value.code is not None else 0


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


TELESCOPING = {
    "kind": "diagonal",
    "dim": 2,
    "horizon": 50,
    "curves": [["const", 1.0], ["harmonic_to", 0.5]],
}

GAP_ENGINEERED = {
    "kind": "gap_engineered",
    "dim": 5,
    "horizon": 120,
    "seed": 5,
    "delta": 0.1,
    "fixed_rank": 2,
}

NEAR_ONE = {
    "kind": "near_one_accumulating",
    "dim": 6,
    "horizon": 300,
    "seed": 2,
}


# ---------------------------------------------------------------------------
# simulate


def test_simulate_identity_chain(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "kind": "diagonal",
            "dim": 2,
            "horizon": 5,
            "curves": [["const", 1.0], ["const", 1.0]],
        },
    )
    out = tmp_path / "out"
    assert run_cli(["simulate", "--spec", spec, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "pass"
    assert summary["final"]["sot_err_max"] == 0.0
    assert summary["final"]["opnorm_err"] == 0.0
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == "n,probe_id,sot_err,adj_err,consec_diff,a_n,b_n,wot_err"
    rows = (out / "opnorm.csv").read_text().splitlines()
    assert rows == ["n,opnorm_err", *(f"{n},0" for n in range(1, 6))]


def test_simulate_telescoping_chain(tmp_path):
    spec = write_spec(tmp_path, TELESCOPING)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--spec", spec, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "pass"
    assert summary["final"]["sot_err_max"] == pytest.approx(
        51.0 / 2.0**50, rel=1e-10
    )
    assert summary["verdicts"]["sot_converged"] is True
    assert summary["rank_trajectory"][:3] == [2, 1, 1]
    rows = (out / "trace.csv").read_text().splitlines()
    assert len(rows) == 1 + 50 * len(summary["probe_ids"])
    assert len((out / "opnorm.csv").read_text().splitlines()) == 1 + 50


def test_simulate_diagonalizes_each_step_once(tmp_path, eigensolve_counts):
    h = 12
    spec = write_spec(
        tmp_path,
        {"kind": "schur_decrement", "dim": 6, "horizon": h, "seed": 4,
         "fixed_rank": 2},
    )
    out = tmp_path / "out"
    # inconclusive: after 12 steps the empirical limit is not yet trusted
    assert run_cli(["simulate", "--spec", spec, "--out", str(out)]) == 2
    # one eigh of each T_n, shared by the generator's square root, the
    # step's fixed space and the empirical limit; one eigvalsh for T_1;
    # one qr for the frame and one for each sampler basis, and one
    # Cholesky factorization proving each decrement a contraction; one
    # SVD (opnorm_err) and one Cholesky factorization (the norm
    # certificate) of each product S_n, and one SVD for the Cauchy gap
    assert eigensolve_counts == {
        "eigh": h, "eigvalsh": 1, "cholesky": 2 * h - 1, "qr": h,
        "svd": h + 1,
    }
    # dim 6 stores T_2 .. T_12 in one block: its Gaussians are factored
    # and its decrements certified in one stacked call each, and its
    # products are certified and measured in one stacked call each
    assert eigensolve_counts.calls == {
        "eigh": h, "eigvalsh": 1, "cholesky": 2, "qr": 2, "svd": 2,
    }
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rank_trajectory"] == [2] * h


def test_simulate_at_dim_128_factors_each_decrement_once(
    tmp_path, eigensolve_counts
):
    # the simulate-dense benchmark's chain at seed 3: one step per block.
    # 80 eigh of T_1 .. T_80, T_1's eigvalsh, the frame's and 79 bases'
    # qr, one Cholesky factorization certifying each decrement and one
    # each product's norm, one SVD of each S_n - P and the Cauchy gap's;
    # no decrement falls back to eigvalsh, and no product to its SVD norm
    spec = write_spec(
        tmp_path,
        {"kind": "schur_decrement", "dim": 128, "horizon": 80, "seed": 3,
         "fixed_rank": 8, "top": 0.9},
    )
    out = tmp_path / "out"
    assert run_cli(["simulate", "--spec", spec, "--out", str(out)]) == 0
    solved = {
        "eigh": 80, "eigvalsh": 1, "cholesky": 159, "qr": 80, "svd": 81,
    }
    assert eigensolve_counts == solved
    assert eigensolve_counts.calls == solved


def test_simulate_schur_run_peaks_below_its_full_steps(tmp_path):
    # a Schur chain stores each step's upper triangle, 64 * 65 / 2
    # entries at dim 64, and holds one full step: the whole run peaks
    # below the 64 * 64 entries a step that storing full steps took
    dim, horizon = 64, 300
    spec = write_spec(
        tmp_path,
        {"kind": "schur_decrement", "dim": dim, "horizon": horizon,
         "seed": 3, "fixed_rank": 4},
    )
    tracemalloc.start()
    try:
        code = run_cli(["simulate", "--spec", spec, "--out",
                        str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < dim * dim * horizon * 8


def test_simulate_usage_errors(tmp_path, capsys):
    spec = write_spec(tmp_path, TELESCOPING)
    argv = ["simulate", "--spec", spec, "--horizon", "99"]
    err = assert_one_line_usage_error(argv, capsys)
    assert "horizon 99 outside materialized range 1..50" in err
    assert run_cli(["simulate", "--spec", str(tmp_path / "missing.json")]) == 64
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    assert run_cli(["simulate", "--spec", str(bad_json)]) == 64
    bad_kind = write_spec(tmp_path, {"kind": "bogus", "dim": 2}, "kind.json")
    assert run_cli(["simulate", "--spec", bad_kind]) == 64
    assert run_cli(["simulate"]) == 64  # --spec is required
    assert run_cli(["frobnicate"]) == 64
    argv = ["simulate", "--spec", spec, "--out", str(tmp_path)]
    assert_rejects_bad_tolerances(argv, capsys)
    assert not (tmp_path / "summary.json").exists()


def test_simulate_short_horizon_is_inconclusive(tmp_path):
    # the products have not reached the convergence threshold by step
    # 10 (sot_err 3.2e-3), which no theorem forbids: exit 2, not 1
    doc = {"kind": "diagonal", "dim": 1, "curves": [["peel", 5.0, 0.5, 0.9]]}
    for horizon, code, status in ((10, 2, "inconclusive"), (40, 0, "pass")):
        spec = write_spec(tmp_path, dict(doc, horizon=horizon))
        out = tmp_path / f"h{horizon}"
        assert run_cli(["simulate", "--spec", spec, "--out", str(out)]) == code
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == status
    assert summary["verdicts"]["sot_converged"] is True


# bundled specs with a step whose eigenvalues round to just outside
# [0, 1], so a zero --tol-psd refuses them
ZERO_PSD_REFUSED = {
    "conjugated_mixed.json",
    "gap_dim16.json",
    "gap_engineered.json",
    "schur_dim16.json",
    "schur_random.json",
}


@pytest.mark.parametrize(
    "spec", sorted(p.name for p in REPO_SPECS.glob("*.json"))
)
def test_simulate_zero_psd_slack_ends_in_one_line(tmp_path, capsys, spec):
    # with no slack, rounding can push an eigenvalue of a step or of the
    # limit just above 1; the run refuses that step before any product,
    # so rounding is a usage error (64), never a broken theorem (1)
    argv = ["simulate", "--spec", str(REPO_SPECS / spec), "--tol-psd", "0",
            "--out", str(tmp_path)]
    capsys.readouterr()
    code = run_cli(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (0, 64)
    assert len(err.splitlines()) == (0 if code == 0 else 1)
    if spec in ZERO_PSD_REFUSED:
        assert code == 64
        assert "step 1 is not a positive contraction" in err
        assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "spec, tol_psd",
    [
        ("conjugated_mixed.json", "1e-14"),
        ("gap_dim16.json", "1e-14"),
        ("gap_engineered.json", "1e-14"),
        ("schur_random.json", "1e-13"),
        ("schur_dim16.json", "1e-13"),
    ],
)
def test_simulate_tiny_psd_slack_product_rounding_is_inconclusive(
    tmp_path, capsys, spec, tol_psd
):
    # every step passes its positivity check at this slack, but the
    # products' rounding takes ||S_n|| past 1 + tol_psd and not past the
    # default slack: inconclusive with artifacts, where simulate exited 1
    # ("product norm exceeded 1") and wrote nothing
    argv = ["simulate", "--spec", str(REPO_SPECS / spec), "--tol-psd",
            tol_psd, "--out", str(tmp_path)]
    capsys.readouterr()
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verdicts"]["product_norm_bounded"] is None
    assert summary["status"] == "inconclusive"
    assert (tmp_path / "trace.csv").exists()


def test_eigensolver_failure_ends_in_one_line(tmp_path, capsys, monkeypatch):
    def failing(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    spec = write_spec(tmp_path, TELESCOPING)
    argv = ["simulate", "--spec", spec, "--out", str(tmp_path / "out")]
    err = assert_one_line_usage_error(argv, capsys)
    assert "eigensolver failed: Eigenvalues did not converge" in err
    assert not (tmp_path / "out").exists()


BAD_TOLERANCES = [
    (flag, value)
    for flag in ("--tol-eig", "--tol-psd")
    for value in ("-1", "nan", "inf")
]


def assert_one_line_usage_error(argv, capsys):
    capsys.readouterr()
    assert run_cli(argv) == 64
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    return err


def assert_rejects_bad_tolerances(argv, capsys):
    for flag, value in BAD_TOLERANCES:
        err = assert_one_line_usage_error(argv + [flag, value], capsys)
        assert f"argument {flag}: must be a finite number >= 0" in err


def test_simulate_accepts_zero_tolerances(tmp_path):
    spec = write_spec(tmp_path, TELESCOPING)
    out = str(tmp_path / "out")
    argv = ["simulate", "--spec", spec, "--out", out]
    assert run_cli(argv + ["--tol-eig", "0", "--tol-psd", "0"]) == 0


def test_generator_error_is_a_usage_error(tmp_path, capsys):
    # the generator cannot stage 7 peels in 50 steps, which the spec
    # check refuses from the same rule before any chain is built
    spec = write_spec(
        tmp_path,
        {"kind": "near_one_accumulating", "dim": 8, "horizon": 50, "seed": 1},
    )
    assert run_cli(["simulate", "--spec", spec]) == 64
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "near_one_accumulating at horizon 50 takes dim 2..3, got 8" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# gap


@pytest.mark.parametrize(
    "error, code, line",
    [
        (InvariantError("rank did not drop"), 1,
         "invariant violated: rank did not drop"),
        (PreconditionError("grid must descend"), 64,
         "contraction-lab: error: grid must descend"),
    ],
)
def test_gap_search_errors_end_in_one_line(
    tmp_path, capsys, monkeypatch, error, code, line
):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "certificate_search", failing)
    spec = write_spec(tmp_path, GAP_ENGINEERED)
    capsys.readouterr()
    assert run_cli(["gap", "--spec", spec, "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err.splitlines() == [line]


def test_gap_certificate_and_rate_table(tmp_path):
    spec = write_spec(tmp_path, GAP_ENGINEERED)
    out = tmp_path / "out"
    assert run_cli(["gap", "--spec", spec, "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert set(cert) == {"delta", "N", "scope", "rank_trajectory"}
    assert cert["delta"] == 0.1
    assert cert["N"] == 1
    assert cert["scope"] == "analytic"
    assert cert["rank_trajectory"] == [{"n": 1, "rank": 2, "delta_k": 0.1}]
    with open(out / "rate_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "lhs", "rhs"]
    assert float(rows[1][1]) <= 1.0
    assert all(float(r[2]) - float(r[1]) >= -1e-10 for r in rows[1:])


def test_gap_exhaustion_reports_failure(tmp_path):
    spec = write_spec(tmp_path, NEAR_ONE)
    out = tmp_path / "out"
    assert run_cli(["gap", "--spec", spec, "--out", str(out)]) == 3
    failure = json.loads((out / "failure.json").read_text())
    assert failure["status"] == "no_certificate"
    assert failure["violations"]
    ranks = [s["rank"] for s in failure["rank_trajectory"]]
    assert ranks == sorted(ranks, reverse=True)
    assert not (out / "certificate.json").exists()


@pytest.mark.parametrize(
    "horizon, expected", [("30", 2), ("60", 2), ("400", 3)]
)
def test_gap_rate_table_stays_within_certified_horizon(
    tmp_path, capsys, horizon, expected
):
    # near_one certifies delta 0.5 empirically at short horizons, but the
    # probe only reaches the gap regime near n=360: no rate table can be
    # claimed inside the certified range, so the run is inconclusive
    out = tmp_path / "out"
    spec = str(REPO_SPECS / "near_one.json")
    argv = ["gap", "--spec", spec, "--horizon", horizon, "--out", str(out)]
    assert run_cli(argv) == expected
    assert not (out / "rate_table.csv").exists()
    if expected == 2:
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["scope"] == "empirical"
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"n={horizon}" in err
    else:
        assert (out / "failure.json").exists()


def test_gap_rate_table_stops_at_the_searched_horizon(tmp_path):
    # gap_dim16's certificate is analytic, but only steps 1..40 were
    # checked against --tol-psd 1e-15, and step 46 fails it: the table
    # stops at step 40, where it ran on to the chain's step 210
    out = tmp_path / "out"
    argv = ["gap", "--spec", str(REPO_SPECS / "gap_dim16.json"),
            "--horizon", "40", "--tol-psd", "1e-15", "--out", str(out)]
    assert run_cli(argv) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert (cert["scope"], cert["N"]) == ("analytic", 1)
    with open(out / "rate_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 41  # header + j = 0..39
    assert rows[-1][0] == "39"


def test_gap_custom_grid(tmp_path):
    spec = write_spec(tmp_path, GAP_ENGINEERED)
    out = tmp_path / "out"
    code = run_cli(
        ["gap", "--spec", spec, "--grid", "0.3,0.05", "--out", str(out)]
    )
    assert code == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["delta"] == 0.05
    assert all(s["delta_k"] in (0.3, 0.05) for s in cert["rank_trajectory"])


def test_gap_grid_usage_errors(tmp_path, capsys):
    spec = write_spec(tmp_path, GAP_ENGINEERED)
    assert run_cli(["gap", "--spec", spec, "--epsilon", "-1"]) == 64
    capsys.readouterr()
    for bad in ("nan", "inf", "-inf"):
        # no vacuous bound for inf, no "within nan" verdict for nan
        err = assert_one_line_usage_error(
            ["gap", "--spec", spec, f"--epsilon={bad}", "--out", str(tmp_path)],
            capsys,
        )
        assert f"must be a finite number >= 0, got '{bad}'" in err
    assert run_cli(["gap", "--spec", spec, "--grid", "abc"]) == 64
    assert run_cli(["gap", "--spec", spec, "--grid", "0.1,0.2"]) == 64
    argv = ["gap", "--spec", spec, "--out", str(tmp_path)]
    assert_rejects_bad_tolerances(argv, capsys)
    assert not (tmp_path / "certificate.json").exists()


@pytest.mark.parametrize(
    "spec, tol_psd, step, eigenvalue",
    [
        ("schur_random.json", "5e-15", 59, "1.0000000000000056"),
        ("gap_dim16.json", "1e-15", 46, "1.0000000000000013"),
    ],
)
def test_gap_refuses_a_scanned_step_outside_the_slack(
    tmp_path, capsys, spec, tol_psd, step, eigenvalue
):
    # the step's gap test reads its eigenvalues, so it checks them against
    # --tol-psd too; gap certified these chains with such a step
    argv = ["gap", "--spec", str(REPO_SPECS / spec), "--tol-psd", tol_psd,
            "--out", str(tmp_path)]
    err = assert_one_line_usage_error(argv, capsys)
    assert err == (
        f"contraction-lab: error: step {step} is not a positive contraction: "
        f"offending eigenvalue {eigenvalue}\n"
    )
    assert not (tmp_path / "certificate.json").exists()


def test_gap_refuses_an_empty_gap_window(tmp_path, capsys):
    # at --tol-eig 0.01 the grid value 0.02 leaves the window empty; gap
    # certified the near_one stress chain at delta 0.02 there
    argv = ["gap", "--spec", str(REPO_SPECS / "near_one.json"),
            "--tol-eig", "0.01", "--out", str(tmp_path)]
    err = assert_one_line_usage_error(argv, capsys)
    assert "delta 0.02 leaves the gap window empty at tol_eig 0.01" in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# nonexample


def test_nonexample_smallest_run(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["nonexample", "--nmax", "2", "--out", str(out)])
    assert code == 0
    for name, header, count in (
        ("sequence.csv", ["m", "n", "j", "cos", "sin"], 3),
        ("givens.csv", ["m", "angle", "v1", "v2"], 2),
    ):
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header
        assert len(rows) == 1 + count
    assert not (out / "sequence.json").exists()
    assert not (out / "givens.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "pass"
    assert all(summary["verdicts"].values())
    with open(out / "net_growth.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N_max", "epsilon", "net_size"]
    assert len(rows) == 3


def test_nonexample_net_dominates(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["nonexample", "--nmax", "12", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["net_sizes"][-1] >= 12
    assert summary["verdicts"]["net_dominates_rows"] is True
    assert summary["cross_row_matches_formula"] is True
    dist_rows = (out / "step_distances.csv").read_text().splitlines()
    assert dist_rows[0] == "m,row,kind,measured"
    assert len(dist_rows) == 1 + (12 * 13 // 2 - 1)


def test_nonexample_usage_errors(tmp_path, capsys):
    assert run_cli(["nonexample", "--nmax", "1"]) == 64
    assert run_cli(["nonexample", "--epsilon", "0"]) == 64
    assert run_cli(["nonexample", "--epsilon", "-2"]) == 64
    capsys.readouterr()
    for bad in ("nan", "inf", "-inf"):
        err = assert_one_line_usage_error(
            ["nonexample", "--nmax", "5", f"--epsilon={bad}", "--out", str(tmp_path)],
            capsys,
        )
        assert f"must be a finite number > 0, got '{bad}'" in err
    capsys.readouterr()
    assert run_cli(["nonexample", "--nmax", str(NMAX_CEILING + 1)]) == 64
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"contraction-lab: error: --nmax must lie in 2..{NMAX_CEILING}, "
        f"got {NMAX_CEILING + 1}"
    ]
    # seed and tolerances mean nothing to the orbit: the command refuses them
    argv = ["nonexample", "--nmax", "5", "--out", str(tmp_path)]
    ignored = ["--tol-eig", "7", "--tol-psd", "-3", "--seed", "9"]
    err = assert_one_line_usage_error(argv + ignored, capsys)
    assert "unrecognized arguments: --tol-eig 7 --tol-psd -3 --seed 9" in err
    for option in ignored[::2]:
        assert_one_line_usage_error(argv + [option, "1"], capsys)
    assert not (tmp_path / "summary.json").exists()


# ---------------------------------------------------------------------------
# verify


def test_verify_small_corpus(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        ["verify", "--seeds", "1", "--dims", "2,3", "--out", str(out)]
    )
    assert code == 0
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["status"] == "pass"
    assert verdicts["corpus"]["chains"] == 10  # 5 kinds x 2 dims x 1 seed
    assert verdicts["corpus"]["faulty_fixture"] is False
    for name, counts in verdicts["properties"].items():
        assert counts["fail"] == 0, name
        assert counts["total"] > 0


def test_verify_drops_each_chain_before_building_the_next(
    tmp_path, monkeypatch
):
    # a finished chain and its stored steps are garbage by the time
    # the next chain is built, so verify's memory does not grow with
    # --seeds
    corpus_chains = cli.corpus_chains
    built = []
    alive = []

    def tracked(dims, seed_count):
        for chain in corpus_chains(dims, seed_count):
            built.append(weakref.ref(chain))
            yield chain
            del chain
            gc.collect()
            alive.append(sum(ref() is not None for ref in built))

    monkeypatch.setattr(cli, "corpus_chains", tracked)
    argv = ["verify", "--seeds", "2", "--dims", "2,3", "--out", str(tmp_path)]
    assert run_cli(argv) == 0
    assert len(built) == 20
    assert alive == [0] * 20


@pytest.mark.parametrize(
    "corpus",
    ["equivalence_corpus", "monotone_pair_corpus", "descent_triple_corpus"],
)
def test_operator_corpora_drop_each_item_before_drawing_the_next(corpus):
    # verify draws 200, 100 and 12 items per --seeds from these; an item
    # kept after the next is drawn would make its memory grow with --seeds
    items = iter(getattr(cli, corpus)(3))
    first = weakref.ref(next(items)[0])
    next(items)
    gc.collect()
    assert first() is None


def test_verify_refuses_dims_the_corpus_cannot_build(
    tmp_path, capsys, monkeypatch
):
    # near_one_accumulating stages dim - 1 peels, 2 steps apart, in steps
    # 40..360 of its corpus horizon 400: at most 160 peels
    assert KIND_HORIZONS["near_one_accumulating"] == 400
    assert _near_one_max_dim(400) == 161
    built = []
    for name in ("diagonal_chain", "conjugated_diagonal_chain",
                 "random_schur_chain", "gap_engineered_chain",
                 "near_one_accumulating_chain"):
        generator = getattr(corpus, name)

        def counted(*args, _generator=generator, **kwargs):
            built.append(args)
            return _generator(*args, **kwargs)

        monkeypatch.setattr(corpus, name, counted)
    out = tmp_path / "out"
    # every dim is checked before the first chain, dim 2's included
    for dims in ("162", "580", "2,579", f"2,{2**20}"):
        argv = ["verify", "--seeds", "1", "--dims", dims, "--out", str(out)]
        err = assert_one_line_usage_error(argv, capsys)
        bad = dims.split(",")[-1]
        assert (
            f"corpus dim {bad}: near_one_accumulating at horizon 400 takes "
            f"dim 2..161, got {bad}"
        ) in err
    assert built == []
    assert not out.exists()


def test_verify_catches_faulty_fixture(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        [
            "verify",
            "--seeds",
            "1",
            "--dims",
            "2",
            "--include-faulty-fixture",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["status"] == "fail"
    assert verdicts["corpus"]["faulty_fixture"] is True
    assert verdicts["properties"]["chain_ordering"]["fail"] >= 1


def test_verify_ordering_checks_every_step(tmp_path, monkeypatch):
    # the fixture rises at n = 2 -> 3 and is back below T_1 by n = 5, so
    # only a check of every consecutive pair sees that it is not ordered
    def factory(n):
        bump = 0.01 if n == 3 else 0.0
        return Operator(np.diag([1.0, 0.9 - 0.001 * n + bump]))

    monkeypatch.setattr(
        cli,
        "_faulty_chain",
        lambda: ContractionChain(2, "rise_and_recover", 200, factory, seed=0),
    )
    out = tmp_path / "out"
    code = run_cli(
        ["verify", "--seeds", "1", "--dims", "2", "--include-faulty-fixture",
         "--out", str(out)]
    )
    assert code == 1
    ordering = json.loads((out / "verdicts.json").read_text())["properties"][
        "chain_ordering"
    ]
    assert ordering["fail"] == 1
    assert ordering["pass"] == ordering["total"] - 1


@pytest.mark.parametrize(
    "dims, refused", [([], 3), (["--dims", "2"], 0)]
)
def test_verify_zero_psd_slack_is_inconclusive(
    tmp_path, capsys, dims, refused
):
    # at --tol-psd 0 the conjugated chains of dims 4, 8 and 16 have a top
    # eigenvalue 1 + O(2^-52), operator-corpus items fail their
    # positivity preconditions, and Schur chains are ordered only up to
    # rounding: inconclusive, where verify exited 1 ("product norm
    # exceeded 1") and, with --dims 2, 64 (an item's precondition)
    out = tmp_path / "out"
    argv = ["verify", "--seeds", "1", "--tol-psd", "0", "--out", str(out)]
    assert run_cli(argv + dims) == 2
    assert capsys.readouterr().err == ""
    verdicts = json.loads((out / "verdicts.json").read_text())
    properties = verdicts["properties"]
    assert verdicts["status"] == "inconclusive"
    assert all(counts["fail"] == 0 for counts in properties.values())
    # a refused chain gets four inconclusive verdicts
    assert properties["ab_interleaving"]["inconclusive"] == refused
    assert properties["chain_ordering"]["inconclusive"] > refused
    for name in ("fixed_vector_equivalence", "projection_monotonicity",
                 "rank_strict_descent"):
        assert properties[name]["inconclusive"] > 0, name
    # a chain that rises by more than the default slack still fails
    faulty = argv + ["--dims", "2", "--include-faulty-fixture"]
    assert run_cli(faulty) == 1
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["properties"]["chain_ordering"]["fail"] == 1


def test_verify_tiny_psd_slack_product_rounding_is_inconclusive(
    tmp_path, capsys, monkeypatch
):
    # at --tol-psd 1e-14 every step of the conjugated chains of dims 8
    # and 16 passes its positivity check, but their products' rounding
    # reaches 1 + 4.3e-14; at the default slack the run passes, so the
    # two chains are inconclusive, where verify exited 1 ("product norm
    # exceeded 1") and wrote nothing
    out = tmp_path / "out"
    argv = ["verify", "--seeds", "1", "--tol-psd", "1e-14", "--out", str(out)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == ""
    properties = json.loads((out / "verdicts.json").read_text())["properties"]
    assert all(counts["fail"] == 0 for counts in properties.values())
    for name in ("chain_ordering", "ab_interleaving", "adjoint_convergence",
                 "operator_norm_convergence"):
        assert properties[name]["inconclusive"] == 2, name
    # an invariant the default slack breaks too is still a failure
    def broken(*args, **kwargs):
        raise InvariantError("product norm exceeded 1: max 2.0")

    monkeypatch.setattr(cli, "iterate_products", broken)
    assert run_cli(argv) == 1
    assert "product norm exceeded 1: max 2.0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--spec", str(REPO_SPECS / "schur_random.json")],
        ["simulate", "--spec", str(REPO_SPECS / "conjugated_mixed.json")],
        ["verify", "--seeds", "1"],
        ["gap", "--spec", str(REPO_SPECS / "gap_engineered.json")],
    ],
    ids=["simulate-schur", "simulate-curves", "verify", "gap"],
)
def test_huge_psd_slack_keeps_the_default_artifacts(tmp_path, capsys, argv):
    # at --tol-psd 1e300, (1 + tol)^2 overflows: the norm and order
    # certificates decline with no overflow warning, the solves pass
    # every check, and the artifacts are those of the default slack
    outputs = []
    for extra in ([], ["--tol-psd", "1e300"]):
        out = tmp_path / str(len(outputs))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv + extra + ["--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize("tol_psd", ["1e-14", "0"])
def test_verify_runs_each_check_once(tmp_path, monkeypatch, tol_psd):
    # below the default slack each verdict is judged from the witness its
    # check computed; verify reran failing checks at the default slack
    seen = {}

    def recording(name, check):
        def wrapped(first, *args, **kwargs):
            seen.setdefault(name, []).append(first)
            return check(first, *args, **kwargs)

        monkeypatch.setattr(cli, name, wrapped)

    for name in ("is_decreasing", "iterate_products",
                 "check_projection_monotone"):
        recording(name, getattr(cli, name))
    out = tmp_path / "out"
    argv = ["verify", "--seeds", "1", "--tol-psd", tol_psd, "--out", str(out)]
    assert run_cli(argv) == 2
    verdicts = json.loads((out / "verdicts.json").read_text())
    # each call holds its chain or operand, so a repeat shows as a
    # repeated object
    for name, firsts in seen.items():
        assert len({id(first) for first in firsts}) == len(firsts), name
    assert len(seen["is_decreasing"]) == verdicts["corpus"]["chains"]
    assert {id(c) for c in seen["iterate_products"]} <= {
        id(c) for c in seen["is_decreasing"]
    }
    pairs = verdicts["properties"]["projection_monotonicity"]["total"]
    assert len(seen["check_projection_monotone"]) == pairs


def test_verify_takes_one_svd_per_chain_and_cauchy_gap(
    tmp_path, eigensolve_counts
):
    # verify judges convergence at the horizon only, so each of the 40
    # chains takes one SVD, for its final opnorm_err, and each of the 8
    # empirical limits one for its Cauchy gap, where one SVD per product
    # step took 9,288 in 222 calls; every block of products is certified
    # by Cholesky, so no product norm takes an SVD
    assert run_cli(["verify", "--seeds", "2", "--out", str(tmp_path)]) == 0
    assert eigensolve_counts == {
        "eigh": 2001, "eigvalsh": 832, "cholesky": 29072, "qr": 1920,
        "svd": 48,
    }
    assert eigensolve_counts.calls == {
        "eigh": 2001, "eigvalsh": 832, "cholesky": 458, "qr": 678,
        "svd": 48,
    }


@pytest.mark.parametrize("tol_eig, refused", [("0.01", 1), ("0.1", 21)])
def test_verify_coarse_tol_eig_monotonicity_is_inconclusive(
    tmp_path, capsys, tol_eig, refused
):
    # a coarse --tol-eig counts eigenvalues in [1 - tol_eig, 1 - 1e-9) as
    # 1; the projection comparisons it makes fail are inconclusive, where
    # verify exited 1 with 1 and 21 of 100 pairs failed
    out = tmp_path / "out"
    argv = ["verify", "--seeds", "1", "--tol-eig", tol_eig, "--out", str(out)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == ""
    properties = json.loads((out / "verdicts.json").read_text())["properties"]
    assert all(counts["fail"] == 0 for counts in properties.values())
    assert properties["projection_monotonicity"] == {
        "fail": 0, "inconclusive": refused, "pass": 100 - refused,
        "total": 100,
    }


@pytest.mark.parametrize(
    "options, refused",
    [
        (["--tol-eig", "0.5"],
         {"adjoint_convergence": 12, "operator_norm_convergence": 12}),
        (["--tol-eig", "0"],
         {"projection_monotonicity": 30, "adjoint_convergence": 2,
          "operator_norm_convergence": 2}),
        (["--tol-eig", "1e-15"], {"projection_monotonicity": 3}),
        (["--dims", "2", "--tol-eig", "1"],
         {"adjoint_convergence": 5, "operator_norm_convergence": 5}),
    ],
    ids=["eig5e-1", "eig0", "eig1e-15", "dims2-eig1"],
)
def test_verify_band_failures_are_inconclusive(
    tmp_path, capsys, options, refused
):
    # a --tol-eig coarser or finer than the default moves which
    # eigenvalues near 1 count as 1; a verdict on a fixed space that
    # fails with such an eigenvalue is inconclusive, where verify exited
    # 1 with these counts failed
    out = tmp_path / "out"
    argv = ["verify", "--seeds", "1", *options, "--out", str(out)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == ""
    properties = json.loads((out / "verdicts.json").read_text())["properties"]
    assert all(counts["fail"] == 0 for counts in properties.values())
    for name, count in refused.items():
        assert properties[name]["inconclusive"] == count, name


# bundled specs where rounding leaves a step's fixed eigenvalue just below
# 1, so at this --tol-eig the ranks rise somewhere along the chain
FINE_TOL_EIG_RANKS_RISE = {
    "0": (
        "conjugated_mixed.json",
        "gap_dim16.json",
        "gap_dim64.json",
        "gap_engineered.json",
        "schur_dim16.json",
        "schur_random.json",
    ),
    "1e-15": (
        "gap_dim16.json",
        "gap_dim64.json",
        "schur_dim16.json",
        "schur_random.json",
    ),
}


@pytest.mark.parametrize(
    "spec, tol_eig",
    [
        (spec, tol_eig)
        for tol_eig, specs in FINE_TOL_EIG_RANKS_RISE.items()
        for spec in specs
    ],
)
def test_simulate_fine_tol_eig_rank_rise_is_inconclusive(
    tmp_path, capsys, spec, tol_eig
):
    # the default tol_eig counts those eigenvalues as 1, so the rank
    # verdict is null and the run inconclusive, where simulate exited 1
    argv = ["simulate", "--spec", str(REPO_SPECS / spec), "--tol-eig",
            tol_eig, "--out", str(tmp_path)]
    capsys.readouterr()
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verdicts"]["ranks_nonincreasing"] is None
    assert summary["status"] == "inconclusive"


@pytest.mark.parametrize("tol_eig", ["0", "1e-15", "1e-12", None])
def test_gap_fine_tol_eig_failure_with_a_band_is_inconclusive(
    tmp_path, capsys, tol_eig
):
    # the specs whose ranks rise at a fine --tol-eig run out of grid on
    # an eigenvalue that only the default counts as 1: exit 2 with one
    # stderr line, where gap exited 3; near_one fails on its peels alone
    rise = FINE_TOL_EIG_RANKS_RISE.get(tol_eig, ())
    extra = [] if tol_eig is None else ["--tol-eig", tol_eig]
    for path in sorted(REPO_SPECS.glob("*.json")):
        out = tmp_path / path.stem
        argv = ["gap", "--spec", str(path), "--out", str(out), *extra]
        capsys.readouterr()
        code = run_cli(argv)
        err = capsys.readouterr().err
        if path.name in rise:
            assert code == 2, path.name
            assert len(err.splitlines()) == 1
            assert err.startswith("gap search inconclusive: eigenvalue ")
            failure = json.loads((out / "failure.json").read_text())
            assert f"eigenvalue {failure['band']} " in err
        else:
            want = 3 if path.stem == "near_one" else 0
            assert (code, err) == (want, ""), path.name
            if code == 3:
                failure = json.loads((out / "failure.json").read_text())
                assert "band" not in failure


def test_verify_maps_an_untrusted_limit_to_inconclusive():
    # at horizon 8 the Schur chain's empirical limit is not trusted, so
    # both convergence verdicts are inconclusive (None), not failed; the
    # order and the a/b interleaving hold at any horizon
    chain = random_schur_chain(4, 1, 8, fixed_rank=1)
    assert not limit_operator(chain).trustworthy
    args = argparse.Namespace(tol_eig=DEFAULT.eig, tol_psd=None)
    assert cli._chain_verdicts(chain, args) == (True, True, None, None)


def test_verify_usage_errors(tmp_path, capsys):
    assert run_cli(["verify", "--seeds", "0"]) == 64
    assert run_cli(["verify", "--dims", "2,x"]) == 64
    assert run_cli(["verify", "--dims", "1,2"]) == 64
    argv = ["verify", "--seeds", "1", "--dims", "2", "--out", str(tmp_path)]
    assert_rejects_bad_tolerances(argv, capsys)
    # the corpus is seeded by --seeds alone: the command refuses --seed
    err = assert_one_line_usage_error(argv + ["--seed", "5"], capsys)
    assert "unrecognized arguments: --seed 5" in err
    assert not (tmp_path / "verdicts.json").exists()


# ---------------------------------------------------------------------------
# --out


OUT_COMMANDS = {
    "simulate": ["simulate", "--spec", str(REPO_SPECS / "telescoping.json")],
    "gap": ["gap", "--spec", str(REPO_SPECS / "gap_engineered.json")],
    "nonexample": ["nonexample", "--nmax", "5"],
    "verify": ["verify", "--seeds", "1", "--dims", "2"],
}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_out_that_is_no_directory_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, command
):
    def ran(args, parser):
        raise AssertionError(f"{command} ran")

    monkeypatch.setattr(cli, f"cmd_{command}", ran)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    for out in (taken, taken / "sub", taken / "sub" / "deeper"):
        argv = OUT_COMMANDS[command] + ["--out", str(out)]
        err = assert_one_line_usage_error(argv, capsys)
        assert "not a directory" in err
    assert taken.read_text() == "kept"
    assert sorted(tmp_path.iterdir()) == [taken]


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_output_that_cannot_be_written_is_one_usage_line(
    tmp_path, capsys, monkeypatch, command
):
    def full(obj, path):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(cli, "_json_dump", full)
    argv = OUT_COMMANDS[command] + ["--out", str(tmp_path / "out")]
    err = assert_one_line_usage_error(argv, capsys)
    assert "cannot write output" in err
    assert "No space left on device" in err


# ---------------------------------------------------------------------------
# python -m contraction_lab


def test_module_run_exits_1_on_invariant_violation(
    tmp_path, monkeypatch, capsys
):
    def broken(args, parser):
        raise InvariantError("product norm exceeded 1")

    monkeypatch.setattr(cli, "cmd_simulate", broken)
    spec = write_spec(tmp_path, TELESCOPING)
    monkeypatch.setattr(
        sys, "argv", ["contraction-lab", "simulate", "--spec", spec]
    )
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("contraction_lab", run_name="__main__")
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err == "invariant violated: product norm exceeded 1\n"


# ---------------------------------------------------------------------------
# seeding


def test_seed_injection_from_flag_and_env(tmp_path, monkeypatch):
    doc = dict(GAP_ENGINEERED)
    del doc["seed"]
    spec = write_spec(tmp_path, doc)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    # seeded kind with no seed anywhere: spec validation must refuse
    assert run_cli(["gap", "--spec", spec, "--out", str(tmp_path / "a")]) == 64
    # --seed fills the hole
    assert (
        run_cli(
            ["gap", "--spec", spec, "--seed", "5", "--out", str(tmp_path / "b")]
        )
        == 0
    )
    # so does the environment variable
    monkeypatch.setenv(SEED_ENV_VAR, "5")
    assert run_cli(["gap", "--spec", spec, "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "b" / "certificate.json").read_bytes() == (
        tmp_path / "c" / "certificate.json"
    ).read_bytes()
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
    assert run_cli(["gap", "--spec", spec, "--out", str(tmp_path / "d")]) == 64


def test_null_seed_is_injected_like_a_missing_one(tmp_path, monkeypatch):
    # the spec reads "seed": null as no seed, so --seed and the
    # environment fill it as they fill an absent key
    doc = {"kind": "schur_decrement", "dim": 4, "horizon": 20}
    keyless = write_spec(tmp_path, doc, "keyless.json")
    null = write_spec(tmp_path, dict(doc, seed=None), "null.json")
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    runs = {}
    for source in ("flag", "env"):
        extra = ["--seed", "5"] if source == "flag" else []
        if source == "env":
            monkeypatch.setenv(SEED_ENV_VAR, "5")
        for name, spec in (("keyless", keyless), ("null", null)):
            out = tmp_path / f"{source}-{name}"
            argv = ["simulate", "--spec", spec, "--out", str(out), *extra]
            runs[source, name] = (
                run_cli(argv),
                (out / "trace.csv").read_bytes(),
                (out / "opnorm.csv").read_bytes(),
                (out / "summary.json").read_bytes(),
            )
        assert runs[source, "null"] == runs[source, "keyless"]
    assert runs["flag", "null"] == runs["env", "null"]


def test_spec_seed_wins_over_flag(tmp_path):
    spec = write_spec(tmp_path, GAP_ENGINEERED)  # seed 5 inside the spec
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli(["gap", "--spec", spec, "--out", str(out1)]) == 0
    assert (
        run_cli(["gap", "--spec", spec, "--seed", "99", "--out", str(out2)])
        == 0
    )
    assert (out1 / "certificate.json").read_bytes() == (
        out2 / "certificate.json"
    ).read_bytes()
    assert (out1 / "rate_table.csv").read_bytes() == (
        out2 / "rate_table.csv"
    ).read_bytes()


# ---------------------------------------------------------------------------
# spec edge: malformed values exit 64 with one line and write nothing

UNSEEDED_SCHUR = {"kind": "schur_decrement", "dim": 4, "horizon": 10}
SCHUR = dict(UNSEEDED_SCHUR, seed=1)


def one_curve(*curve):
    return {
        "kind": "diagonal", "dim": 1, "horizon": 10, "curves": [list(curve)]
    }


@pytest.mark.parametrize(
    "command, doc, extra, env_seed, message",
    [
        ("simulate", dict(SCHUR, dim=True), [], None,
         "dim must be a positive integer, got True"),
        ("simulate", dict(SCHUR, horizon=True), [], None,
         "horizon must be a positive integer, got True"),
        ("gap", dict(SCHUR, fixed_rank=True), [], None,
         "fixed_rank must be an integer in [0, dim], got True"),
        ("simulate", dict(SCHUR, seed=True), [], None,
         "seed must be a nonnegative integer, got True"),
        ("simulate", dict(SCHUR, seed=-1), [], None,
         "seed must be a nonnegative integer, got -1"),
        ("gap", UNSEEDED_SCHUR, ["--seed", "-5"], None,
         "seed must be a nonnegative integer, got -5"),
        ("simulate", UNSEEDED_SCHUR, [], "-2",
         "seed must be a nonnegative integer, got -2"),
        ("simulate", one_curve("affine_harmonic", math.nan, 0.5), [], None,
         "curve 0: nan is not a finite number"),
        ("simulate", one_curve("const", True), [], None,
         "curve 0: True is not a finite number"),
        ("simulate", one_curve("peel", 2.7, 0.5, 0.9), [], None,
         "curve 0: peel stage must be a whole number, got 2.7"),
        ("simulate", one_curve(["const"], 0.5), [], None,
         "curve 0: unknown tag ['const']"),
        ("simulate", dict(one_curve("const", 0.5), horizon=2**40), [], None,
         f"16 * (dim + 5) * (dim + horizon) = {96 * (2**40 + 1)} exceeds the "
         f"ceiling of {CACHE_CEILING} entries a run holds"),
        ("gap", dict(SCHUR, dim=2**20), [], None,
         f"dim * dim * horizon = {2**40 * 10} exceeds the ceiling"),
        # free start eigenvalues are drawn from [0.1, top)
        ("simulate", dict(SCHUR, fixed_rank=1, top=0.05), [], None,
         "top must lie in [0.1, 1), got 0.05"),
        ("gap", dict(SCHUR, fixed_rank=4, top=0.05), [], None,
         "top must lie in [0.1, 1), got 0.05"),
    ],
    ids=[
        "dim-true", "horizon-true", "fixed_rank-true", "seed-true",
        "seed-negative", "seed-flag-negative", "seed-env-negative",
        "curve-nan", "curve-bool", "peel-fractional-stage",
        "curve-unhashable-tag", "horizon-over-ceiling", "dim-over-ceiling",
        "top-below-least-draw", "top-below-least-draw-all-fixed",
    ],
)
def test_spec_edge_usage_errors(
    tmp_path, monkeypatch, capsys, command, doc, extra, env_seed, message
):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    if env_seed is not None:
        monkeypatch.setenv(SEED_ENV_VAR, env_seed)
    spec = write_spec(tmp_path, doc)
    out = tmp_path / "out"
    argv = [command, "--spec", spec, "--out", str(out), *extra]
    err = assert_one_line_usage_error(argv, capsys)
    assert message in err
    assert not out.exists()


def test_whole_float_peel_stage_is_accepted(tmp_path):
    # ``Curve.to_spec`` writes stages as floats, so 5.0 must parse
    doc = dict(one_curve("peel", 5.0, 0.5, 0.9), horizon=40)
    curve = parse_chain_spec(doc).curves[0]
    assert curve.values(5)[3:].tolist() == [1.0, 0.5]
    assert parse_chain_spec(doc).to_json_dict() == doc
    spec = write_spec(tmp_path, doc)
    assert run_cli(["simulate", "--spec", spec, "--out", str(tmp_path)]) == 0


# ---------------------------------------------------------------------------
# determinism and bundled specs


def test_simulate_runs_are_byte_identical(tmp_path):
    spec = write_spec(tmp_path, TELESCOPING)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(["simulate", "--spec", spec, "--out", str(out1)]) == 0
    assert run_cli(["simulate", "--spec", spec, "--out", str(out2)]) == 0
    for name in ("trace.csv", "opnorm.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_evicting_store_leaves_every_artifact_unchanged(tmp_path, monkeypatch):
    # a curve-built chain holds the one block it read last, so at one
    # step per block every step read again is computed again; gap,
    # simulate and verify write the same bytes at either block size
    curve_specs = [
        path for path in sorted(REPO_SPECS.glob("*.json"))
        if json.loads(path.read_text())["kind"] != "schur_decrement"
    ]
    runs = [
        [command, "--spec", str(path)]
        for path in curve_specs for command in ("gap", "simulate")
    ]
    runs.append(["verify", "--seeds", "1"])

    def outputs(block_bytes):
        monkeypatch.setattr(chains, "_BLOCK_BYTES", block_bytes)
        results = []
        for k, argv in enumerate(runs):
            out = tmp_path / str(block_bytes) / str(k)
            code = run_cli(argv + ["--out", str(out)])
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            results.append((code, files))
        return results

    assert len(curve_specs) == 6
    assert outputs(chains._BLOCK_BYTES) == outputs(1)


def test_short_run_on_a_schur_chain_draws_only_its_decrements(
    tmp_path, eigensolve_counts
):
    # simulate --horizon 20 reads T_1 .. T_20: their 20 eigh (the limit
    # T_20 reuses the last), the frame's qr and one stacked qr for the
    # bases of decrements 1 .. 19, which one stacked cholesky certifies.
    # Drawing to the store block's end would factor 112 decrement bases.
    # One more stacked cholesky certifies the norms of S_1 .. S_20, and
    # one stacked SVD measures their opnorm_err; the Cauchy gap takes one
    spec = str(REPO_SPECS / "schur_random.json")
    argv = ["simulate", "--spec", spec, "--out"]
    assert run_cli(argv + [str(tmp_path / "short"), "--horizon", "20"]) == 2
    assert (eigensolve_counts["eigh"], eigensolve_counts.calls["eigh"]) == (
        20, 20
    )
    assert (eigensolve_counts["qr"], eigensolve_counts.calls["qr"]) == (
        20, 2
    )
    assert (
        eigensolve_counts["cholesky"], eigensolve_counts.calls["cholesky"]
    ) == (39, 2)
    assert (eigensolve_counts["svd"], eigensolve_counts.calls["svd"]) == (
        21, 2
    )
    # a full run still draws each block's decrements in one stacked qr:
    # the frame and 159 decrement bases in three calls; its two blocks
    # of products take one stacked cholesky and one stacked SVD each
    eigensolve_counts.reset()
    assert run_cli(argv + [str(tmp_path / "full")]) == 0
    assert (eigensolve_counts["eigh"], eigensolve_counts.calls["eigh"]) == (
        160, 160
    )
    assert (eigensolve_counts["qr"], eigensolve_counts.calls["qr"]) == (
        160, 3
    )
    assert (
        eigensolve_counts["cholesky"], eigensolve_counts.calls["cholesky"]
    ) == (319, 4)
    assert (eigensolve_counts["svd"], eigensolve_counts.calls["svd"]) == (
        161, 3
    )


def test_bundled_specs_build():
    paths = sorted(REPO_SPECS.glob("*.json"))
    assert paths, "bundled spec directory is empty"
    for path in paths:
        chain = build_chain(parse_chain_spec(json.loads(path.read_text())))
        assert chain.horizon >= 1


# ---------------------------------------------------------------------------
# the exit-code contract under generated commands

CONTRACT_EXITS = {0, 1, 2, 3, 64}

# edge values of the unit-interval parameters, then any value in it
unit_floats = st.one_of(
    st.sampled_from([0.0, 2.0**-1074, 0.5, 1.0 - 2.0**-53, 1.0]),
    st.floats(0.0, 1.0),
)

curve_entries = st.one_of(
    st.tuples(st.just("const"), unit_floats),
    st.tuples(st.just("harmonic_to"), unit_floats),
    unit_floats.flatmap(
        lambda a: st.tuples(
            st.just("affine_harmonic"), st.just(a), st.floats(0.0, 1.0 - a)
        )
    ),
    st.tuples(st.just("geometric"), unit_floats),
    st.tuples(
        st.just("peel"),
        st.integers(1, 45),
        unit_floats,
        st.floats(0.0, 1.0, exclude_min=True),
    ),
).map(list)

# one key set to a value its rule refuses, or that the kind does not take
BROKEN_KEYS = (
    ("dim", 0), ("dim", True), ("horizon", 0), ("seed", -1),
    ("seed", None), ("kind", "spiral"), ("curves", []),
    ("curves", [["const", 1.5]]), ("fixed_rank", 17), ("top", 1.0),
    ("top", 0.05), ("delta", 0.0), ("delta", 1.0),
)


@st.composite
def chain_specs(draw):
    """A spec of any kind at dims 1-16 and horizons 1-40; one in eight
    has a key broken."""
    kind = draw(st.sampled_from(sorted(chains._KINDS)))
    dim = draw(st.integers(1, 16))
    doc = {"kind": kind, "dim": dim, "horizon": draw(st.integers(1, 40))}
    if kind != "diagonal":
        doc["seed"] = draw(st.integers(0, 1000))
    if kind in ("diagonal", "conjugated_diagonal"):
        doc["curves"] = draw(
            st.lists(curve_entries, min_size=dim, max_size=dim)
        )
    if kind in ("schur_decrement", "gap_engineered"):
        doc["fixed_rank"] = draw(st.integers(0, dim))
    if kind == "schur_decrement":
        doc["top"] = draw(
            st.one_of(
                st.sampled_from([0.1, 0.9, 1.0 - 2.0**-53]),
                st.floats(0.1, 1.0, exclude_max=True),
            )
        )
    if kind == "gap_engineered":
        doc["delta"] = draw(
            st.one_of(
                st.sampled_from([2.0**-1074, 0.1, 0.5, 1.0 - 2.0**-53]),
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            )
        )
    if draw(st.integers(0, 7)) == 0:
        key, value = draw(st.sampled_from(BROKEN_KEYS))
        doc[key] = value
    return doc


# edge values of each option: valid ones, then ones it refuses
TOLERANCE_EDGES = (
    ("0", "1e-300", "1e-15", "1e-9", "0.01", "0.5", "1", "1e300"),
    ("-1e-9", "nan", "inf"),
)
OPTION_EDGES = {
    "--tol-eig": TOLERANCE_EDGES,
    "--tol-psd": TOLERANCE_EDGES,
    "--seed": (("0", "7"), ("-5", "x")),
    "--grid": (
        ("0.5,0.2,0.1", "0.1", "0.5,0.05", "1e-4", "0.9"),
        ("0.1,0.5", "0", "1", "nan", "0.2,,0.1", "x"),
    ),
    # gap takes an --epsilon of 0, nonexample refuses it
    "--epsilon": (
        ("0", "1e-300", "1e-8", "0.5", "1", "1.5", "1e300"),
        ("-1", "nan", "inf"),
    ),
    "--nmax": (
        tuple(map(str, range(2, 13))),
        ("1", "0", "-3", str(NMAX_CEILING + 1)),
    ),
}
COMMAND_OPTIONS = {
    "simulate": ("--horizon", "--tol-eig", "--tol-psd", "--seed"),
    "gap": (
        "--horizon", "--tol-eig", "--tol-psd", "--seed", "--grid",
        "--epsilon",
    ),
    "nonexample": ("--nmax", "--epsilon"),
}


@st.composite
def cli_commands(draw):
    """``(command, spec document or None, options)`` for ``simulate``,
    ``gap`` or ``nonexample``.  Each option is left out half the time
    and otherwise takes a valid edge value; one command in eight has
    one option set to a value it refuses."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    names = COMMAND_OPTIONS[command]
    doc = None if command == "nonexample" else draw(chain_specs())
    edges = dict(OPTION_EDGES)
    if doc is not None:
        # --horizon within the spec's, which a broken key holds as 0
        # or True
        last = max(1, int(doc["horizon"]))
        edges["--horizon"] = (
            ("1", str(draw(st.integers(1, last))), str(last)),
            ("0", "-1", str(last + 1), "1000000"),
        )
    values = {}
    for name in names:
        valid, _ = edges[name]
        value = draw(st.one_of(st.none(), st.sampled_from(valid)))
        if value is not None:
            values[name] = value
    if draw(st.integers(0, 7)) == 0:
        name = draw(st.sampled_from(names))
        values[name] = draw(st.sampled_from(edges[name][1]))
    options = [f"{name}={value}" for name, value in values.items()]
    return command, doc, options


def _contract_run(argv, out):
    """Exit code, stderr and artifacts of ``main(argv)`` run in process,
    and the warnings it raised."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as exc:
            main(argv)
    files = (
        {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        if out.exists() else None
    )
    code = 0 if exc.value.code is None else exc.value.code
    return code, stderr.getvalue(), files, [str(w.message) for w in caught]


@example(
    case=(
        "simulate",
        {"kind": "schur_decrement", "dim": 4, "horizon": 5,
         "fixed_rank": 1, "top": 0.05, "seed": 1},
        [],
    )
)
@example(case=("nonexample", None, ["--epsilon=1e300"]))
@given(case=cli_commands())
def test_exit_code_contract_under_generated_commands(case):
    command, doc, options = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ):
        os.environ.pop(SEED_ENV_VAR, None)
        argv = [command]
        if doc is not None:
            argv += ["--spec", write_spec(Path(tmp), doc)]
        out = Path(tmp) / "out"
        argv += options + ["--out", str(out)]
        first = _contract_run(argv, out)
        code, err, files, caught = first
        event(f"{command} exit {code}")
        assert code in CONTRACT_EXITS, (code, err)
        assert caught == []
        assert "Traceback" not in err
        if code == 64:
            assert len(err.splitlines()) == 1, err
            assert files is None
        if files is not None:
            shutil.rmtree(out)
        assert _contract_run(argv, out) == first
