import csv
import json
from pathlib import Path

import numpy as np
import pytest

from contraction_lab import (
    ContractionChain,
    Operator,
    build_chain,
    cli,
    parse_chain_spec,
)
from contraction_lab.cli import NMAX_CEILING, main
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
    assert header == "n,probe_id,sot_err,adj_err,consec_diff,a_n,b_n,wot_err,opnorm_err"


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
    # h - 1 sampler bases plus one eigh of each T_n, shared by the
    # generator's square root, the step's fixed space and the empirical
    # limit; one eigvalsh for T_1 and one for each decrement
    assert eigensolve_counts == {"eigh": 2 * h - 1, "eigvalsh": h}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rank_trajectory"] == [2] * h


def test_simulate_usage_errors(tmp_path, capsys):
    spec = write_spec(tmp_path, TELESCOPING)
    assert run_cli(["simulate", "--spec", spec, "--horizon", "99"]) == 64
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
    # valid spec keys, but the generator cannot stage 7 peels in 50 steps
    spec = write_spec(
        tmp_path,
        {"kind": "near_one_accumulating", "dim": 8, "horizon": 50, "seed": 1},
    )
    assert run_cli(["simulate", "--spec", spec]) == 64
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "too small to stage 7 peels" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# gap


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
    assert rows[0] == ["j", "lhs", "rhs", "slack"]
    assert float(rows[1][1]) <= 1.0
    assert all(float(r[3]) >= -1e-10 for r in rows[1:])


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
    assert run_cli(["gap", "--spec", spec, "--grid", "abc"]) == 64
    assert run_cli(["gap", "--spec", spec, "--grid", "0.1,0.2"]) == 64
    argv = ["gap", "--spec", spec, "--out", str(tmp_path)]
    assert_rejects_bad_tolerances(argv, capsys)
    assert not (tmp_path / "certificate.json").exists()


# ---------------------------------------------------------------------------
# nonexample


def test_nonexample_smallest_run(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["nonexample", "--nmax", "2", "--out", str(out)])
    assert code == 0
    sequence = json.loads((out / "sequence.json").read_text())
    assert len(sequence) == 3
    givens = json.loads((out / "givens.json").read_text())
    assert len(givens) == 2
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
    assert dist_rows[0] == "m,row,kind,measured,expected,deviation"
    assert len(dist_rows) == 1 + (12 * 13 // 2 - 1)


def test_nonexample_usage_errors(tmp_path, capsys):
    assert run_cli(["nonexample", "--nmax", "1"]) == 64
    assert run_cli(["nonexample", "--epsilon", "0"]) == 64
    assert run_cli(["nonexample", "--epsilon", "-2"]) == 64
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


def test_verify_usage_errors(tmp_path, capsys):
    assert run_cli(["verify", "--seeds", "0"]) == 64
    assert run_cli(["verify", "--dims", "2,x"]) == 64
    assert run_cli(["verify", "--dims", "1,2"]) == 64
    argv = ["verify", "--seeds", "1", "--dims", "2", "--out", str(tmp_path)]
    assert_rejects_bad_tolerances(argv, capsys)
    assert not (tmp_path / "verdicts.json").exists()


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
# determinism and bundled specs


def test_simulate_runs_are_byte_identical(tmp_path):
    spec = write_spec(tmp_path, TELESCOPING)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(["simulate", "--spec", spec, "--out", str(out1)]) == 0
    assert run_cli(["simulate", "--spec", spec, "--out", str(out2)]) == 0
    for name in ("trace.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_bundled_specs_build():
    paths = sorted(REPO_SPECS.glob("*.json"))
    assert paths, "bundled spec directory is empty"
    for path in paths:
        chain = build_chain(parse_chain_spec(path.read_text()))
        assert chain.horizon >= 1
