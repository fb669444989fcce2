"""The exploratory scripts run end to end on small arguments."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["run_telescoping.py"], "status: pass"),
        (["run_gap_search.py", "--dim", "4"], "holds=True"),
        (["run_nonexample.py", "--nmax", "12"], "net growth"),
    ],
)
def test_script_exits_zero(argv, expected):
    result = run_script(argv)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout


def run_script(argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_telescoping_script_writes_what_simulate_writes(tmp_path):
    out = tmp_path / "out"
    result = run_script(
        ["run_telescoping.py", "--horizon", "8", "--out", str(out)]
    )
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in out.iterdir()) == ["opnorm.csv", "trace.csv"]
    trace = (out / "trace.csv").read_text().splitlines()
    norms = (out / "opnorm.csv").read_text().splitlines()
    assert trace[0] == "n,probe_id,sot_err,adj_err,consec_diff,a_n,b_n,wot_err"
    assert norms[0] == "n,opnorm_err"
    assert (len(trace), len(norms)) == (1 + 8 * 2, 1 + 8)


def test_artifact_digests_one_line_per_command():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifact_digests.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    expected_exits = {
        "simulate telescoping": 0,
        "simulate schur_random": 0,
        "simulate near_one": 0,
        "simulate gap_engineered": 0,
        "gap gap_engineered": 0,
        "gap near_one": 3,
        "simulate schur_dim16": 0,
        "gap gap_dim16": 0,
        "gap schur_random": 0,
        "simulate conjugated_mixed": 0,
        "simulate schur_random tol0": 64,
        "simulate schur top0.05": 64,
        "simulate schur_dim16 tol1e-13": 2,
        "gap gap_dim16 horizon40 tol1e-15": 0,
        "gap near_one grid1e-4": 0,
        "simulate schur_random horizon20": 2,
        "gap schur_random horizon20": 0,
        "gap gap_dim64": 0,
        "gap gap_engineered dim128": 0,
        "simulate schur dim128": 2,
        "gap gap_dim64 eig0": 2,
        "simulate schur_random eig0": 2,
        "verify": 0,
        "verify faulty": 1,
        "verify tol0": 2,
        "verify tol1e-14": 2,
        "verify eig1e-2": 2,
        "verify eig0": 2,
        "verify eig5e-1": 2,
        "nonexample": 0,
        "nonexample ties": 0,
        "nonexample wide": 1,
    }
    assert len(lines) == len(expected_exits)
    for line, (label, code) in zip(lines, expected_exits.items()):
        assert re.fullmatch(
            rf"{label}: exit {code} sha256:[0-9a-f]{{64}}", line
        ), line
    # a refused run writes nothing, so it digests an empty directory;
    # the others have distinct outputs, so no command wrote into
    # another's directory
    empty = hashlib.sha256().hexdigest()
    written = []
    for line, code in zip(lines, expected_exits.values()):
        digest = line.split("sha256:")[1]
        if code == 64:
            assert digest == empty, line
        else:
            written.append(digest)
    assert empty not in written
    assert len(set(written)) == len(written)
