"""The exploratory scripts run end to end on small arguments."""

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
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout


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
        "simulate schur_dim16 tol1e-12": 2,
        "gap gap_dim16 horizon40 tol1e-15": 0,
        "gap near_one grid1e-4": 0,
        "simulate schur_random horizon20": 2,
        "gap schur_random horizon20": 0,
        "verify": 0,
        "verify faulty": 1,
        "verify tol0": 2,
        "verify tol1e-14": 2,
        "nonexample": 0,
        "nonexample ties": 0,
        "nonexample wide": 1,
    }
    assert len(lines) == len(expected_exits)
    for line, (label, code) in zip(lines, expected_exits.items()):
        assert re.fullmatch(
            rf"{label}: exit {code} sha256:[0-9a-f]{{64}}", line
        ), line
    # distinct outputs, so no command wrote into another's directory
    assert len({line.split("sha256:")[1] for line in lines}) == len(lines)
