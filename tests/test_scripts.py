"""The exploratory scripts run end to end on small arguments."""

import os
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
