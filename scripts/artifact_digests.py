#!/usr/bin/env python3
"""Exit code and artifact digest of a fixed set of CLI runs.

Runs each command below in its own output directory, with BLAS pinned
to one thread, and prints one line per command::

    <label>: exit <code> sha256:<digest of the output directory>

The digest is ``perfbench/run.py``'s: sha256 over the relative paths and
contents of every file.  Run it on two trees and compare the output to
check that a change keeps every artifact byte-identical::

    python3 scripts/artifact_digests.py > after.txt
    python3 scripts/artifact_digests.py --src ../parent/src > before.txt
    diff before.txt after.txt

Expected exit codes: 3 for ``gap near_one`` (the stress chain exhausts
the grid), 1 for ``verify faulty`` (the injected chain is not
decreasing), 0 for every other command.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "specs"

sys.path.insert(0, str(ROOT / "perfbench"))
from run import BLAS_THREAD_VARS, digest_dir  # noqa: E402

COMMANDS = (
    ("simulate telescoping", ["simulate", "--spec", "telescoping.json"]),
    ("simulate schur_random", ["simulate", "--spec", "schur_random.json"]),
    ("simulate near_one", ["simulate", "--spec", "near_one.json"]),
    ("simulate gap_engineered", ["simulate", "--spec", "gap_engineered.json"]),
    ("gap gap_engineered", ["gap", "--spec", "gap_engineered.json"]),
    ("gap near_one", ["gap", "--spec", "near_one.json"]),
    ("verify", ["verify", "--seeds", "1"]),
    ("verify faulty", ["verify", "--seeds", "1", "--include-faulty-fixture"]),
    ("nonexample", ["nonexample", "--nmax", "30"]),
)


def run_all(src: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env.pop("CONTRACTION_LAB_SEED", None)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, (label, argv) in enumerate(COMMANDS):
            out = Path(tmp) / str(k)
            argv = [
                str(SPECS / arg) if arg.endswith(".json") else arg
                for arg in argv
            ]
            command = [sys.executable, "-m", "contraction_lab", *argv]
            code = subprocess.run(
                command + ["--out", str(out)],
                env=env,
                cwd=tmp,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            ).returncode
            digest, _ = digest_dir(out)
            lines.append(f"{label}: exit {code} sha256:{digest}")
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--src",
        type=Path,
        default=ROOT / "src",
        help="directory holding the contraction_lab package (default: src)",
    )
    args = ap.parse_args()
    for line in run_all(args.src.resolve()):
        print(line)


if __name__ == "__main__":
    main()
