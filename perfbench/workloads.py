"""The four benchmark workloads: CLI arguments, inputs and output checks.

Each workload is one ``contraction-lab`` command.  ``simulate-dense`` and
``gap-certify`` run on chain specs generated from the benchmark seed;
``verify-corpus`` and ``orbit-net`` have fixed inputs (the CLI gives
them no seed), so their outputs are the same for every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

EXPECTED_EXIT = 0  # every workload must pass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    args: tuple[str, ...] = ()
    spec: dict | None = None  # chain spec; the benchmark seed is added
    status_file: str | None = None  # JSON file whose "status" must pass
    expected_scope: str | None = None  # certificate.json "scope"

    @property
    def seeded(self) -> bool:
        return self.spec is not None

    def cli_args(self, seed: int, work_dir: Path, out_dir: Path) -> list[str]:
        """Arguments after ``contraction-lab``; writes the seeded spec
        into ``work_dir`` when the workload has one."""
        argv = [self.command]
        if self.spec is not None:
            spec_path = work_dir / "spec.json"
            spec_path.write_text(
                json.dumps(dict(self.spec, seed=seed), sort_keys=True) + "\n"
            )
            argv += ["--spec", str(spec_path)]
        return argv + list(self.args) + ["--out", str(out_dir)]

    def check(self, exit_code: int, out_dir: Path) -> str | None:
        """Why the run's result is wrong, or None when it is as expected."""
        if exit_code != EXPECTED_EXIT:
            return f"exit code {exit_code}, expected {EXPECTED_EXIT}"
        if self.status_file is not None:
            status = _read_json(out_dir / self.status_file).get("status")
            if status != "pass":
                return f"{self.status_file} status {status!r}, expected 'pass'"
        if self.expected_scope is not None:
            scope = _read_json(out_dir / "certificate.json").get("scope")
            if scope != self.expected_scope:
                return f"certificate scope {scope!r}, expected {self.expected_scope!r}"
        return None


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate-dense",
            command="simulate",
            why="few large dense matrices, so LAPACK eigensolves, spectral "
            "norms and the trace.csv writer dominate",
            spec={
                "kind": "schur_decrement",
                "dim": 128,
                "horizon": 80,
                "fixed_rank": 8,
                "top": 0.9,
            },
            status_file="summary.json",
        ),
        Workload(
            name="verify-corpus",
            command="verify",
            why="many tiny matrices across the whole corpus, so per-call "
            "Python and numpy overhead dominates",
            args=("--seeds", "2"),
            status_file="verdicts.json",
        ),
        Workload(
            name="gap-certify",
            command="gap",
            why="certificate scan over an 800-step dense chain; never runs "
            "the product engine, so product changes must not move it",
            spec={
                "kind": "gap_engineered",
                "dim": 128,
                "horizon": 800,
                "delta": 0.1,
                "fixed_rank": 8,
            },
            expected_scope="analytic",
        ),
        Workload(
            name="orbit-net",
            command="nonexample",
            why="greedy epsilon net, Givens steps and large JSON output; "
            "touches no chain, Operator or eigensolver",
            args=("--nmax", "60", "--epsilon", "0.5"),
            status_file="summary.json",
        ),
    )
}
