#!/usr/bin/env python3
"""Benchmark runner for the contraction-lab CLI (stdlib only).

One closed-loop client: it starts one CLI child process at a time, waits
for it to exit and starts the next, for ``--seconds`` seconds.  Run from
the repository root::

    python3 perfbench/run.py --workload simulate-dense --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced runs.  Each
command run sits between two runs of ``reference.py``, a fixed program
that does not import the package, and ``wall_rel`` / ``cpu_rel`` are the
median ratios of the command's time to theirs: this host's throughput
drifts by up to 1.8x over minutes, and the ratio cancels that drift.
``--trace 1`` adds two runs under ``tracer.py`` and reports the
per-layer metrics of the first; the second must repeat every call count.
Every run's exit code, status and artifact digest are checked.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import layers
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ARGV = [sys.executable, "-c", "import contraction_lab.cli"]
REFERENCE_ARGV = [sys.executable, str(HERE / "reference.py")]
MIN_SAMPLES = 3
TRACED_RUNS = 2
CHILD_TIMEOUT_S = 150.0
MB = layers.MB

E2E_UNITS = {
    "wall_rel": "ratio",
    "cpu_rel": "ratio",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "setup_s": "s",
}

MACHINE_PROBE = """
import json, platform, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
    blas = "unknown"
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "blas": blas}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (no package, broken import)."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env.pop("CONTRACTION_LAB_SEED", None)
    return env


def launch(argv: list[str], env: dict, cwd: Path, log: Path) -> Sample:
    """Run one child to completion; its own rusage comes from wait4."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=sink, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(
            CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL)
        )
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # reaped by wait4 above; tell Popen so that it never waits again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / MB,  # ru_maxrss is in KiB
        exit_code=proc.returncode,
    )


def digest_dir(out: Path) -> tuple[str, int]:
    """sha256 over relative paths and contents, and total bytes."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), total


def machine_info(env: dict, run_dir: Path) -> dict:
    log = run_dir / "machine.log"
    sample = launch([sys.executable, "-c", MACHINE_PROBE], env, run_dir, log)
    if sample.exit_code != 0:
        raise BenchError(f"numpy probe failed:\n{log.read_text()}")
    info = json.loads(log.read_text().strip().splitlines()[-1])
    info.update(
        nproc=os.cpu_count(),
        blas_threads=BLAS_THREADS,
        platform=platform.platform(),
    )
    return info


class WorkloadRun:
    """Runs of one workload at one seed, with their correctness checks."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload.name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = child_env()
        self.out = self.dir / "out"
        self.cli_args = workload.cli_args(seed, self.dir, self.out)
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.artifact_bytes: list[int] = []
        self.setup_s: list[float] = []
        self.reference: list[Sample] = []
        # untimed warm-up, so that bytecode compilation is not counted
        self.setup_once()
        self.setup_s.clear()

    def setup_once(self) -> None:
        """Time a fresh interpreter importing the CLI module and exiting."""
        log = self.dir / "setup.log"
        sample = launch(SETUP_ARGV, self.env, self.dir, log)
        if sample.exit_code != 0:
            raise BenchError(
                f"cannot import contraction_lab from {SRC}:\n{log.read_text()}"
            )
        self.setup_s.append(sample.wall_s)

    def reference_once(self) -> None:
        """Time one run of the fixed reference program."""
        log = self.dir / "reference.log"
        sample = launch(REFERENCE_ARGV, self.env, self.dir, log)
        if sample.exit_code != 0:
            raise BenchError(f"reference program failed:\n{log.read_text()}")
        self.reference.append(sample)

    def run_once(self, traced: bool) -> Sample:
        shutil.rmtree(self.out, ignore_errors=True)
        if traced:
            spans = self.dir / "spans.bin"
            argv = [sys.executable, str(HERE / "tracer.py"), "--spans",
                    str(spans), "--", *self.cli_args]
        else:
            argv = [sys.executable, "-m", "contraction_lab", *self.cli_args]
        log = self.dir / ("traced.log" if traced else "run.log")
        sample = launch(argv, self.env, self.dir, log)
        self.attempted += 1
        problem = self.workload.check(sample.exit_code, self.out)
        digest, size = digest_dir(self.out) if self.out.exists() else ("", 0)
        if problem is None:
            if self.digest is None and not traced:
                self.digest = digest
            elif digest != self.digest:
                problem = (
                    f"artifact digest {digest[:12]} differs from "
                    f"{(self.digest or '')[:12]}"
                )
        if problem is not None:
            tail = log.read_text(errors="replace")[-2000:]
            self.failures.append(
                f"{'traced' if traced else 'untraced'} run {self.attempted}: "
                f"{problem}\n{tail}"
            )
        if not traced:
            self.artifact_bytes.append(size)
        return sample

    def untraced(self, seconds: float, min_samples: int) -> list[Sample]:
        """Command runs for ``seconds``.  A reference run comes before
        the first and after each, so that ``self.reference[i]`` and
        ``self.reference[i + 1]`` bracket command run ``i``; one set-up
        sample follows each, so that all three spread over the same
        stretch of time."""
        samples: list[Sample] = []
        self.reference_once()
        start = time.perf_counter()
        while (
            len(samples) < min_samples
            or time.perf_counter() - start < seconds
        ):
            samples.append(self.run_once(traced=False))
            self.reference_once()
            self.setup_once()
        return samples

    def relative(self, samples: list[Sample], field: str) -> float:
        """Median over command runs of the run's ``field`` divided by the
        mean of the two reference runs that bracket it."""
        ref = [getattr(r, field) for r in self.reference]
        return statistics.median(
            getattr(s, field) / ((ref[i] + ref[i + 1]) / 2)
            for i, s in enumerate(samples)
        )

    def traced(self) -> tuple[list[Sample], dict[str, float]]:
        """Traced runs; per-layer metrics of the first, call counts of
        every later one checked against it."""
        samples: list[Sample] = []
        metrics: dict[str, float] = {}
        first_counts = None
        for _ in range(TRACED_RUNS):
            failed_before = len(self.failures)
            samples.append(self.run_once(traced=True))
            if len(self.failures) > failed_before:
                continue
            trace = layers.load_trace(self.dir / "spans.bin")
            counts = trace.call_counts()
            counts["chains.operator_at.distinct"] = trace.distinct_steps
            if first_counts is None:
                first_counts = counts
                metrics = layers.layer_metrics(
                    trace, self.workload.command, self.out
                )
            elif counts != first_counts:
                changed = sorted(
                    k for k in counts.keys() | first_counts.keys()
                    if counts.get(k) != first_counts.get(k)
                )
                self.failures.append(
                    f"traced run {self.attempted}: call counts differ from "
                    f"the first traced run: {', '.join(changed)}"
                )
        return samples, metrics


def bench(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and return its report."""
    run = WorkloadRun(workload, seed)
    machine = machine_info(run.env, run.dir)
    if trace:
        samples = run.untraced(seconds / 2, min_samples=2)
        traced_samples, metrics = run.traced()
        metrics["trace.overhead_s"] = statistics.median(
            s.wall_s for s in traced_samples
        ) - statistics.median(s.wall_s for s in samples)
        units = layers.metric_units()
        counts = {name: 1 for name in units}  # from the first traced run
        counts["trace.overhead_s"] = len(traced_samples)
    else:
        samples = run.untraced(seconds, min_samples=MIN_SAMPLES)
        # times relative to the reference: see "Statistics and noise" in README.md
        metrics = {
            "wall_rel": run.relative(samples, "wall_s"),
            "cpu_rel": run.relative(samples, "cpu_s"),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
            "artifact_mb": statistics.median(run.artifact_bytes) / MB,
            "setup_s": statistics.median(run.setup_s),
        }
        units = E2E_UNITS
        counts = {name: len(samples) for name in units}
        counts["setup_s"] = len(run.setup_s)
    return {
        "workload": workload.name,
        "seed": seed,
        "inputs": "seeded" if workload.seeded else "fixed",
        "trace": trace,
        "machine": machine,
        "digest": run.digest,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "error_rate": len(run.failures) / run.attempted,
        "failures": run.failures,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit,
                   "samples": counts[name]}
            for name, unit in units.items()
        },
        "samples": [asdict(s) for s in samples],
        "reference_samples": [asdict(s) for s in run.reference],
        "setup_samples_s": run.setup_s,
    }


def print_report(report: dict) -> None:
    m = report["machine"]
    print(
        f"== {report['workload']}  seed {report['seed']} "
        f"({report['inputs']} inputs)  trace {int(report['trace'])}\n"
        f"   python {m['python']}  numpy {m['numpy']}  blas {m['blas']}  "
        f"blas_threads {m['blas_threads']}  nproc {m['nproc']}"
    )
    print(f"   {'metric':<46} {'value':>14} {'unit':<10} samples")
    rows = list(report["metrics"].items())
    # raw medians, printed but not bounded: they move with the host's drift
    for field in ("wall_s", "cpu_s"):
        rows.append((field, {
            "value": statistics.median(s[field] for s in report["samples"]),
            "unit": "s", "samples": len(report["samples"])}))
    rows.append(("error_rate", {
        "value": report["error_rate"], "unit": "ratio",
        "samples": report["attempted"]}))
    for name, entry in rows:
        print(
            f"   {name:<46} {entry['value']:>14.6g} {entry['unit']:<10} "
            f"{entry['samples']}"
        )
    for label, key in (("untraced", "samples"), ("reference", "reference_samples")):
        walls = [s["wall_s"] for s in report[key]]
        print(
            f"   {label} wall time over {len(walls)} runs: min {min(walls):.4f} s, "
            f"median {statistics.median(walls):.4f} s, max {max(walls):.4f} s"
        )
    print(f"   digest sha256:{report['digest']}")
    for failure in report["failures"]:
        print(f"   FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="contraction-lab CLI benchmark (closed loop, one client)"
    )
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "contraction_lab" / "cli.py").is_file():
        print(f"run.py: no contraction_lab package under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    try:
        for name in names:
            report = bench(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace)
            )
            print_report(report)
            reports.append(report)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    for report in reports:
        path = results / (
            f"{report['workload']}-seed{report['seed']}"
            f"-trace{int(report['trace'])}.json"
        )
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    prefix = len(reports) > 1
    metrics = {
        (f"{r['workload']}/{name}" if prefix else name): {
            "value": entry["value"], "unit": entry["unit"]}
        for r in reports
        for name, entry in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
