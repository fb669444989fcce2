"""Self-tests of the benchmark: the tracer, the span arithmetic and the
predictions the per-layer metrics rest on.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The workload tests run every workload traced, so they take about half
a minute.
"""

import array
import inspect
import json
import sys

import numpy as np
import pytest

import layers
import run
from tracer import LAYER_MODULES, SPAN_ARRAYS, Tracer
from workloads import EXPECTED_EXIT, WORKLOADS

import contraction_lab
from contraction_lab import chains, cli, gaps, nonexample, products
from contraction_lab.chains import ContractionChain, diagonal_chain, harmonic_to


def _package_modules():
    return [contraction_lab] + [
        mod for key, mod in sys.modules.items()
        if key.startswith("contraction_lab.") and mod is not None
    ]


def test_tracer_rebinds_every_alias_and_restores_them():
    originals = {
        (mod.__name__, attr): obj
        for mod in _package_modules()
        for attr, obj in vars(mod).items()
    }
    with Tracer():
        assert cli.iterate_products is products.iterate_products
        assert gaps.fixed_point_projection.__wrapped__ is originals[
            ("contraction_lab.operators", "fixed_point_projection")]
        assert nonexample.orbit_epsilon_net is products.orbit_epsilon_net
        assert contraction_lab.build_chain is chains.build_chain
        assert hasattr(ContractionChain.operator_at, "__wrapped__")
        for mod in _package_modules():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__.rsplit(".", 1)[-1] in LAYER_MODULES
                ):
                    assert hasattr(obj, "__wrapped__"), f"{mod.__name__}.{attr}"
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            assert obj is originals[(mod.__name__, attr)], f"{mod.__name__}.{attr}"
    assert not hasattr(ContractionChain.operator_at, "__wrapped__")


def test_in_process_trace_counts_steps_and_spectral_norms(tmp_path):
    chain = diagonal_chain([harmonic_to(0.5), harmonic_to(0.25)], 2, 30)
    with Tracer() as tracer:
        for _ in range(2):
            for n in range(1, 31):
                chain.operator_at(n)
        np.linalg.norm(np.eye(3), 2)
        np.linalg.norm(np.ones(3))
        np.linalg.svd(np.eye(3))
    tracer.dump(tmp_path / "spans.bin")
    metrics = layers.layer_metrics(
        layers.load_trace(tmp_path / "spans.bin"), "simulate", tmp_path
    )
    assert metrics["chains.operator_at.calls"] == 60
    assert metrics["chains.operator_at.distinct"] == 30
    assert metrics["chains.passes"] == 2.0
    assert metrics["chains.cache_mb"] == 30 * 2 * 2 * 8 / layers.MB
    # norm(A, 2) runs an SVD inside numpy that the svd wrapper never sees
    assert metrics["linalg.norm2.calls"] == 1
    assert metrics["linalg.norm.calls"] == 1
    assert metrics["linalg.svd.calls"] == 1


def _write_spans(path, spans, names):
    """spans: (name index, parent, outer, start, end) tuples."""
    header = {"names": names, "count": len(spans), "distinct_steps": 0,
              "cache_bytes": 0}
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n")
        for col, (_, code) in enumerate(SPAN_ARRAYS):
            array.array(code, [s[col] for s in spans]).tofile(handle)


def test_self_time_and_recursive_busy_time(tmp_path):
    # A[0,10] -> B[1,4] -> A[2,3] (recursive); A -> B[5,6]
    spans = [
        (0, -1, 1, 0.0, 10.0),
        (1, 0, 1, 1.0, 4.0),
        (0, 1, 0, 2.0, 3.0),
        (1, 0, 1, 5.0, 6.0),
    ]
    _write_spans(tmp_path / "s.bin", spans, ["A", "B"])
    trace = layers.load_trace(tmp_path / "s.bin")
    a, b = trace.get("A"), trace.get("B")
    assert (a.calls, a.s, a.self_s) == (2, 10.0, 7.0)
    assert (b.calls, b.s, b.self_s) == (2, 4.0, 3.0)


def test_relative_divides_by_the_bracketing_reference_runs():
    def sample(t):
        return run.Sample(wall_s=t, cpu_s=t / 2, peak_rss_mb=0.0, exit_code=0)

    bench_run = run.WorkloadRun.__new__(run.WorkloadRun)
    bench_run.reference = [sample(1.0), sample(3.0), sample(1.0), sample(5.0)]
    samples = [sample(4.0), sample(6.0), sample(30.0)]
    # ratios 4 / 2, 6 / 2 and 30 / 3
    assert bench_run.relative(samples, "wall_s") == 3.0
    assert bench_run.relative(samples, "cpu_s") == 3.0


@pytest.fixture(scope="module")
def traced_runs():
    """Each workload at seed 3: one untraced run, then two traced runs
    whose call counts and artifacts must match."""
    results = {}
    for name, workload in WORKLOADS.items():
        bench_run = run.WorkloadRun(workload, 3)
        bench_run.untraced(0, min_samples=1)
        _, metrics = bench_run.traced()
        results[name] = (bench_run, metrics)
    return results


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_runs_repeat_counts_and_artifact_bytes(traced_runs, name):
    bench_run, metrics = traced_runs[name]
    assert bench_run.failures == []
    assert bench_run.attempted == 1 + run.TRACED_RUNS
    assert set(metrics) | {"trace.overhead_s"} == set(layers.metric_units())


def test_bypass_predictions_hold(traced_runs):
    for name in ("gap-certify", "orbit-net"):
        assert traced_runs[name][1]["products.iterate_products.calls"] == 0
    orbit = traced_runs["orbit-net"][1]
    assert orbit["linalg.eigh.calls"] == 0
    assert orbit["linalg.eigvalsh.calls"] == 0
    assert orbit["linalg.eigensolves_per_step"] == 0
    assert orbit["chains.operator_at.calls"] == 0
    assert orbit["products.orbit_epsilon_net.norm_calls"] > 0
    assert traced_runs["gap-certify"][1]["gaps.has_gap_at.calls"] > 0


def test_second_seed_keeps_expected_exit_codes(traced_runs):
    for name, workload in WORKLOADS.items():
        if not workload.seeded:
            continue
        bench_run = run.WorkloadRun(workload, 11)
        (sample,) = bench_run.untraced(0, min_samples=1)
        assert sample.exit_code == EXPECTED_EXIT
        assert bench_run.failures == []
        assert bench_run.digest != traced_runs[name][0].digest
