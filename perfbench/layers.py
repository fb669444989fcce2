"""Per-layer metrics from the span file ``tracer.py`` writes.

``.calls`` is a span count, ``.s`` is inclusive busy time (recursive
calls counted once) and ``.self_s`` is each span's duration minus the
time its direct child spans cover, summed over the spans of that name.
"""

from __future__ import annotations

import array
import json
from dataclasses import dataclass
from pathlib import Path

from tracer import SPAN_ARRAYS

MB = 1e6

# (span name, fields reported for it); units follow from the field.
SPAN_FIELDS = (
    ("linalg.eigh", ("calls", "s")),
    ("linalg.eigvalsh", ("calls", "s")),
    ("linalg.norm2", ("calls", "s")),
    ("linalg.svd", ("calls", "s")),
    ("linalg.norm", ("calls", "s")),
    ("chains.operator_at", ("calls", "self_s")),
    ("chains.build_chain", ("s",)),
    ("operators.Operator", ("calls",)),
    ("operators.fixed_point_projection", ("calls", "s")),
    ("operators.is_positive_contraction", ("calls", "s")),
    ("operators.loewner_leq", ("calls", "s")),
    ("operators.check_fixed_vector_equivalence", ("calls", "s")),
    ("operators.check_projection_monotone", ("calls", "s")),
    ("products.iterate_products", ("calls", "s", "self_s")),
    ("products.check_projection_convergence", ("s",)),
    ("products.limit_operator", ("calls",)),
    ("products.consecutive_difference_report", ("s",)),
    ("products.write_trace_csv", ("s",)),
    ("products.orbit_epsilon_net", ("s",)),
    ("gaps.certificate_search", ("s", "self_s")),
    ("gaps.has_gap_at", ("calls",)),
    ("gaps.rate_bound_check", ("s",)),
    ("gaps.rank_strict_descent_check", ("calls", "s")),
    ("nonexample.build_nonexample", ("s",)),
    ("nonexample.verify_step_distances", ("s",)),
    ("nonexample.verify_vanishing_conditions", ("s",)),
    ("nonexample.verify_not_totally_bounded", ("s",)),
    ("nonexample.givens_factorization", ("s",)),
    ("nonexample.sequence_to_json", ("s",)),
    ("nonexample.givens_to_json", ("s",)),
    ("nonexample.write_net_csv", ("s",)),
    ("corpus.corpus_chains", ("s",)),
    ("corpus.equivalence_corpus", ("s",)),
    ("corpus.monotone_pair_corpus", ("s",)),
    ("corpus.descent_triple_corpus", ("s",)),
    ("io.json_dumps", ("calls", "s")),
)
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

# Metrics derived from several spans, the run's output or the untraced
# runs, in report order.
DERIVED_UNITS = {
    "linalg.eigensolves_per_step": "count/step",
    "chains.operator_at.distinct": "count",
    "chains.passes": "ratio",
    "chains.cache_mb": "MB",
    "products.orbit_epsilon_net.norm_calls": "count",
    "cli.cmd.s": "s",
    "cli.cmd.self_s": "s",
    "io.trace_csv.mb": "MB",
    "io.givens_json.mb": "MB",
    "io.sequence_json.mb": "MB",
    "trace.overhead_s": "s",
}
ARTIFACT_FILES = {
    "io.trace_csv.mb": "trace.csv",
    "io.givens_json.mb": "givens.json",
    "io.sequence_json.mb": "sequence.json",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {
        f"{span}.{field}": FIELD_UNITS[field]
        for span, fields in SPAN_FIELDS
        for field in fields
    }
    units.update(DERIVED_UNITS)
    return units


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


@dataclass
class Trace:
    stats: dict[str, SpanStats]
    distinct_steps: int
    cache_bytes: int
    net_norm_calls: int

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def call_counts(self) -> dict[str, int]:
        return {name: st.calls for name, st in sorted(self.stats.items())}


def load_trace(path) -> Trace:
    """Read a span file and aggregate it per span name."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["count"]
        cols = {}
        for key, code in SPAN_ARRAYS:
            cols[key] = array.array(code)
            cols[key].fromfile(handle, count)
    names = header["names"]
    name, parent, outer = cols["name"], cols["parent"], cols["outer"]
    start, end = cols["start"], cols["end"]

    duration = [e - s for s, e in zip(start, end)]
    child_time = [0.0] * count
    for i in range(count):
        if parent[i] >= 0:
            child_time[parent[i]] += duration[i]

    ids = {n: i for i, n in enumerate(names)}
    net_id = ids.get("products.orbit_epsilon_net", -1)
    norm_id = ids.get("linalg.norm", -1)
    in_net = bytearray(count)
    net_norm_calls = 0
    stats = [SpanStats() for _ in names]
    for i in range(count):
        st = stats[name[i]]
        st.calls += 1
        st.self_s += duration[i] - child_time[i]
        if outer[i]:
            st.s += duration[i]
        p = parent[i]
        if p >= 0 and (in_net[p] or name[p] == net_id):
            in_net[i] = 1
            net_norm_calls += name[i] == norm_id
    return Trace(
        stats={n: st for n, st in zip(names, stats) if st.calls},
        distinct_steps=header["distinct_steps"],
        cache_bytes=header["cache_bytes"],
        net_norm_calls=net_norm_calls,
    )


def layer_metrics(trace: Trace, command: str, out_dir: Path) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed as in
    :func:`metric_units`; ``trace.overhead_s`` is left to the caller,
    which also has the untraced runs."""
    values: dict[str, float] = {}
    for span, fields in SPAN_FIELDS:
        st = trace.get(span)
        for field in fields:
            values[f"{span}.{field}"] = getattr(st, field)

    steps = trace.distinct_steps
    solves = trace.get("linalg.eigh").calls + trace.get("linalg.eigvalsh").calls
    cmd = trace.get(f"cli.cmd_{command}")
    values.update(
        {
            "linalg.eigensolves_per_step": solves / steps if steps else 0.0,
            "chains.operator_at.distinct": steps,
            "chains.passes": (
                trace.get("chains.operator_at").calls / steps if steps else 0.0
            ),
            "chains.cache_mb": trace.cache_bytes / MB,
            "products.orbit_epsilon_net.norm_calls": trace.net_norm_calls,
            "cli.cmd.s": cmd.s,
            "cli.cmd.self_s": cmd.self_s,
        }
    )
    for metric, filename in ARTIFACT_FILES.items():
        path = out_dir / filename
        values[metric] = path.stat().st_size / MB if path.exists() else 0.0
    return values
