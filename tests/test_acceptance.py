"""Acceptance suite: one test per release criterion.

Each test prints exactly one ``criterion N (<name>): PASS|FAIL`` line so
a plain ``pytest -s`` run doubles as a checklist.  Tolerances are pinned
here, not imported, so a config change cannot silently relax a gate.
"""

import json
import math

import numpy as np
import pytest

from contraction_lab import (
    GapCertificate,
    build_nonexample,
    certificate_search,
    const,
    consecutive_difference_report,
    diagonal_chain,
    gap_engineered_chain,
    givens_factorization,
    harmonic_to,
    iterate_products,
    peel,
    rate_bound_check,
    verify_not_totally_bounded,
    verify_step_distances,
)
from contraction_lab.chains import stream_rng
from contraction_lab.cli import main
from contraction_lab.corpus import (
    corpus_chains,
    equivalence_corpus,
    monotone_pair_corpus,
)
from contraction_lab.operators import (
    check_fixed_vector_equivalence,
    check_projection_monotone,
)
from orbit_oracle import step_rotation


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_traces():
    chains = corpus_chains(dims=(2, 4, 8, 16), seed_count=5)
    return [(chain, iterate_products(chain)) for chain in chains]


def test_criterion_01_telescoping_closed_form():
    chain = diagonal_chain([const(1.0), harmonic_to(0.5)], horizon=50)
    trace = iterate_products(chain, probes=np.eye(2), probe_ids=["e1", "e2"])
    worst = 0.0
    for n in range(1, 51):
        expected = (n + 1) / 2.0**n
        rel = abs(trace.sot_err[n - 1, 1] - expected) / expected
        worst = max(worst, rel)
    spot_check = trace.sot_err[3, 1] == pytest.approx(0.3125, rel=1e-10)
    report(
        1,
        "telescoping closed form",
        worst <= 1e-10 and spot_check,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_02_operator_norm_convergence(corpus_traces):
    gate_ok = all(
        trace.limit.provenance == "analytic" or trace.limit.cauchy_gap < 1e-8
        for _, trace in corpus_traces
    )
    worst = max(float(trace.opnorm_err[-1]) for _, trace in corpus_traces)
    report(
        2,
        "operator norm convergence across corpus",
        gate_ok and worst < 1e-6,
        f"{len(corpus_traces)} chains, worst {worst:.2e}",
    )


def test_criterion_03_adjoint_convergence(corpus_traces):
    worst = max(float(trace.adj_err[-1].max()) for _, trace in corpus_traces)
    report(
        3,
        "adjoint convergence, unconditional",
        worst < 1e-6,
        f"worst {worst:.2e}",
    )


def test_criterion_04_scalar_interleaving(corpus_traces):
    ok = True
    worst_slack = 0.0
    worst_identity = 0.0
    for chain, trace in corpus_traces:
        rep = consecutive_difference_report(trace)
        assert (rep.tol_chain, rep.tol_identity) == (1e-12 * chain.dim, 1e-10)
        ok = ok and rep.all_ok
        worst_slack = max(
            worst_slack,
            rep.worst_a_negative,
            rep.worst_a_above_b,
            rep.worst_b_next_above_a,
        )
        worst_identity = max(worst_identity, rep.worst_identity_error)
    report(
        4,
        "a/b interleaving and step identity",
        ok,
        f"worst slack {worst_slack:.2e}, worst identity {worst_identity:.2e}",
    )


def test_criterion_05_fixed_vector_equivalence():
    disagreements = 0
    ambiguous = 0
    for op, xi in equivalence_corpus(1000):
        rep = check_fixed_vector_equivalence(op, xi)
        if rep.ambiguous:
            ambiguous += 1
        elif not rep.agree:
            disagreements += 1
    report(
        5,
        "fixed-vector equivalence on 1000 pairs",
        disagreements == 0,
        f"{disagreements} disagreements, {ambiguous} in ambiguity band",
    )


def test_criterion_06_projection_monotonicity():
    failures = sum(
        not check_projection_monotone(lower, upper)
        for upper, lower in monotone_pair_corpus(500)
    )
    report(
        6,
        "projection monotonicity on 500 pairs",
        failures == 0,
        f"{failures} failures",
    )


def test_criterion_07_certified_rate_bounds():
    ok = True
    details = []
    for k, delta in enumerate((0.05, 0.1, 0.2)):
        chain = gap_engineered_chain(
            8, delta, fixed_rank=2, seed=20 + k, horizon=210
        )
        cert = certificate_search(chain)
        assert isinstance(cert, GapCertificate) and cert.delta == delta
        probe = stream_rng(20 + k, 91).standard_normal(8)
        rep = rate_bound_check(chain, cert, probe, j_max=200)
        slope_cap = math.log(1.0 - delta) + 0.05
        holds = rep.worst_slack >= -1e-10
        steep = rep.fitted_slope is not None and rep.fitted_slope <= slope_cap
        ok = ok and holds and steep
        details.append(
            f"delta={delta}: slack {rep.worst_slack:.1e}, "
            f"slope {rep.fitted_slope:.3f} <= {slope_cap:.3f}"
        )
    report(7, "certified geometric rate bounds", ok, "; ".join(details))


def test_criterion_08_staged_rank_descent_search():
    scripted = [
        (
            diagonal_chain(
                [
                    const(1.0),
                    peel(40, 0.7, 0.9),
                    peel(80, 0.85, 0.9),
                    peel(120, 0.95, 0.9),
                ],
                horizon=160,
            ),
            [(1, 4, 0.5), (40, 3, 0.2), (80, 2, 0.1), (120, 1, 0.05)],
        ),
        (
            diagonal_chain(
                [
                    const(1.0),
                    const(1.0),
                    peel(30, 0.7, 0.9),
                    peel(70, 0.85, 0.9),
                    peel(110, 0.95, 0.9),
                ],
                horizon=150,
            ),
            [(1, 5, 0.5), (30, 4, 0.2), (70, 3, 0.1), (110, 2, 0.05)],
        ),
    ]
    ok = True
    details = []
    for chain, expected in scripted:
        result = certificate_search(chain)
        good = isinstance(result, GapCertificate)
        if good:
            steps = [(s.n, s.rank, s.delta_k) for s in result.rank_trajectory]
            ranks = [s.rank for s in result.rank_trajectory]
            good = (
                steps == expected
                and ranks == sorted(ranks, reverse=True)
                and len(set(ranks)) == len(ranks)
                and len(steps) <= chain.dim + 1
            )
            details.append(
                f"dim {chain.dim}: N={result.N}, delta={result.delta}"
            )
        else:
            details.append(f"dim {chain.dim}: no certificate")
        ok = ok and good
    report(8, "staged rank-descent certificate search", ok, "; ".join(details))


def test_criterion_09_nonexample_contracts():
    seq = build_nonexample(30)
    distances = verify_step_distances(seq)
    within_ok = (
        distances.within_row_ok and distances.max_within_deviation <= 1e-10
    )

    steps = givens_factorization(seq)
    carried = seq.vector(1).copy()
    recon_err = 0.0
    rank_ok = True
    eye = np.eye(seq.ambient_dim)
    for k in range(len(steps)):
        matrix = step_rotation(steps, k, seq.ambient_dim)
        carried = matrix @ carried
        recon_err = max(
            recon_err, float(np.linalg.norm(carried - seq.vector(k + 2)))
        )
        sv = np.linalg.svd(matrix - eye, compute_uv=False)
        rank_ok = rank_ok and int((sv > 1e-9).sum()) == 2
    givens_ok = recon_err <= 1e-9 and rank_ok

    table = verify_not_totally_bounded(seq, 0.5)
    sizes = [table.sizes[r - 1] for r in (5, 10, 20, 30)]
    net_ok = all(s >= r for s, r in zip(sizes, (5, 10, 20, 30))) and all(
        a < b for a, b in zip(sizes, sizes[1:])
    )
    report(
        9,
        "orbit distances, Givens factorization, net growth",
        within_ok and givens_ok and net_ok,
        f"recon {recon_err:.1e}, net sizes {sizes}",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    telescoping = spec_dir / "telescoping.json"
    telescoping.write_text(
        json.dumps(
            {
                "kind": "diagonal",
                "dim": 2,
                "horizon": 50,
                "curves": [["const", 1.0], ["harmonic_to", 0.5]],
            }
        )
    )
    engineered = spec_dir / "gap.json"
    engineered.write_text(
        json.dumps(
            {
                "kind": "gap_engineered",
                "dim": 5,
                "horizon": 120,
                "seed": 5,
                "delta": 0.1,
                "fixed_rank": 2,
            }
        )
    )
    commands = {
        "simulate": ["simulate", "--spec", str(telescoping)],
        "gap": ["gap", "--spec", str(engineered)],
        "nonexample": ["nonexample", "--nmax", "8"],
        "verify": ["verify", "--seeds", "1", "--dims", "2"],
    }

    def run(argv, out):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 0

    ok = True
    checked = 0
    for name, argv in commands.items():
        first, second = tmp_path / f"{name}_1", tmp_path / f"{name}_2"
        run(argv, first)
        run(argv, second)
        files = sorted(p.name for p in first.iterdir())
        assert files == sorted(p.name for p in second.iterdir())
        for fname in files:
            same = (first / fname).read_bytes() == (second / fname).read_bytes()
            ok = ok and same
            checked += 1
    report(
        10,
        "byte-identical artifacts per command",
        ok,
        f"{checked} files compared across 4 commands",
    )
