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
decreasing) and for ``nonexample wide`` (at epsilon 1.5 one member
covers the whole orbit, so the net cannot dominate the row count), 64
for ``simulate schur_random tol0`` (at ``--tol-psd 0`` the rounded top
eigenvalue of ``T_1``, 1 + 2^-52, fails the positivity check, and the
run stops there with no artifact, before any product), 64 for
``simulate schur top0.05`` (a Schur spec written inline, whose ``top``
lies below the 0.1 that its free eigenvalues are drawn from: the spec
check refuses it with no artifact, so its digest is that of an empty
directory, as is ``tol0``'s), 2 for
``simulate schur_dim16 tol1e-13`` (every step passes its positivity
check at ``--tol-psd 1e-13``, but the products' rounding reaches
``1 + 8.5e-13``, which only the default slack absorbs, so
``product_norm_bounded`` is null and the run writes its artifacts), 2
for ``verify tol0`` (at ``--tol-psd 0`` the corpus's conjugated chains
from dim 4 up have a step above 1 by rounding and count as inconclusive,
as do the operator-corpus items that fail a precondition and the
comparisons that fail by less than the default slack), 2 for ``verify
tol1e-14`` (every step of the conjugated chains of dims 8 and 16 passes
its positivity check at ``--tol-psd 1e-14``, but their products'
rounding reaches ``1 + 4.3e-14``, which the default slack accepts, so
those two chains count as inconclusive), 2 for ``verify eig1e-2`` (at
``--tol-eig 0.01`` one projection comparison fails only because an
eigenvalue in ``[0.99, 1 - 1e-9)`` counts as 1, so it is inconclusive),
2 for ``simulate schur dim128`` (below), 0 for every other command.  The
two ``dim16`` specs are the only ones above dim 10, where the default
``tol_psd = 1e-10 * dim`` exceeds ``tol_eig``, so the band
``(1 + tol_eig, 1 + tol_psd]`` that the fixed-space rule must cover is
not empty.  ``gap schur_random`` is the
only ``gap`` run on a Schur chain, whose generator takes ``T_n^{1/2}``
from the same one-slot ``decomposition_at`` handover that the search's
fixed-space rank and the rate table's ``n0`` scan read; it ends in an
empirical certificate.  ``simulate conjugated_mixed`` is the only run
whose artifacts depend on a ``geometric`` curve's values; its chain
carries one curve of every tag.  ``nonexample ties`` runs at epsilon
1.0, where chords of rows divisible by 3 lie exactly epsilon apart, and
``nonexample wide`` above ``sqrt(2)``, where the net measures every
member.  The three ``nonexample`` lines digest ``givens.csv`` as
``m,angle,v1,v2`` and ``step_distances.csv`` as ``m,row,kind,measured``:
the plane's window and ``u`` are ``sequence.csv``'s, and the expected
distance and deviation follow from ``row`` and ``measured``.  Each
``simulate`` line that writes artifacts digests ``trace.csv`` as
``n,probe_id,sot_err,adj_err,consec_diff,a_n,b_n,wot_err`` and
``opnorm.csv`` as ``n,opnorm_err``, one row per step, and each ``gap``
line that writes ``rate_table.csv`` digests it as ``j,lhs,rhs``: a
step's ``opnorm_err`` is the same on every probe row, and ``slack`` is
``rhs - lhs``.  ``gap
gap_dim16 horizon40 tol1e-15`` searches only to step 40, which passes
``--tol-psd 1e-15`` where step 46 does not: its certificate is
analytic, yet its rate table stops at step 40 (41 lines).  ``gap
near_one grid1e-4`` certifies ``delta`` 1e-4 only from step 360 on a
finer grid, so it pins a rate table whose ``n0`` scan starts late; its
chain gives the limit but guarantees no gap, and its table rides the
search's pass, reading steps 1 .. 360 again for ``eta'``.
``simulate schur_random horizon20`` exits 2: its empirical limit is
the run's last step ``T_20``, whose Cauchy gap ``||T_20 - T_10||``
(4.8e-4) is too large to trust, so the convergence verdicts are
inconclusive.  ``gap schur_random horizon20`` exits 0: its empirical
limit and rate table read only the 20 steps that the search checked.
``gap gap_dim64`` exits 0 on 800 steps of dim 64 (26 MB as float64),
of which its chain, as every curve-built one, holds one block at a time.
Its search carries the rate table's probe, as on every chain whose
generator gives the limit, so the table takes ``lhs`` from the search's
pass and reads only step 1 (``n0``) again.  ``gap gap_dim64 eig0``
exits 2: at ``--tol-eig 0`` the rounded fixed eigenvalue
0.9999999999999997 of ``T_1`` lies in every grid delta's window, so the
grid runs out at step 1, and a failure that read an eigenvalue which
only the default counts as 1 is inconclusive (``failure.json`` names it
as ``band``); it makes no gap test after ``T_1``.  ``gap gap_engineered
dim128`` and ``simulate schur dim128``, each on a spec written inline,
are the only lines above dim 64, where the certificates factor each
matrix bordered, at order 129.  The first closes three windows of up
to 8 steps (1 MiB of entries) on 24 steps and exits 0.  The second runs
10 steps of a Schur chain, whose decrements and products the
certificates prove, and exits 2 as ``simulate schur_random horizon20``
does: its empirical limit ``T_10`` has a Cauchy gap of 0.024, too large
to trust.  Each ``gap`` run
decides the steps after ``T_1`` in windows that Cholesky factorizations
and one small ``eigvalsh`` per window close with no gap test of their
own, except where no window closes: at every step of ``gap gap_dim16
horizon40 tol1e-15`` (a slack of 1e-15 leaves the windows no room, so
each step takes one ``eigvalsh``)
and in the 6 windows of 32 steps that hold the 7 violating steps of
``gap near_one`` and of ``gap near_one grid1e-4``, whose steps each
take a gap test up to the failure or the end of the window.  ``simulate
schur_random eig0``, ``verify eig0`` and ``verify eig5e-1`` exit 2: a
``--tol-eig`` finer (0) or coarser (0.5) than the default moves which
eigenvalues near 1 count as 1, and a verdict on a fixed space that fails
with such an eigenvalue in the solve it read is inconclusive (at 0
rounding leaves fixed eigenvalues just below 1, so the Schur chain's
ranks rise and 30 of 100 projection comparisons fail; at 0.5 the limits'
projections count eigenvalues down to 0.5, so 12 of 20 chains' adjoint
and operator-norm convergence fail).
"""

from __future__ import annotations

import argparse
import json
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
    ("simulate schur_dim16", ["simulate", "--spec", "schur_dim16.json"]),
    ("gap gap_dim16", ["gap", "--spec", "gap_dim16.json"]),
    ("gap schur_random", ["gap", "--spec", "schur_random.json"]),
    (
        "simulate conjugated_mixed",
        ["simulate", "--spec", "conjugated_mixed.json"],
    ),
    (
        "simulate schur_random tol0",
        ["simulate", "--spec", "schur_random.json", "--tol-psd", "0"],
    ),
    (
        "simulate schur top0.05",
        ["simulate", "--spec", {"kind": "schur_decrement", "dim": 4,
                                "horizon": 5, "fixed_rank": 1,
                                "top": 0.05, "seed": 1}],
    ),
    (
        "simulate schur_dim16 tol1e-13",
        ["simulate", "--spec", "schur_dim16.json", "--tol-psd", "1e-13"],
    ),
    (
        "gap gap_dim16 horizon40 tol1e-15",
        ["gap", "--spec", "gap_dim16.json", "--horizon", "40",
         "--tol-psd", "1e-15"],
    ),
    (
        "gap near_one grid1e-4",
        ["gap", "--spec", "near_one.json", "--grid",
         "0.5,0.2,0.1,0.05,0.02,0.01,0.005,0.001,0.0001"],
    ),
    (
        "simulate schur_random horizon20",
        ["simulate", "--spec", "schur_random.json", "--horizon", "20"],
    ),
    (
        "gap schur_random horizon20",
        ["gap", "--spec", "schur_random.json", "--horizon", "20"],
    ),
    ("gap gap_dim64", ["gap", "--spec", "gap_dim64.json"]),
    (
        "gap gap_engineered dim128",
        ["gap", "--spec", {"kind": "gap_engineered", "dim": 128,
                           "horizon": 24, "delta": 0.1, "fixed_rank": 8,
                           "seed": 5}],
    ),
    (
        "simulate schur dim128",
        ["simulate", "--spec", {"kind": "schur_decrement", "dim": 128,
                                "horizon": 10, "fixed_rank": 8,
                                "top": 0.9, "seed": 1}],
    ),
    (
        "gap gap_dim64 eig0",
        ["gap", "--spec", "gap_dim64.json", "--tol-eig", "0"],
    ),
    (
        "simulate schur_random eig0",
        ["simulate", "--spec", "schur_random.json", "--tol-eig", "0"],
    ),
    ("verify", ["verify", "--seeds", "1"]),
    ("verify faulty", ["verify", "--seeds", "1", "--include-faulty-fixture"]),
    ("verify tol0", ["verify", "--seeds", "1", "--tol-psd", "0"]),
    ("verify tol1e-14", ["verify", "--seeds", "1", "--tol-psd", "1e-14"]),
    ("verify eig1e-2", ["verify", "--seeds", "1", "--tol-eig", "0.01"]),
    ("verify eig0", ["verify", "--seeds", "1", "--tol-eig", "0"]),
    ("verify eig5e-1", ["verify", "--seeds", "1", "--tol-eig", "0.5"]),
    ("nonexample", ["nonexample", "--nmax", "30"]),
    (
        "nonexample ties",
        ["nonexample", "--nmax", "120", "--epsilon", "1.0"],
    ),
    (
        "nonexample wide",
        ["nonexample", "--nmax", "120", "--epsilon", "1.5"],
    ),
)


def spec_path(arg, inline: Path):
    """A bundled spec's name as its path, and a spec written inline as
    the path of ``inline``, where it is written; other arguments as
    they are."""
    if isinstance(arg, dict):
        inline.write_text(json.dumps(arg))
        return str(inline)
    return str(SPECS / arg) if arg.endswith(".json") else arg


def run_all(src: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env.pop("CONTRACTION_LAB_SEED", None)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, (label, argv) in enumerate(COMMANDS):
            out = Path(tmp) / str(k)
            argv = [spec_path(arg, Path(tmp) / f"{k}.json") for arg in argv]
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
