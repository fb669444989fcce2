"""Numerical tolerances and shared defaults.

Most tolerances the package compares against are collected here.  The
clustering tolerance ``eig`` and the PSD slack are defaults: functions
take them as ``tol_eig`` and ``tol_psd``, which the CLI sets from
``--tol-eig`` and ``--tol-psd``.  The other entries are fixed constants
of the checks that read them.  Entries suffixed ``_per_dim`` scale
linearly with the matrix dimension.  Some fixed constants sit beside
the one check that reads them instead: the step-difference identity's
``1e-10`` in :mod:`contraction_lab.products`, and the ``_*_TOL``
constants of :mod:`contraction_lab.nonexample`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Tolerances", "DEFAULT", "DELTA_GRID"]


@dataclass(frozen=True)
class Tolerances:
    # an eigenvalue of a positive contraction counts as 1 iff it is
    # >= 1 - eig; the gap window below 1 is 1 - delta + eig < lambda < 1 - eig
    eig: float = 1e-9
    # PSD / Loewner slack, scaled by dimension
    psd_per_dim: float = 1e-10
    # relative residual threshold for fixed-vector tests
    fix: float = 1e-8
    # slack for the a_n / b_n inequality chain, scaled by dimension
    chain_per_dim: float = 1e-12
    # slack when comparing against the geometric rate bound
    rate: float = 1e-10
    # empirical limits are trusted only below this Cauchy gap
    cauchy_gap_max: float = 1e-8
    # end-of-run convergence threshold for error curves
    convergence: float = 1e-6

    def psd(self, dim: int) -> float:
        return self.psd_per_dim * dim

    def chain(self, dim: int) -> float:
        return self.chain_per_dim * dim


DEFAULT = Tolerances()

# Default search grid for spectral-gap certificates, strictly descending.
DELTA_GRID = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001)

# Chains materialize this many steps unless told otherwise.
DEFAULT_HORIZON = 500

SEED_ENV_VAR = "CONTRACTION_LAB_SEED"
