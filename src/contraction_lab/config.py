"""Numerical tolerances and shared defaults.

All comparisons in the package go through the knobs collected here so a
single override propagates consistently.  Entries suffixed ``_per_dim``
scale linearly with the matrix dimension.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # an eigenvalue lambda counts as 1 iff lambda >= 1 - eig
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
