"""Shared draw helpers for the randomized checks (fixed seeds everywhere)."""

import math

from hypothesis import strategies as st

from qsatom import DriveConfig, PhaseShiftTable, ScatteringScalars, reduced_scalars
from qsatom.bloch import _drift_poles


def log_uniform(lo, hi):
    """Hypothesis floats spread evenly in log10 over [lo, hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


SHIFT = st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True)  # an s-wave shift
NORM = st.just(0.0) | log_uniform(1e-12, 10.0)  # an l >= 1 squared norm


def random_scalars(rng) -> ScatteringScalars:
    """Scalar set with the l >= 1 norms consistent with some amplitude pair."""
    d0p, d0m = rng.uniform(-0.4, 0.4, 2)
    pgp, pgm = rng.uniform(0.0, 0.1, 2)
    lo = (math.sqrt(pgp) - math.sqrt(pgm)) ** 2
    hi = (math.sqrt(pgp) + math.sqrt(pgm)) ** 2
    pdg = rng.uniform(lo, hi)
    return ScatteringScalars(d0p, d0m, pgp, pgm, pdg, rng.uniform(-0.01, 0.01))


def random_drive(rng, gamma_min=0.0, eta_max=6.0) -> DriveConfig:
    return DriveConfig(rng.uniform(0.0, eta_max), rng.uniform(-8.0, 8.0),
                       rng.uniform(gamma_min, 1.5))


def random_table(rng, lmax=None) -> PhaseShiftTable:
    if lmax is None:
        lmax = int(rng.integers(0, 7))
    return PhaseShiftTable(rng.uniform(-1.0, 1.0, lmax + 1),
                           rng.uniform(-1.0, 1.0, lmax + 1))


def mirror(sc: ScatteringScalars, dc: DriveConfig):
    """Parameter flip (s -> -s, z -> -z) implemented at the input level."""
    return (ScatteringScalars(-sc.delta0_plus, -sc.delta0_minus,
                              sc.norm2_pg_plus, sc.norm2_pg_minus,
                              sc.norm2_pdg, -sc.eps_r),
            DriveConfig(dc.eta, -dc.ztilde, dc.gammatilde))


def inelastic_poles(sc: ScatteringScalars, dc: DriveConfig) -> list:
    """(centre, half-width) of each inelastic line, from the drift's poles l:
    x = -Im l / 2 and (Re l + gammatilde) / 2, as integrate_line takes them."""
    return [(-0.5 * lam.imag, 0.5 * (lam.real + dc.gammatilde))
            for lam in _drift_poles(reduced_scalars(sc, dc))]
