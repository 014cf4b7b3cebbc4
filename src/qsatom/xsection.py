"""Closed-form differential and integral cross sections.

All values are the dimensionless combination (omega^2 / 6 pi c^2) * sigma.
The total cross section as a function of detuning runs through the full
family of Fano profiles: interference between direct scattering in the
two atomic states and the resonant fluorescence channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (SQRT_4PI, DriveConfig, PhaseShiftTable, ReducedScalars,
                    ScatteringScalars, _any, _cos, _modulus, _point, _sin, _sq, g_pm,
                    reduced_scalars, scalars_from_phase_shifts)

_CLOSURE_TOL = 1e-12


@dataclass(frozen=True)
class CrossSectionTriple:
    """Total, elastic and inelastic cross sections; the parts always sum
    to the total (checked to 1e-12 relative on construction, elementwise
    for the columns of :func:`cross_section_grid`)."""

    total: float
    elastic: float
    inelastic: float

    def __post_init__(self):
        if _any(~np.isfinite((self.total, self.elastic, self.inelastic))):
            raise ValueError("cross sections must be finite")
        if _any((self.total < -_CLOSURE_TOL) | (self.elastic < -_CLOSURE_TOL)
                | (self.inelastic < -_CLOSURE_TOL)):
            raise ValueError("cross sections must be nonnegative")
        gap = abs(self.elastic + self.inelastic - self.total)
        # gap > tol * max(1, |total|), written so that it also runs on columns
        if _any((gap > _CLOSURE_TOL) & (gap > _CLOSURE_TOL * abs(self.total))):
            raise ValueError(f"elastic + inelastic != total (gap {np.max(gap):.3e})")


# The one copy of each closed form: ``rs`` (and ``sc``) hold floats for one
# point or columns for a grid, and both round alike through ``_sq``.

def _total(sc: ScatteringScalars, rs: ReducedScalars):
    a = (_sq(_sin(sc.delta0_plus)) + rs.kappa2 * sc.norm2_g_plus
         + sc.norm2_pdg * (1.0 + rs.eta2 * (1.0 + sc.norm2_pdg)
                           * _sq(_sin(sc.delta0_minus))))
    return (_sq(rs.z * _sin(sc.delta0_minus) - _cos(sc.delta0_minus))
            + rs.eta2 * a) / rs.den + sc.norm2_pg_minus * rs.zb / rs.den


def _elastic(sc: ScatteringScalars, rs: ReducedScalars):
    perp = (_sq(rs.zb) * sc.norm2_pg_minus
            + _sq(rs.eta2) * rs.kappa4 * sc.norm2_pg_plus
            + 2.0 * rs.zb * rs.eta2 * rs.kappa2 * sc.cross_pg)
    swave = (np.exp(-1j * sc.delta0_minus) * _sin(sc.delta0_minus)
             + (rs.eta2 * rs.kappa2 * np.exp(1j * sc.s) * _sin(sc.s)
                - rs.y + 1j * rs.kappa2) / rs.den)
    return perp / rs.den2 + _sq(_modulus(swave))


def _inelastic(sc: ScatteringScalars, rs: ReducedScalars):
    e = (_sq(rs.y * _sin(sc.s) + rs.kappa2 * _cos(sc.s))
         + sc.norm2_pdg * (_sq(rs.y) + rs.kappa4))
    return rs.eta2 * (1.0 + rs.kappa2) * e / rs.den2


def sigma_tot(sc: ScatteringScalars, dc: DriveConfig) -> float:
    """Total cross section.

    Evaluated in the compact form

        [(z sin d0- - cos d0-)^2 + eta^2 A] / (z^2 + zeta^2)
            + ||P_perp g-||^2 (z^2 + B) / (z^2 + zeta^2),

    which has no cancellations near the Fano zero.  Its comparison with
    the expanded form (norms of g+- plus the s-wave interference term),
    which cancels there, is the "total cross-section forms" verify check.
    """
    return _point(_total(sc, reduced_scalars(sc, dc)), sc, dc)


def sigma_el(sc: ScatteringScalars, dc: DriveConfig) -> float:
    """Elastic (coherent) integral cross section.

    The l >= 1 norm ||P_perp[(z^2+B) g- + eta^2 kappa^2 g+]||^2 is expanded
    through the derived cross term, which is the only way the scalar set
    closes on itself.
    """
    return _point(_elastic(sc, reduced_scalars(sc, dc)), sc, dc)


def sigma_inel(sc: ScatteringScalars, dc: DriveConfig) -> float:
    """Inelastic (incoherent) integral cross section:
    eta^2 (1 + kappa^2) E(y) / (z^2 + zeta^2)^2."""
    return _point(_inelastic(sc, reduced_scalars(sc, dc)), sc, dc)


def _refuse_non_finite(finite, eta2, ztilde) -> None:
    """ArithmeticError naming the first (eta2, ztilde) of the broadcast grid
    where ``finite`` is False."""
    if not np.all(finite):
        e2, zt = (np.broadcast_to(v, np.shape(finite)).flat[np.argmin(finite)]
                  for v in (eta2, ztilde))
        raise ArithmeticError(f"non-finite value at (eta2, ztilde) = ({e2}, {zt})")


def cross_sections(sc: ScatteringScalars, dc: DriveConfig) -> CrossSectionTriple:
    """All three integral cross sections at once.  A float overflow raises
    ArithmeticError: OverflowError on a float drive, and on columns an error
    naming the first such (eta2, ztilde)."""
    with np.errstate(all="ignore"):
        parts = (sigma_tot(sc, dc), sigma_el(sc, dc), sigma_inel(sc, dc))
    _refuse_non_finite(np.isfinite(parts).all(axis=0), dc.eta * dc.eta, dc.ztilde)
    return CrossSectionTriple(*parts)


def cross_section_grid(sc: ScatteringScalars, eta2: np.ndarray,
                       ztilde: np.ndarray) -> CrossSectionTriple:
    """:func:`cross_sections`, bit for bit, at each point of eta2 and ztilde
    broadcast together: a column of eta2 against a row of ztilde forms each
    term of the intensity alone once per eta2.  Where the floats would
    overflow, the first such point raises ArithmeticError."""
    with np.errstate(all="ignore"):
        rs = reduced_scalars(sc, DriveConfig(np.sqrt(eta2), ztilde))
        cols = (_total(sc, rs), _elastic(sc, rs), _inelastic(sc, rs))
        finite = np.isfinite(rs.den2) & np.isfinite(cols).all(axis=0)
    _refuse_non_finite(finite, eta2, ztilde)
    return CrossSectionTriple(*cols)


def sigma_diff(table: PhaseShiftTable, dc: DriveConfig, theta: float) -> float:
    """Differential cross section per unit solid angle at polar angle theta.

    Azimuthal symmetry of the beam removes any phi dependence.  Needs the
    full phase-shift table; the scalar set cannot resolve angles.
    """
    sc = scalars_from_phase_shifts(table)
    rs = reduced_scalars(sc, dc)
    gp, gm = g_pm(table, theta)
    interference = float((np.exp(-2j * sc.delta0_minus) * gm
                          * complex(rs.kappa2, -rs.y)).real)
    return (abs(gm) ** 2
            + rs.kappa2 / rs.den * (1.0 / (4.0 * math.pi)
                                    + rs.eta2 * (abs(gp) ** 2 - abs(gm) ** 2))
            - 2.0 / (SQRT_4PI * rs.den) * interference)


def mollow_xsections(ztilde: float, eta: float) -> CrossSectionTriple:
    """Cross sections of the pure absorption/emission model.

    With no direct scattering everything collapses to Lorentzians in the
    detuning: total 1/D, elastic (4 ztilde^2 + 1)/D^2, inelastic
    2 eta^2/D^2 with D = 4 ztilde^2 + 1 + 2 eta^2; the sum rule holds
    identically.  Columns of ztilde and eta round as their floats.
    """
    el, inel = 4.0 * _sq(ztilde) + 1.0, 2.0 * _sq(eta)
    d = el + inel
    return CrossSectionTriple(total=1.0 / d, elastic=el / _sq(d), inelastic=inel / _sq(d))


def low_intensity_tot(source: PhaseShiftTable | ScatteringScalars, ztilde: float) -> float:
    """Vanishing-intensity limit of the total cross section:
    ||P_perp g-||^2 + (z sin d0- - cos d0-)^2 / (z^2 + 1) with z = 2 ztilde."""
    sc = scalars_from_phase_shifts(source) if isinstance(source, PhaseShiftTable) else source
    z = 2.0 * ztilde
    return sc.norm2_pg_minus + (z * math.sin(sc.delta0_minus)
                                - math.cos(sc.delta0_minus)) ** 2 / (z ** 2 + 1.0)
