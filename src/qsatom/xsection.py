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
                    ScatteringScalars, g_pm, reduced_scalars,
                    scalars_from_phase_shifts)

_CLOSURE_TOL = 1e-12


@dataclass(frozen=True)
class CrossSectionTriple:
    """Total, elastic and inelastic cross sections; the parts always sum
    to the total (checked to 1e-12 relative on construction)."""

    total: float
    elastic: float
    inelastic: float

    def __post_init__(self):
        if min(self.total, self.elastic, self.inelastic) < -_CLOSURE_TOL:
            raise ValueError("cross sections must be nonnegative")
        gap = abs(self.elastic + self.inelastic - self.total)
        if gap > _CLOSURE_TOL * max(1.0, abs(self.total)):
            raise ValueError(f"elastic + inelastic != total (gap {gap:.3e})")


def _fano_coefficients(sc: ScatteringScalars, rs: ReducedScalars):
    """The two auxiliary combinations entering the compact total form."""
    eta2 = rs.eta ** 2
    a = (math.sin(sc.delta0_plus) ** 2 + rs.kappa2 * sc.norm2_g_plus
         + sc.norm2_pdg * (1.0 + eta2 * (1.0 + sc.norm2_pdg)
                           * math.sin(sc.delta0_minus) ** 2))
    b = (1.0 + eta2 + eta2 * sc.norm2_pdg) * (1.0 + eta2 * sc.norm2_pdg)
    return a, b


def sigma_tot(sc: ScatteringScalars, dc: DriveConfig) -> float:
    """Total cross section.

    Evaluated in the compact form

        [(z sin d0- - cos d0-)^2 + eta^2 A] / (z^2 + zeta^2)
            + ||P_perp g-||^2 (z^2 + B) / (z^2 + zeta^2),

    which has no cancellations near the Fano zero.  Its comparison with
    the expanded form (norms of g+- plus the s-wave interference term),
    which cancels there, is the "total cross-section forms" verify check.
    """
    rs = reduced_scalars(sc, dc)
    a, b = _fano_coefficients(sc, rs)
    den = rs.den
    return ((rs.z * math.sin(sc.delta0_minus) - math.cos(sc.delta0_minus)) ** 2
            + dc.eta ** 2 * a) / den + sc.norm2_pg_minus * (rs.z ** 2 + b) / den


def sigma_el(sc: ScatteringScalars, dc: DriveConfig) -> float:
    """Elastic (coherent) integral cross section.

    The l >= 1 norm ||P_perp[(z^2+B) g- + eta^2 kappa^2 g+]||^2 is expanded
    through the derived cross term, which is the only way the scalar set
    closes on itself.
    """
    rs = reduced_scalars(sc, dc)
    eta2 = dc.eta ** 2
    _, b = _fano_coefficients(sc, rs)
    den = rs.den
    zb = rs.z ** 2 + b
    perp = (zb ** 2 * sc.norm2_pg_minus
            + eta2 ** 2 * rs.kappa2 ** 2 * sc.norm2_pg_plus
            + 2.0 * zb * eta2 * rs.kappa2 * sc.cross_pg)
    swave = (np.exp(-1j * sc.delta0_minus) * math.sin(sc.delta0_minus)
             + (eta2 * rs.kappa2 * np.exp(1j * sc.s) * math.sin(sc.s)
                - rs.y + 1j * rs.kappa2) / den)
    return float(perp / den ** 2 + abs(swave) ** 2)


def sigma_inel(sc: ScatteringScalars, dc: DriveConfig) -> float:
    """Inelastic (incoherent) integral cross section:
    eta^2 (1 + kappa^2) E(y) / (z^2 + zeta^2)^2."""
    rs = reduced_scalars(sc, dc)
    e = ((rs.y * math.sin(sc.s) + rs.kappa2 * math.cos(sc.s)) ** 2
         + sc.norm2_pdg * (rs.y ** 2 + rs.kappa2 ** 2))
    return dc.eta ** 2 * (1.0 + rs.kappa2) * e / rs.den ** 2


def cross_sections(sc: ScatteringScalars, dc: DriveConfig) -> CrossSectionTriple:
    """All three integral cross sections at once."""
    return CrossSectionTriple(sigma_tot(sc, dc), sigma_el(sc, dc), sigma_inel(sc, dc))


def sigma_diff(table: PhaseShiftTable, dc: DriveConfig, theta: float) -> float:
    """Differential cross section per unit solid angle at polar angle theta.

    Azimuthal symmetry of the beam removes any phi dependence.  Needs the
    full phase-shift table; the scalar set cannot resolve angles.
    """
    sc = scalars_from_phase_shifts(table)
    rs = reduced_scalars(sc, dc)
    gp, gm = g_pm(table, theta)
    den = rs.den
    interference = (np.exp(-2j * sc.delta0_minus) * gm
                    * complex(rs.kappa2, -rs.y)).real
    return (abs(gm) ** 2
            + rs.kappa2 / den * (1.0 / (4.0 * math.pi)
                                 + dc.eta ** 2 * (abs(gp) ** 2 - abs(gm) ** 2))
            - 2.0 / (SQRT_4PI * den) * interference)


def mollow_xsections(ztilde: float, eta: float) -> CrossSectionTriple:
    """Cross sections of the pure absorption/emission model.

    With no direct scattering everything collapses to Lorentzians in the
    detuning: total 1/D, elastic (4 ztilde^2 + 1)/D^2, inelastic
    2 eta^2/D^2 with D = 4 ztilde^2 + 1 + 2 eta^2; the sum rule holds
    identically.
    """
    d = 4.0 * ztilde ** 2 + 1.0 + 2.0 * eta ** 2
    return CrossSectionTriple(
        total=1.0 / d,
        elastic=(4.0 * ztilde ** 2 + 1.0) / d ** 2,
        inelastic=2.0 * eta ** 2 / d ** 2,
    )


def low_intensity_tot(source: PhaseShiftTable | ScatteringScalars, ztilde: float) -> float:
    """Vanishing-intensity limit of the total cross section:
    ||P_perp g-||^2 + (z sin d0- - cos d0-)^2 / (z^2 + 1) with z = 2 ztilde."""
    sc = scalars_from_phase_shifts(source) if isinstance(source, PhaseShiftTable) else source
    z = 2.0 * ztilde
    return sc.norm2_pg_minus + (z * math.sin(sc.delta0_minus)
                                - math.cos(sc.delta0_minus)) ** 2 / (z ** 2 + 1.0)
