"""Two-level atom with absorption/emission and direct photon scattering.

Closed-form reduced-state dynamics, integral and differential cross
sections (Fano profiles, power broadening, lamp shift) and fluorescence
spectra (Mollow triplet and its direct-scattering distortions), all in
reduced units, with an independent numerical oracle for every formula.
"""

from .model import (DriveConfig, MOLLOW_SCALARS, PhaseShiftTable, ReducedScalars,
                    ScatteringScalars, delta_g, dress, g_pm, reduced_scalars,
                    scalars_from_phase_shifts)
from .bloch import (BlochVector, DriftMatrix, GROUND_STATE, build_drift,
                    equilibrium, evolve, propagate_deviation)
from .xsection import (CrossSectionTriple, cross_section_grid, cross_sections,
                       low_intensity_tot, mollow_xsections, sigma_diff, sigma_el,
                       sigma_inel, sigma_tot)
from .spectrum import (AngularSpectralData, SpectralCoefficients,
                       build_spectral_drift, elastic_line, local_maxima,
                       low_intensity_x, mollow_inel_x, resolvent, sigma_inel_x,
                       sigma_tot_x, spectral_coefficients, spectral_diff)
from .oracle import (FiniteBeamModel, SumRuleReport, beam_overlaps,
                     build_finite_beam, finite_beam_balance,
                     finite_beam_equilibrium, ode_evolve, quad_sum_rules,
                     run_verification, spectrum_time_domain)

__all__ = [
    "DriveConfig", "MOLLOW_SCALARS", "PhaseShiftTable", "ReducedScalars",
    "ScatteringScalars", "delta_g", "dress", "g_pm", "reduced_scalars",
    "scalars_from_phase_shifts",
    "BlochVector", "DriftMatrix", "GROUND_STATE",
    "build_drift", "equilibrium", "evolve", "propagate_deviation",
    "CrossSectionTriple", "cross_section_grid", "cross_sections", "low_intensity_tot",
    "mollow_xsections", "sigma_diff", "sigma_el", "sigma_inel", "sigma_tot",
    "AngularSpectralData", "SpectralCoefficients",
    "build_spectral_drift", "elastic_line", "local_maxima", "low_intensity_x",
    "mollow_inel_x", "resolvent", "sigma_inel_x", "sigma_tot_x",
    "spectral_coefficients", "spectral_diff",
    "FiniteBeamModel", "SumRuleReport", "beam_overlaps", "build_finite_beam",
    "finite_beam_balance", "finite_beam_equilibrium", "ode_evolve",
    "quad_sum_rules", "run_verification", "spectrum_time_domain",
]

__version__ = "0.1.0"
