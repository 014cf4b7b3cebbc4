"""Two-level atom with absorption/emission and direct photon scattering.

Closed-form reduced-state dynamics, integral and differential cross
sections (Fano profiles, power broadening, lamp shift) and fluorescence
spectra (Mollow triplet and its direct-scattering distortions), all in
reduced units, with an independent numerical oracle for every formula.
"""

import importlib

# each public name by the layer that defines it, imported on first access (PEP 562)
_LAYERS = {
    "model": ("DriveConfig", "MOLLOW_SCALARS", "PhaseShiftTable", "ReducedScalars",
              "ScatteringScalars", "g_pm", "reduced_scalars", "scalars_from_phase_shifts"),
    "bloch": ("BlochVector", "build_drift", "equilibrium", "evolve"),
    "xsection": ("CrossSectionTriple", "cross_section_grid", "cross_sections", "low_intensity_tot",
                 "mollow_xsections", "sigma_diff", "sigma_el", "sigma_inel", "sigma_tot"),
    "spectrum": ("local_maxima", "low_intensity_x", "mollow_inel_x", "resolvent", "sigma_inel_x",
                 "sigma_tot_x", "spectral_coefficients", "spectral_diff"),
    "oracle": ("SumRuleReport", "beam_overlaps", "finite_beam_balance", "finite_beam_equilibrium",
               "ode_evolve", "quad_sum_rules", "run_verification", "spectrum_time_domain"),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this call
    return value
