"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[acceptance] ... PASS/FAIL` line (visible with
`pytest -s` or in captured output) and then asserts, so a red criterion
is both listed and fatal.
"""

import math
import time

import numpy as np

from helpers import mirror, random_drive, random_scalars
from qsatom import (BlochVector, DriveConfig, MOLLOW_SCALARS, PhaseShiftTable,
                    ScatteringScalars, build_drift, evolve, local_maxima,
                    low_intensity_x, mollow_inel_x, mollow_xsections,
                    ode_evolve, quad_sum_rules,
                    reduced_scalars, resolvent, sigma_el, sigma_inel,
                    sigma_inel_x, sigma_tot, spectrum_time_domain)
from qsatom.bloch import char_poly, cubic_discriminant
from qsatom.oracle import _shifted_drift, finite_beam_balance

FANO = ScatteringScalars(delta0_plus=-0.03, delta0_minus=0.13,
                         norm2_pg_plus=0.005, norm2_pg_minus=0.005,
                         norm2_pdg=0.02, eps_r=-0.001)

DWAVE_TABLE = PhaseShiftTable([-0.03, 0.0, 0.0633], [0.13, 0.0, 0.0])


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] criterion {num:2d} ({label}): {status}{suffix}")
    return ok


def test_criterion_01_detuning_plateau():
    t0 = time.perf_counter()
    plateau = FANO.norm2_pg_minus + math.sin(FANO.delta0_minus) ** 2
    gaps = [abs(sigma_tot(FANO, DriveConfig(math.sqrt(10.0), zt)) - plateau)
            for zt in (1e4, -1e4)]
    elapsed = time.perf_counter() - t0
    ok = (max(gaps) <= 5e-4
          and abs(plateau - 0.0218) <= 5e-4
          and elapsed < 1.0)
    assert _report(1, "far-detuning plateau ~0.0218", ok,
                   f"gap {max(gaps):.1e}, plateau {plateau:.6f}, {elapsed:.2f}s")


def _sigma_tot_expanded(sc, dc):
    # independent transcription of the expanded total form
    rs = reduced_scalars(sc, dc)
    den = rs.z ** 2 + rs.zeta2
    n2gp = math.sin(sc.delta0_plus) ** 2 + sc.norm2_pg_plus
    n2gm = math.sin(sc.delta0_minus) ** 2 + sc.norm2_pg_minus
    return n2gm + (rs.kappa2 * (1.0 + dc.eta ** 2 * (n2gp - n2gm))
                   - rs.y * math.sin(2.0 * sc.delta0_minus)
                   - 2.0 * rs.kappa2 * math.sin(sc.delta0_minus) ** 2) / den


def test_criterion_02_sum_rule_and_form_equivalence():
    rng = np.random.default_rng(2)
    worst_sum = worst_form = 0.0
    for _ in range(1000):
        sc, dc = random_scalars(rng), random_drive(rng)
        tot = sigma_tot(sc, dc)
        gap = abs(sigma_el(sc, dc) + sigma_inel(sc, dc) - tot)
        worst_sum = max(worst_sum, gap / max(abs(tot), 1e-30))
        form_gap = abs(_sigma_tot_expanded(sc, dc) - tot)
        worst_form = max(worst_form, form_gap / max(abs(tot), 1e-30))
    ok = worst_sum <= 1e-12 and worst_form <= 1e-12
    assert _report(2, "sum rule + total-form equivalence", ok,
                   f"sum {worst_sum:.1e}, forms {worst_form:.1e}")


def test_criterion_03_spectral_normalization():
    t0 = time.perf_counter()
    drives = [DriveConfig(math.sqrt(e2), 0.0, 0.6) for e2 in (10.0, 18.0, 28.0, 40.0)]
    drives += [DriveConfig(math.sqrt(28.0), zt, 0.6) for zt in (-4.0, -2.0, 3.0, 6.0)]
    worst = 0.0
    all_converged = True
    for dc in drives:
        report = quad_sum_rules(FANO, dc)
        all_converged = all_converged and report.quad_converged
        worst = max(worst, report.inel_rel_gap, report.tot_rel_gap)
    elapsed = time.perf_counter() - t0
    ok = all_converged and worst <= 1e-6 and elapsed < 10.0
    assert _report(3, "spectral normalization", ok,
                   f"worst gap {worst:.1e}, {elapsed:.1f}s")


def test_criterion_04_mollow_equivalence():
    eta = math.sqrt(6.0)
    gt = 0.5
    xs = np.linspace(-8.0, 8.0, 50)
    worst = 0.0
    for zt in np.linspace(-3.0, 3.0, 50):
        dc = DriveConfig(eta, float(zt), gt)
        got = sigma_inel_x(MOLLOW_SCALARS, dc, xs)
        ref = mollow_inel_x(float(zt), eta, gt, xs)
        worst = max(worst, float(np.max(np.abs(got - ref) / np.abs(ref))))
    spectra_ok = worst <= 1e-10

    points_ok = True
    for zt, eta2, expected in ((0.0, 0.0, (1.0, 1.0, 0.0)),
                               (0.0, 1.0, (1 / 3, 1 / 9, 2 / 9))):
        dc = DriveConfig(math.sqrt(eta2), zt)
        closed = mollow_xsections(zt, dc.eta)
        triple = (sigma_tot(MOLLOW_SCALARS, dc), sigma_el(MOLLOW_SCALARS, dc),
                  sigma_inel(MOLLOW_SCALARS, dc))
        for got, ref, want in zip(triple, (closed.total, closed.elastic,
                                           closed.inelastic), expected):
            points_ok = points_ok and abs(got - ref) <= 1e-15 \
                and abs(ref - want) <= 1e-15
    ok = spectra_ok and points_ok
    assert _report(4, "no-scattering closed forms", ok,
                   f"grid worst {worst:.1e}, exact points {'ok' if points_ok else 'bad'}")


def test_criterion_05_triplet_positions_and_heights():
    dc = DriveConfig(10.0, 0.0, 0.01)
    peaks = local_maxima(lambda x: sigma_inel_x(MOLLOW_SCALARS, dc, x),
                         -15.0, 15.0, num=3001, xtol=1e-6)
    ok = len(peaks) == 3
    detail = f"{len(peaks)} peaks"
    if ok:
        xs = sorted(p[0] for p in peaks)
        heights = [p[1] for p in sorted(peaks)]
        pos_ok = (abs(xs[0] + 10.0) <= 0.5 and abs(xs[1]) <= 0.5
                  and abs(xs[2] - 10.0) <= 0.5)
        want = (3.0 + 2.0 * 0.01) / (1.0 + 0.01)
        got_left = heights[1] / heights[0]
        got_right = heights[1] / heights[2]
        ratio_ok = (abs(got_left / want - 1.0) <= 0.1
                    and abs(got_right / want - 1.0) <= 0.1)
        ok = pos_ok and ratio_ok
        detail = (f"peaks at {xs[0]:+.3f}, {xs[1]:+.3f}, {xs[2]:+.3f}; "
                  f"center/side {got_left:.3f} vs {want:.3f}")
    assert _report(5, "strong-drive triplet", ok, detail)


def test_criterion_06_single_to_triple_peak_threshold():
    def discriminant(eta2):
        eta = math.sqrt(eta2)
        rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(eta, 0.0))
        return cubic_discriminant(char_poly(rs))

    lo, hi = 0.01, 0.2
    assert discriminant(lo) > 0.0 > discriminant(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if discriminant(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    ok = abs(root - 1.0 / 16.0) <= 1e-9
    assert _report(6, "eigenvalue threshold at intensity 1/16", ok,
                   f"crossing at {root:.12f}")


def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_ode = 0.0
    for _ in range(20):
        sc, dc = random_scalars(rng), random_drive(rng)
        rs = reduced_scalars(sc, dc)
        u0 = rng.uniform(0.0, 1.0)
        r = rng.uniform(0.0, 0.95) * math.sqrt(max(u0 - u0 ** 2, 0.0))
        x0 = BlochVector(u0, r * np.exp(2j * math.pi * rng.uniform()))
        tau = rng.uniform(0.1, 20.0)
        a = evolve(rs, x0, tau)
        b = ode_evolve(rs, x0, tau)
        worst_ode = max(worst_ode, abs(a.u - b.u), abs(a.v - b.v))

    worst_res = worst_det = 0.0
    for _ in range(100):
        sc, dc = random_scalars(rng), random_drive(rng)
        rs = reduced_scalars(sc, dc)
        x = rng.uniform(-20.0, 20.0)
        gap = np.abs(resolvent(rs, x) - np.linalg.inv(_shifted_drift(rs, x)))
        worst_res = max(worst_res, float(np.max(gap)))
        g = build_drift(rs)
        target = 2.0 * (rs.z ** 2 + rs.zeta2)
        worst_det = max(worst_det, abs(np.linalg.det(g) - target) / abs(target))

    worst_td = 0.0
    for _ in range(5):
        sc = random_scalars(rng)
        dc = DriveConfig(rng.uniform(0.5, 4.5), rng.uniform(-3.0, 3.0),
                         rng.uniform(0.3, 1.0))
        x = float(rng.uniform(-5.0, 5.0))
        a = spectrum_time_domain(sc, dc, x)
        b = sigma_inel_x(sc, dc, x)
        worst_td = max(worst_td, abs(a - b) / max(abs(b), 1e-30))

    ok = (worst_ode <= 1e-8 and worst_res <= 1e-12
          and worst_td <= 1e-6 and worst_det <= 1e-12)
    assert _report(7, "oracle equivalences", ok,
                   f"ode {worst_ode:.1e}, resolvent {worst_res:.1e}, "
                   f"time-domain {worst_td:.1e}, det {worst_det:.1e}")


def test_criterion_08_symmetry_and_positivity():
    rng = np.random.default_rng(8)
    worst_sym = worst_neg = 0.0
    for _ in range(300):
        sc, dc = random_scalars(rng), random_drive(rng, gamma_min=0.05)
        sc2, dc2 = mirror(sc, dc)
        x = rng.uniform(-12.0, 12.0)
        a = sigma_inel_x(sc, dc, x)
        worst_sym = max(worst_sym, abs(a - sigma_inel_x(sc2, dc2, -x)))
        worst_neg = max(worst_neg, -min(a, 0.0))
    xs = np.linspace(-40.0, 40.0, 2001)
    for eta2, zt in ((10.0, 0.0), (40.0, -4.0), (28.0, 6.0)):
        vals = sigma_inel_x(FANO, DriveConfig(math.sqrt(eta2), zt, 0.6), xs)
        worst_neg = max(worst_neg, -float(np.min(vals)))
    ok = worst_sym <= 1e-12 and worst_neg <= 1e-12
    assert _report(8, "spectral symmetry + positivity", ok,
                   f"sym {worst_sym:.1e}, neg {worst_neg:.1e}")


def test_criterion_09_finite_beam_balance():
    dc = DriveConfig(2.0, 0.0)
    worst = 0.0
    for dtheta in (0.2, 0.1, 0.05):
        worst = max(worst, finite_beam_balance(DWAVE_TABLE, dc, dtheta))
    mollow_table = PhaseShiftTable([0.0], [0.0])
    dc4 = DriveConfig(2.0, 0.0)
    worst = max(worst, finite_beam_balance(mollow_table, dc4, 0.1))
    ok = worst <= 1e-8
    assert _report(9, "finite-beam photon balance", ok, f"worst {worst:.1e}")


def test_criterion_10_low_intensity_laws():
    zt = 1.3
    z = 2.0 * zt
    s = FANO.s
    e0 = (z * math.sin(s) + math.cos(s)) ** 2 + FANO.norm2_pdg * (z ** 2 + 1.0)
    limit = 2.0 * e0 / (z ** 2 + 1.0) ** 2

    def per_intensity(eta):
        return sigma_inel(FANO, DriveConfig(eta, zt)) / eta ** 2

    xsec = (4.0 * per_intensity(0.05) - per_intensity(0.1)) / 3.0
    xsec_err = abs(xsec - limit) / limit

    gt, x = 0.5, 0.7

    def ratio(eta):
        dc = DriveConfig(eta, zt, gt)
        return sigma_inel_x(FANO, dc, x) / low_intensity_x(FANO, zt, gt, eta, x)

    spec_err = abs((4.0 * ratio(0.05) - ratio(0.1)) / 3.0 - 1.0)
    ok = xsec_err <= 1e-4 and spec_err <= 1e-4
    assert _report(10, "weak-drive limits", ok,
                   f"cross section {xsec_err:.1e}, spectrum {spec_err:.1e}")
