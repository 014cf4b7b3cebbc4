import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_table
from qsatom import (DriveConfig, PhaseShiftTable, ReducedScalars, ScatteringScalars,
                    g_pm, reduced_scalars, scalars_from_phase_shifts)
from qsatom.model import SQRT_4PI, _legendre, _sq

# Explicit polynomial coefficients (ascending powers), independent of the
# Legendre recurrence used by the library.
_LEGENDRE_COEFFS = [
    [1.0],
    [0.0, 1.0],
    [-0.5, 0.0, 1.5],
    [0.0, -1.5, 0.0, 2.5],
    [3 / 8, 0.0, -30 / 8, 0.0, 35 / 8],
    [0.0, 15 / 8, 0.0, -70 / 8, 0.0, 63 / 8],
    [-5 / 16, 0.0, 105 / 16, 0.0, -315 / 16, 0.0, 231 / 16],
]


def _legendre_explicit(l, x):
    return sum(c * x ** k for k, c in enumerate(_LEGENDRE_COEFFS[l]))


def _g_explicit(deltas, theta):
    """Term-by-term amplitude sum with the explicit polynomials."""
    x = math.cos(theta)
    total = 0.0 + 0.0j
    for l, d in enumerate(deltas):
        total += (2 * l + 1) / SQRT_4PI * np.exp(1j * d) * math.sin(d) \
            * _legendre_explicit(l, x)
    return 1j * total


def test_scalars_identity_matrices():
    sc = scalars_from_phase_shifts(PhaseShiftTable([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]))
    assert sc.s == 0.0
    assert sc.norm2_pg_plus == 0.0 and sc.norm2_pg_minus == 0.0
    assert sc.norm2_pdg == 0.0 and sc.eps_r == 0.0 and sc.cross_pg == 0.0


def test_scalars_pure_swave():
    sc = scalars_from_phase_shifts(PhaseShiftTable([math.pi / 2], [0.0]))
    assert sc.s == pytest.approx(math.pi / 2)
    assert sc.norm2_pg_plus == 0.0
    assert sc.eps_r == 0.0


def test_scalars_single_pwave_channel():
    # one p-wave shift in the upper state only; weights are 2l+1 = 3
    sc = scalars_from_phase_shifts(PhaseShiftTable([0.0, 0.1], [0.0, 0.0]))
    assert sc.norm2_pdg == pytest.approx(3.0 * math.sin(0.1) ** 2, rel=1e-15)
    assert sc.eps_r == pytest.approx(-0.75 * math.sin(0.2), rel=1e-15)
    assert sc.norm2_pg_plus == pytest.approx(3.0 * math.sin(0.1) ** 2, rel=1e-15)
    assert sc.norm2_pg_minus == 0.0


def test_scalars_match_per_channel_summation():
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = random_table(rng)
        sc = scalars_from_phase_shifts(t)
        pgp = sum((2 * l + 1) * math.sin(t.delta_plus[l]) ** 2
                  for l in range(1, t.lmax + 1))
        pdg = sum((2 * l + 1) * math.sin(t.delta_plus[l] - t.delta_minus[l]) ** 2
                  for l in range(1, t.lmax + 1))
        eps = -0.25 * sum((2 * l + 1) * math.sin(2 * (t.delta_plus[l] - t.delta_minus[l]))
                          for l in range(1, t.lmax + 1))
        cross = sum((2 * l + 1) * math.cos(t.delta_plus[l] - t.delta_minus[l])
                    * math.sin(t.delta_plus[l]) * math.sin(t.delta_minus[l])
                    for l in range(1, t.lmax + 1))
        assert sc.norm2_pg_plus == pytest.approx(pgp, abs=1e-13)
        assert sc.norm2_pdg == pytest.approx(pdg, abs=1e-13)
        assert sc.eps_r == pytest.approx(eps, abs=1e-13)
        # the polarization-identity cross term equals the direct channel sum
        assert sc.cross_pg == pytest.approx(cross, abs=1e-12)


def test_g_pm_identity_matrices():
    t = PhaseShiftTable([0.0, 0.0], [0.0, 0.0])
    assert g_pm(t, 0.7) == (0.0, 0.0)


def test_g_pm_pure_swave_lower():
    t = PhaseShiftTable([0.0], [math.pi / 2])
    for theta in (0.0, 1.0, math.pi):
        gp, gm = g_pm(t, theta)
        assert gp == 0.0
        assert gm == pytest.approx(-1.0 / SQRT_4PI, abs=1e-15)


def test_g_pm_against_explicit_legendre_sum():
    # seven channels, so P_0 .. P_6 are each pinned, at both poles too
    t = PhaseShiftTable([-0.2, 0.15, 0.05, -0.3, 0.21, -0.07, 0.12],
                        [0.4, -0.1, 0.02, 0.11, -0.25, 0.09, -0.16])
    for theta in (0.0, 0.7, math.pi / 3, math.pi / 2, 1.95, math.pi):
        gp, gm = g_pm(t, theta)
        assert gp == pytest.approx(_g_explicit(t.delta_plus, theta), abs=1e-14)
        assert gm == pytest.approx(_g_explicit(t.delta_minus, theta), abs=1e-14)


def test_legendre_recurrence_is_numpys_legvander_bit_for_bit():
    # numpy's operation order, so g_pm, sigma_diff and spectral_diff keep their bits
    x = np.concatenate([np.random.default_rng(5).uniform(-1.0, 1.0, 64), [-1.0, 1.0]])
    for lmax in range(131):
        want = np.polynomial.legendre.legvander(x, lmax)
        assert _legendre(x, lmax).tobytes() == want.tobytes()
        assert _legendre(float(x[0]), lmax).tobytes() == want[0].tobytes()


def test_g_pm_rejects_bad_angle():
    t = PhaseShiftTable([0.1], [0.0])
    with pytest.raises(ValueError):
        g_pm(t, -0.1)
    with pytest.raises(ValueError):
        g_pm(t, math.pi + 0.1)


def test_delta_g_zero_table():
    gp, gm = g_pm(PhaseShiftTable([0.0, 0.0], [0.0, 0.0]), 1.2)
    assert gp - gm == 0.0


def test_delta_g_pure_swave_is_angle_independent():
    s = 0.37
    t = PhaseShiftTable([s], [0.0])
    expected = 1j * np.exp(1j * s) * math.sin(s) / SQRT_4PI
    for theta in (0.0, 0.9, 2.4, math.pi):
        gp, gm = g_pm(t, theta)
        assert gp - gm == pytest.approx(expected, abs=1e-15)


def test_delta_g_swave_plus_perp_split():
    # reconstruct the difference from its s-wave part plus the l >= 1 sum
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = random_table(rng)
        theta = rng.uniform(0.0, math.pi)
        swave = 1j * np.exp(1j * (t.delta_plus[0] + t.delta_minus[0])) \
            * math.sin(t.delta_plus[0] - t.delta_minus[0]) / SQRT_4PI
        perp = 0.0 + 0.0j
        x = math.cos(theta)
        for l in range(1, t.lmax + 1):
            perp += 1j * (2 * l + 1) / SQRT_4PI \
                * np.exp(1j * (t.delta_plus[l] + t.delta_minus[l])) \
                * math.sin(t.delta_plus[l] - t.delta_minus[l]) \
                * _legendre_explicit(l, x)
        gp, gm = g_pm(t, theta)
        assert gp - gm == pytest.approx(swave + perp, abs=1e-12)


def _reduced_reference(sc, dc):
    """Independent re-derivation of the dressed scalars, different grouping."""
    e2 = dc.eta * dc.eta
    s = sc.delta0_plus - sc.delta0_minus
    ndg = math.sin(s) * math.sin(s) + sc.norm2_pdg
    k2 = 1.0 + e2 * ndg
    pz = 1.0 + e2 * sc.norm2_pdg
    zeta2 = pz * pz + e2 * (1.0 + k2 + e2 * sc.norm2_pdg)
    z = 2.0 * (dc.ztilde - e2 * sc.eps_r)
    y = z - e2 * math.sin(s) * math.cos(s)
    w = z + e2 * math.sin(s) * math.cos(s)
    return z, y, k2, zeta2, complex(k2, -w), ndg


def test_reduced_scalars_mollow_zeta():
    rs = reduced_scalars(ScatteringScalars(0, 0, 0, 0, 0, 0), DriveConfig(1.0, 0.0))
    assert rs.z == 0.0 and rs.y == 0.0
    assert rs.kappa2 == 1.0
    assert rs.zeta2 == pytest.approx(3.0, rel=1e-15)  # sqrt(1 + 2 eta^2) squared


def test_reduced_scalars_zero_intensity(fano_scalars):
    rs = reduced_scalars(fano_scalars, DriveConfig(0.0, 1.7))
    assert rs.kappa2 == 1.0 and rs.zeta2 == 1.0
    assert rs.bprime == complex(1.0, -rs.z)
    assert rs.z == pytest.approx(2 * 1.7)


def test_reduced_scalars_reference_set(fano_scalars):
    dc = DriveConfig(math.sqrt(10.0), 0.0)
    rs = reduced_scalars(fano_scalars, dc)
    z, y, k2, zeta2, bprime, ndg = _reduced_reference(fano_scalars, dc)
    assert rs.z == pytest.approx(z, rel=1e-14)
    assert rs.y == pytest.approx(y, rel=1e-14)
    assert rs.kappa2 == pytest.approx(k2, rel=1e-14)
    assert rs.zeta2 == pytest.approx(zeta2, rel=1e-14)
    assert rs.bprime == pytest.approx(bprime, rel=1e-14)
    assert rs.norm2_dg == pytest.approx(ndg, rel=1e-14)


def test_reduced_scalars_carry_the_drive(fano_scalars):
    for dc in (DriveConfig(0.0, 1.7), DriveConfig(math.sqrt(10.0), -2.5, 0.6)):
        rs = reduced_scalars(fano_scalars, dc)
        assert rs.eta == dc.eta
        assert rs.s == fano_scalars.s
        assert rs.gammatilde == dc.gammatilde
        assert rs.den == rs.z ** 2 + rs.zeta2
        assert (rs.den2, rs.kappa4) == (_sq(rs.den), _sq(rs.kappa2))
    n = 10_001  # a * a rounds unlike pow in about one square of a thousand
    cols = DriveConfig(np.sqrt(np.linspace(0.0, 40.0, n)), np.linspace(-8.0, 8.0, n), 0.6)
    rs = reduced_scalars(fano_scalars, cols)
    assert np.array_equal(rs.den2, _sq(rs.den)) and np.array_equal(rs.kappa4, _sq(rs.kappa2))


def test_reduced_scalars_continuous_at_zero_drive(fano_scalars):
    tiny = reduced_scalars(fano_scalars, DriveConfig(1e-8, 0.4))
    zero = reduced_scalars(fano_scalars, DriveConfig(0.0, 0.4))
    assert tiny.kappa2 == pytest.approx(zero.kappa2, abs=1e-14)
    assert tiny.zeta2 == pytest.approx(zero.zeta2, abs=1e-14)
    assert tiny.bprime == pytest.approx(zero.bprime, abs=1e-14)


@given(st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=6),
       st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_triangle_bound_holds_by_construction(dp, dm):
    n = min(len(dp), len(dm))
    sc = scalars_from_phase_shifts(PhaseShiftTable(dp[:n], dm[:n]))
    a, b = math.sqrt(sc.norm2_pg_plus), math.sqrt(sc.norm2_pg_minus)
    c = math.sqrt(sc.norm2_pdg)
    assert abs(a - b) - 1e-9 <= c <= a + b + 1e-9


@given(st.floats(0.0, 10.0), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
       st.floats(0.0, 0.2), st.floats(-20.0, 20.0))
@settings(max_examples=80, deadline=None)
def test_dressed_widths_never_drop_below_one(eta, d0p, d0m, pdg, ztilde):
    sc = ScatteringScalars(d0p, d0m, pdg, pdg, pdg * 1e-6, 0.0)
    rs = reduced_scalars(sc, DriveConfig(eta, ztilde))
    assert rs.kappa2 >= 1.0
    assert rs.zeta2 >= 1.0


def test_reduced_scalars_refuse_widths_below_one(fano_scalars):
    rs = reduced_scalars(fano_scalars, DriveConfig(2.0, 0.5))
    for field in ("kappa2", "zeta2"):
        with pytest.raises(ValueError, match="cannot drop below 1"):
            replace(rs, **{field: 0.5})


def test_reduced_scalars_refuse_nan_widths_but_not_inf(fano_scalars):
    rs = reduced_scalars(fano_scalars, DriveConfig(2.0, 0.5))
    with pytest.raises(ValueError, match="cannot drop below 1"):
        ReducedScalars(*[math.nan] * len(fields(rs)))
    for field in ("kappa2", "zeta2"):
        for bad in (math.nan, np.array([2.0, math.nan])):
            with pytest.raises(ValueError, match="cannot drop below 1"):
                replace(rs, **{field: bad})
        replace(rs, **{field: math.inf})  # an overflowed dressing is named downstream


def test_phase_shift_table_validation():
    with pytest.raises(ValueError):
        PhaseShiftTable([0.1, 0.2], [0.1])
    with pytest.raises(ValueError):
        PhaseShiftTable([], [])
    with pytest.raises(ValueError):
        PhaseShiftTable([np.nan], [0.0])
    with pytest.raises(ValueError):
        PhaseShiftTable([[0.1, 0.2]], [[0.1, 0.2]])


def test_phase_shift_table_keeps_its_own_frozen_copy():
    # a float array needing no conversion was kept and frozen: the caller's
    # array turned read-only, and a write through a view of it moved the table
    a, base = np.array([0.1, 0.2]), np.array([0.1, 0.2])
    t = PhaseShiftTable(a, base[:])
    assert a.flags.writeable
    a[0] = base[0] = 5.0
    assert t.delta_plus.tolist() == t.delta_minus.tolist() == [0.1, 0.2]
    assert not (t.delta_plus.flags.writeable or t.delta_minus.flags.writeable)


def test_scattering_scalars_validation():
    with pytest.raises(ValueError):
        ScatteringScalars(0, 0, -0.1, 0, 0, 0)
    with pytest.raises(ValueError):
        # difference norm far above the sum of the parts
        ScatteringScalars(0, 0, 0.001, 0.001, 0.5, 0)
    with pytest.raises(ValueError):
        ScatteringScalars(np.inf, 0, 0, 0, 0, 0)


def _scalar_columns(n=5, seed=3):
    """n points sitting alternately on the lower and the upper triangle
    bound, as equal-length columns of the six scalars."""
    rng = np.random.default_rng(seed)
    pgp, pgm = rng.uniform(0.0, 0.1, n), rng.uniform(0.0, 0.1, n)
    a, b = np.sqrt(pgp), np.sqrt(pgm)
    pdg = np.where(np.arange(n) % 2 == 0, (a - b) ** 2, (a + b) ** 2)
    return dict(delta0_plus=rng.uniform(-0.4, 0.4, n), delta0_minus=rng.uniform(-0.4, 0.4, n),
                norm2_pg_plus=pgp, norm2_pg_minus=pgm, norm2_pdg=pdg,
                eps_r=rng.uniform(-0.01, 0.01, n))


def test_scattering_scalars_columns_on_the_triangle_bound_pass():
    cols = _scalar_columns()
    sc = ScatteringScalars(**cols)
    assert sc.norm2_pdg is cols["norm2_pdg"]
    for i in range(5):  # each point on its own passes too
        ScatteringScalars(**{k: float(v[i]) for k, v in cols.items()})


@pytest.mark.parametrize("key, value, match", [
    ("eps_r", np.nan, "finite"),
    ("norm2_pg_minus", -1e-3, "nonnegative"),
    ("norm2_pdg", 0.5, "triangle"),
])
def test_scattering_scalars_columns_refuse_one_bad_point(key, value, match):
    cols = _scalar_columns()
    cols[key] = cols[key].copy()
    cols[key][3] = value
    with pytest.raises(ValueError, match=match) as err:
        ScatteringScalars(**cols)
    if key == "norm2_pdg":  # the message quotes the violating point
        assert f"{math.sqrt(0.5):.3e}" in str(err.value)


def test_drive_config_validation():
    with pytest.raises(ValueError):
        DriveConfig(-1.0, 0.0)
    with pytest.raises(ValueError):
        DriveConfig(1.0, 0.0, -0.5)
    with pytest.raises(ValueError):
        DriveConfig(1.0, np.nan)


def test_drive_config_columns_refuse_one_bad_point():
    eta, zt, gt = np.full(4, 1.0), np.zeros(4), np.full(4, 0.3)
    DriveConfig(eta, zt, gt)
    for bad in (np.array([1.0, -1.0, 1.0, 1.0]), np.array([1.0, np.nan, 1.0, 1.0])):
        with pytest.raises(ValueError):
            DriveConfig(bad, zt, gt)
    with pytest.raises(ValueError):
        DriveConfig(eta, zt, np.array([0.3, 0.3, -0.1, 0.3]))
