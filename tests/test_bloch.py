import math

import mpmath
import numpy as np
import pytest

from helpers import random_drive, random_scalars
from qsatom import (BlochVector, DriveConfig, MOLLOW_SCALARS, ScatteringScalars,
                    build_drift, equilibrium, evolve, reduced_scalars)
from qsatom import bloch
from qsatom.bloch import _expm, char_poly, cubic_discriminant
from qsatom.oracle import ode_evolve


def _drift(sc, dc):
    rs = reduced_scalars(sc, dc)
    return rs, build_drift(rs)


def _det3(m):
    # brute-force cofactor expansion, independent of numpy's LU route
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def test_build_drift_undriven():
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(0.0, 0.0))
    g = build_drift(rs)
    assert np.allclose(g, np.diag([2.0, 1.0, 1.0]))


def test_build_drift_mollow_entries():
    eta, ztilde = 1.7, 0.45
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(eta, ztilde))
    z = 2.0 * ztilde
    expected = np.array([
        [2.0, -eta, -eta],
        [2.0 * eta, 1.0 - 1j * z, 0.0],
        [2.0 * eta, 0.0, 1.0 + 1j * z],
    ])
    assert np.allclose(build_drift(rs), expected, atol=1e-15)


def test_drift_determinant_identity(fano_scalars):
    rs, g = _drift(fano_scalars, DriveConfig(math.sqrt(10.0), 0.0))
    target = 2.0 * (rs.z ** 2 + rs.zeta2)
    assert _det3(g) == pytest.approx(target, rel=1e-12)


def test_drift_determinant_identity_random_grid():
    rng = np.random.default_rng(31)
    for _ in range(100):
        sc, dc = random_scalars(rng), random_drive(rng)
        rs, g = _drift(sc, dc)
        target = 2.0 * (rs.z ** 2 + rs.zeta2)
        assert _det3(g) == pytest.approx(target, rel=1e-12)


def test_bloch_vector_columns_refuse_one_bad_state():
    u, v = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5j, 0.0])
    assert BlochVector(u, v).vector().shape == (3, 3)
    with pytest.raises(ValueError, match="statistical operator"):
        BlochVector(u, np.array([0.0, 0.6j, 0.0]))
    with pytest.raises(ValueError, match="population"):
        BlochVector(np.array([0.0, 1.5, 1.0]), v)
    with pytest.raises(ValueError, match="finite"):
        BlochVector(u, np.array([0.0, np.nan, 0.0]))


def test_build_drift_is_read_only_with_closure_structure():
    rng = np.random.default_rng(17)
    for _ in range(100):
        _, g = _drift(random_scalars(rng), random_drive(rng))
        assert g.shape == (3, 3) and g.dtype == complex and not g.flags.writeable
        assert g[1, 2] == 0.0 and g[2, 1] == 0.0
        assert g[2, 2] == np.conj(g[1, 1]) and g[2, 0] == np.conj(g[1, 0])
    with pytest.raises(ValueError):
        g[0, 0] = 1.0


def test_build_drift_rejects_an_overflowed_kappa2():
    # the l >= 1 norms of 1e10 at eta^2 = 1e300 overflow kappa2 to inf, and
    # ReducedScalars still builds, so build_drift must refuse the matrix
    sc = ScatteringScalars(0.0, 0.0, 1e10, 1e10, 1e10, 0.0)
    rs = reduced_scalars(sc, DriveConfig(1e150, 0.0))
    assert rs.kappa2 == math.inf
    with pytest.raises(ValueError, match="drift matrix entries must be finite"):
        build_drift(rs)


def test_spectral_abscissa_positive():
    rng = np.random.default_rng(13)
    for _ in range(100):
        _, g = _drift(random_scalars(rng), random_drive(rng))
        assert np.min(np.linalg.eigvals(g).real) > 0.0


def test_equilibrium_undriven(fano_scalars):
    rs = reduced_scalars(fano_scalars, DriveConfig(0.0, 0.3))
    eq = equilibrium(rs)
    assert eq.u == 0.0 and eq.v == 0.0


def test_equilibrium_mollow_resonant():
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(1.0, 0.0))
    eq = equilibrium(rs)
    assert eq.u == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert eq.v == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_equilibrium_against_linear_solve(fano_scalars):
    dc = DriveConfig(math.sqrt(28.0), 3.0)
    rs, g = _drift(fano_scalars, dc)
    eq = equilibrium(rs)
    solved = np.linalg.solve(g, np.array([0.0, dc.eta, dc.eta]))
    assert eq.u == pytest.approx(solved[0].real, rel=1e-12)
    assert eq.v == pytest.approx(solved[1], rel=1e-12)
    assert abs(solved[0].imag) < 1e-15


def test_equilibrium_stationarity_residual_grid():
    rng = np.random.default_rng(41)
    for _ in range(100):
        sc, dc = random_scalars(rng), random_drive(rng)
        rs, g = _drift(sc, dc)
        eq = equilibrium(rs)
        resid = g @ eq.vector() - np.array([0.0, dc.eta, dc.eta])
        assert np.max(np.abs(resid)) <= 1e-12 * max(1.0, dc.eta)


def test_evolve_tau_zero_is_identity(fano_scalars):
    rs = reduced_scalars(fano_scalars, DriveConfig(2.0, 1.0))
    x0 = BlochVector(0.2, 0.1 + 0.05j)
    assert evolve(rs, x0, 0.0) is x0


def test_evolve_rejects_negative_tau(fano_scalars):
    rs = reduced_scalars(fano_scalars, DriveConfig(2.0, 1.0))
    with pytest.raises(ValueError):
        evolve(rs, BlochVector(0.0, 0.0), -1e-9)


def test_evolve_reaches_equilibrium(fano_scalars):
    dc = DriveConfig(math.sqrt(18.0), -2.0)
    rs = reduced_scalars(fano_scalars, dc)
    eq = equilibrium(rs)
    out = evolve(rs, BlochVector(0.0, 0.0), 200.0)
    assert out.u == pytest.approx(eq.u, abs=1e-10)
    assert out.v == pytest.approx(eq.v, abs=1e-10)


@pytest.mark.parametrize("eta", [1e2, 1e4, 1e6, 1e8])
def test_evolve_relaxes_to_equilibrium_under_strong_drive(fano_scalars, eta):
    # v_eq ~ 1/(2 eta): a stationary point solved from G' itself loses it
    # as eta^2 times the rounding of G' (49% off at eta = 1e8)
    for sc in (MOLLOW_SCALARS, fano_scalars):
        for zt in (0.0, 3.0):
            rs = reduced_scalars(sc, DriveConfig(eta, zt))
            eq = equilibrium(rs)
            out = evolve(rs, BlochVector(0.0, 0.0), 50.0)
            assert abs(out.u - eq.u) <= 1e-8 * abs(eq.u)
            assert abs(out.v - eq.v) <= 1e-8 * abs(eq.v)


def test_equilibrium_is_fixed_point(fano_scalars):
    dc = DriveConfig(2.0, 0.7)
    rs = reduced_scalars(fano_scalars, dc)
    eq = equilibrium(rs)
    for tau in (0.3, 2.0, 17.0):
        out = evolve(rs, eq, tau)
        assert out.u == pytest.approx(eq.u, abs=1e-12)
        assert out.v == pytest.approx(eq.v, abs=1e-12)


def test_evolve_state_stays_physical():
    rng = np.random.default_rng(23)
    for _ in range(60):
        sc, dc = random_scalars(rng), random_drive(rng)
        rs = reduced_scalars(sc, dc)
        u0 = rng.uniform(0.0, 1.0)
        r = rng.uniform(0.0, 0.95) * math.sqrt(max(u0 - u0 ** 2, 0.0))
        x0 = BlochVector(u0, r * np.exp(2j * math.pi * rng.uniform()))
        out = evolve(rs, x0, rng.uniform(0.0, 30.0))
        assert -1e-12 <= out.u <= 1.0 + 1e-12
        assert out.u + 1e-9 >= out.u ** 2 + abs(out.v) ** 2


def _mollow_drift(eta2):
    eta = math.sqrt(eta2)
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(eta, 0.0))
    return build_drift(rs)


def test_mollow_eigenvalues_real_below_threshold():
    lam = np.linalg.eigvals(_mollow_drift(1.0 / 16.0 - 2e-3))
    assert np.max(np.abs(lam.imag)) < 1e-12


def test_mollow_eigenvalues_complex_above_threshold():
    lam = np.linalg.eigvals(_mollow_drift(1.0 / 16.0 + 2e-3))
    assert np.max(np.abs(lam.imag)) > 1e-3


def test_char_poly_annihilates_eigenvalues():
    rng = np.random.default_rng(3)
    _, g = _drift(random_scalars(rng), random_drive(rng))
    coeffs = char_poly(g)
    for lam in np.linalg.eigvals(g):
        val = coeffs[0] * lam ** 3 + coeffs[1] * lam ** 2 + coeffs[2] * lam + coeffs[3]
        assert abs(val) < 1e-9


def test_cubic_discriminant_sign_tracks_root_reality():
    below = cubic_discriminant(char_poly(_mollow_drift(1.0 / 16.0 - 2e-3)))
    above = cubic_discriminant(char_poly(_mollow_drift(1.0 / 16.0 + 2e-3)))
    assert below > 0.0 > above
    # an imaginary part up to 1e-9 is rounding and is dropped; a larger one is refused
    real = [1.0, -6.0, 11.0, -6.0]  # (x - 1)(x - 2)(x - 3): discriminant 4
    assert cubic_discriminant([1.0, -6.0 + 5e-10j, 11.0, -6.0]) == cubic_discriminant(real) == 4.0
    with pytest.raises(ValueError, match="real coefficients"):
        cubic_discriminant([1.0, -6.0 + 2e-9j, 11.0, -6.0])


def test_evolve_accurate_at_defective_threshold():
    # repeated eigenvalues: G' is defective here, so no eigenvector basis
    # exists, and the Pade scaling-and-squaring propagator must still agree
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(0.25, 0.0))
    x0 = BlochVector(0.3, 0.1 - 0.2j)
    a = evolve(rs, x0, 8.0)
    b = ode_evolve(rs, x0, 8.0)
    assert abs(a.u - b.u) < 1e-8 and abs(a.v - b.v) < 1e-8


def _mp_propagator(g: np.ndarray, tau: float) -> np.ndarray:
    """e^{-G' tau/2} by mpmath at 40 digits."""
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(g.tolist()) * (-mpmath.mpf(tau) / 2))
        return np.array(e.tolist(), dtype=complex)


@pytest.mark.parametrize("eta", [0.25, 0.2499, 0.2501])
def test_propagator_matches_mpmath_on_the_mollow_threshold(eta):
    # at eta = 1/4 an eigenvector basis has condition number ~6e7 and an
    # eigendecomposition route lands 4.6e-10 off
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(eta, 0.0))
    g = build_drift(rs)
    ref = _mp_propagator(g, 3.0)
    assert np.max(np.abs(_expm(-0.5 * 3.0, g) - ref)) <= 1e-14
    x0 = BlochVector(0.3, 0.1 - 0.2j)
    ueq = np.linalg.solve(g, np.array([0.0, eta, eta], dtype=complex))
    want = ueq + ref @ (x0.vector() - ueq)
    got = evolve(rs, x0, 3.0)
    assert abs(got.u - want[0]) <= 1e-14 and abs(got.v - want[1]) <= 1e-14


def test_propagator_matches_mpmath_on_random_drifts():
    rng = np.random.default_rng(7)
    for _ in range(20):
        _, g = _drift(random_scalars(rng), random_drive(rng))
        tau = rng.uniform(0.1, 20.0)
        assert np.max(np.abs(_expm(-0.5 * tau, g) - _mp_propagator(g, tau))) <= 1e-14


def test_propagator_matches_mpmath_under_strong_drive():
    # eta up to 60 and |ztilde| up to 50 put ||G' tau/2||_1 in the hundreds,
    # so the short tau runs the Pade approximant unscaled (k = 0) and the
    # long ones through many squarings
    rng = np.random.default_rng(31)
    for i in range(30):
        dc = DriveConfig(rng.uniform(0.0, 60.0), rng.uniform(-50.0, 50.0))
        _, g = _drift(random_scalars(rng), dc)
        tau = (1e-3, 0.3, rng.uniform(0.5, 40.0))[i % 3]
        assert np.max(np.abs(_expm(-0.5 * tau, g) - _mp_propagator(g, tau))) <= 3e-14


@pytest.mark.parametrize("tau", [-0.1, math.inf, math.nan])
def test_propagators_reject_negative_or_non_finite_tau(tau):
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(1.0, 0.0))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        evolve(rs, BlochVector(0.0, 0.0), tau)


def test_evolve_converges_where_the_scaled_drift_overflows():
    # -tau G'/2 overflows at tau = 1e307 (||G'||_1 ~ 80 at eta = 40), where
    # the halving count used to be ceil(inf); it is now counted in logarithms
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(40.0, 0.0))
    eq = equilibrium(rs)
    for tau in (1e307, 1.7e308):
        out = evolve(rs, BlochVector(0.0, 0.0), tau)
        assert abs(out.u - eq.u) <= 1e-12 and abs(out.v - eq.v) <= 1e-12


# The reference scalars driven on resonance: their coherence rates grow as
# eta^2, and from eta = 2e9 on the scaled Pade step holds the population's
# (0, 0) entry as exactly 1 (at 1e9, 4 ulps below it).
@pytest.mark.parametrize("eta", [2e9, 3e9, 1e17])
@pytest.mark.parametrize("tau", [0.5, 50.0])
def test_evolve_refuses_where_the_scaled_step_lost_the_population(fano_scalars, eta, tau):
    rs = reduced_scalars(fano_scalars, DriveConfig(eta, 0.0))
    with pytest.raises(ValueError, match="lost the population"):
        evolve(rs, BlochVector(0.0, 0.0), tau)


def test_evolve_below_the_refusal_matches_mpmath_at_60_digits(fano_scalars):
    rs = reduced_scalars(fano_scalars, DriveConfig(1e9, 0.0))
    with mpmath.workdps(60):  # from the ground state: ueq - e^{-G' tau/2} ueq
        ueq = mpmath.matrix(equilibrium(rs).vector().tolist())
        e = mpmath.expm(mpmath.matrix(build_drift(rs).tolist()) * -25)
        want = np.array((ueq - e * ueq).tolist(), dtype=complex)[:, 0]
    got = evolve(rs, BlochVector(0.0, 0.0), 50.0)
    assert abs(got.u - want[0]) <= 1e-15 and abs(got.v - want[1]) <= 1e-24


def test_expm_scales_c_alone_where_c_g_overflows():
    g = build_drift(reduced_scalars(MOLLOW_SCALARS, DriveConfig(40.0, 0.0)))
    c = -0.85e308
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.linalg.norm(c * g, 1))
    p = _expm(c, g)
    assert np.all(np.isfinite(p)) and np.max(np.abs(p)) <= 1e-300


def test_expm_of_a_vanishing_c_is_the_identity():
    # -tau/2 rounds to -0.0 at the smallest subnormal tau, where log2|c| is undefined
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(40.0, 0.0))
    assert np.array_equal(_expm(-0.5 * 5e-324, build_drift(rs)), np.eye(3))
    out = evolve(rs, BlochVector(0.3, 0.1 - 0.2j), 5e-324)
    assert abs(out.u - 0.3) <= 1e-15 and abs(out.v - (0.1 - 0.2j)) <= 1e-15


def test_bloch_vector_validation():
    with pytest.raises(ValueError):
        BlochVector(-0.1, 0.0)
    with pytest.raises(ValueError):
        BlochVector(1.2, 0.0)
    with pytest.raises(ValueError):
        BlochVector(0.1, 0.5)  # u < u^2 + |v|^2
    BlochVector(0.5, 0.5)  # pure superposition state sits on the boundary


def _mp_solve(m, b):
    """A 50-digit ``mpmath.lu_solve`` of m x = b, a column at a time, and cond_1(m)."""
    with mpmath.workdps(50):
        a = mpmath.matrix(m.tolist())
        cols = [mpmath.lu_solve(a, mpmath.matrix(c.tolist()))
                for c in np.reshape(b.T, (-1, len(m)))]
        x = np.array([[complex(v) for v in c] for c in cols]).T.reshape(b.shape)
        return x, float(mpmath.mnorm(a, 1) * mpmath.mnorm(a ** -1, 1))


def _assert_solved_as_mpmath(m, b):
    # partial pivoting's forward error: a few ulps times the condition number
    x = bloch._solve(m, b)
    assert x.shape == b.shape
    for i in np.ndindex(m.shape[:-2]):
        ref, cond = _mp_solve(m[i], b[i])
        err = np.max(np.abs(x[i] - ref)) / np.max(np.abs(ref))
        assert err <= 4 * len(ref) * np.finfo(float).eps * cond, (i, err, cond)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("rhs", [(), (2,)], ids=["vector", "matrix"])
@pytest.mark.parametrize("stack", [(), (5,)], ids=["single", "stacked"])
def test_solve_matches_mpmath_lu_solve(n, rhs, stack):
    rng = np.random.default_rng(3600 + n)
    m = rng.standard_normal(stack + (n, n)) + 1j * rng.standard_normal(stack + (n, n))
    b = rng.standard_normal(stack + (n,) + rhs) + 1j * rng.standard_normal(stack + (n,) + rhs)
    _assert_solved_as_mpmath(m, b)


def test_solve_swaps_rows_past_a_zero_leading_pivot():
    m = np.array([[0.0, 2.0, 1.0, 0.5], [3.0, 1.0, 0.0, 2.0],
                  [1.0, 0.0, 4.0, 1.0], [2.0, 1.0, 1.0, 0.0]])
    b = np.array([1.0, -2.0, 0.5, 3.0])
    _assert_solved_as_mpmath(m, b)
    _assert_solved_as_mpmath(np.stack([m, m.T]), np.stack([b, b[::-1]]))


def test_solve_at_condition_number_1e8():
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0 + 3e-7]])
    b = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    assert 1e7 <= _mp_solve(m, b)[1] <= 1e9
    _assert_solved_as_mpmath(m, b)


def test_solve_refuses_a_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        bloch._solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]))


def test_triple_product_determinant_matches_mpmath():
    rng = np.random.default_rng(3601)
    m = rng.standard_normal((20, 3, 3)) + 1j * rng.standard_normal((20, 3, 3))
    got = bloch._det3(m)
    assert got.shape == (20,)
    with mpmath.workdps(50):
        ref = np.array([complex(mpmath.det(mpmath.matrix(a.tolist()))) for a in m])
    # each error within a few ulps of the largest product the expansion sums
    scale = np.max(np.abs(m), axis=(-2, -1)) ** 3
    assert np.max(np.abs(got - ref) / scale) <= 16 * np.finfo(float).eps
