"""Reduced-state dynamics: drift matrix, time evolution, equilibrium.

The 2x2 atomic state is parameterized by the excited-state population u
and the coherence v; dynamics close on the 3-vector (u, v, conj(v)).
In reduced time tau (natural-line-width units) the state obeys

    d/dtau (u, v, v_bar) = -(G'/2) (u, v, v_bar) + (0, eta/2, eta/2),

with the 3x3 complex drift matrix G' built here.  The stated factor of
one half is kept inside :func:`evolve` so the stored matrix is directly
comparable entry by entry with the closed forms used elsewhere.

:func:`build_drift` and :func:`equilibrium` take the reduced scalars
alone, which carry the eta and s they were dressed with; the stationary
state is a plain :class:`BlochVector`, and :func:`evolve` relaxes to that
one state.  Its propagator is Putzer's formula on the three poles of G', the roots of
the real cubic :func:`char_poly`.  The package's small linear algebra (:func:`_mul`,
:func:`_det3`, :func:`_solve`) is here, in numpy's own loops: no BLAS, LAPACK or scipy call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ReducedScalars, _any, _cos, _modulus, _sq

_STATE_TOL = 1e-9


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for (stacked) small matrices, in numpy's own einsum loop."""
    return np.einsum("...ij,...jk->...ik", a, b)


def _det3(m: np.ndarray) -> np.ndarray:
    """Determinant of a (stacked) 3x3 matrix: the triple product m0 . (m1 x m2) of its rows."""
    return np.sum(m[..., 0, :] * np.cross(m[..., 1, :], m[..., 2, :]), axis=-1)


def _solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with m x = b for (stacked) small systems, b a vector or matrix (stack) with m's
    leading dimensions: Gauss-Jordan elimination with partial pivoting on [m | b]
    (Higham, Accuracy and Stability, 2nd ed., sec. 14.4); ValueError if m is singular."""
    vector, n = np.ndim(b) == np.ndim(m) - 1, m.shape[-1]
    ab = np.concatenate([m, b[..., None] if vector else b], axis=-1, dtype=complex)
    ab = ab.reshape(-1, n, ab.shape[-1])  # a stack of [m | b]
    stack, off_diagonal = np.arange(len(ab)), ~np.eye(n, dtype=bool)
    for k in range(n):
        p = np.abs(ab[:, k:, k]).argmax(axis=1) + k
        ab[stack, p], ab[:, k] = ab[:, k], ab[stack, p]  # swap rows k and p
        if not ab[:, k, k].all():
            raise ValueError("singular matrix")
        ab[:, k] /= ab[:, k, k, None]
        ab -= off_diagonal[:, k, None] * ab[:, :, k, None] * ab[:, k, None]
    return ab[:, :, n:].reshape(np.shape(b))


@dataclass(frozen=True)
class BlochVector:
    """State-valued (u, v) pair (or columns of them); the redundant conjugate
    component is implicit.  Valid states satisfy 0 <= u <= 1 and u >= u^2 + |v|^2."""

    u: float
    v: complex

    def __post_init__(self):
        u, v = self.u, self.v if isinstance(self.v, np.ndarray) else complex(self.v)
        if _any(~(np.isfinite(u) & np.isfinite(v))):
            raise ValueError("Bloch components must be finite")
        if _any((u < -_STATE_TOL) | (u > 1.0 + _STATE_TOL)):
            raise ValueError(f"population out of range: u = {u}")
        if _any(u + _STATE_TOL < u * u + _sq(_modulus(v))):
            raise ValueError("not a statistical operator: u < u^2 + |v|^2")
        object.__setattr__(self, "v", v)

    def vector(self) -> np.ndarray:
        """(u, v, conj v) as a complex 3-vector, or an (n, 3) stack."""
        return np.stack([self.u, self.v, np.conj(self.v)], axis=-1).astype(complex)


def build_drift(rs: ReducedScalars) -> np.ndarray:
    """Read-only 3x3 complex drift matrix G' of the reduced scalars (a stack
    of them for columns), with the closure structure G'23 = G'32 = 0,
    G'33 = conj(G'22), G'31 = conj(G'21).  Raises ValueError when an entry
    is not finite (a kappa2 that overflowed)."""
    eta = rs.eta
    eis = np.exp(1j * rs.s)
    cs = _cos(rs.s)
    entries = np.broadcast_arrays(2.0, -eta, -eta,
                                  2.0 * eta * eis * cs, rs.bprime, 0.0,
                                  2.0 * eta * np.conj(eis) * cs, 0.0, np.conj(rs.bprime))
    m = np.stack(entries, axis=-1).astype(complex).reshape(np.shape(eis) + (3, 3))
    if not np.all(np.isfinite(m)):
        raise ValueError("drift matrix entries must be finite")
    m.setflags(write=False)
    return m


def equilibrium(rs: ReducedScalars) -> BlochVector:
    """Closed-form stationary state (columns of states for columns of ``rs``).

    u_inf = eta^2 kappa^2 / (z^2 + zeta^2),
    v_inf = eta (kappa^2 + i y) / (z^2 + zeta^2);
    the denominator never vanishes since zeta^2 >= 1; v_inf divides its
    parts apart, as CPython divides a complex by a float and numpy does not.
    """
    return BlochVector(rs.eta2 * rs.kappa2 / rs.den,
                       rs.eta * rs.kappa2 / rs.den + 1j * (rs.eta * rs.y / rs.den))


def char_poly(rs: ReducedScalars) -> np.ndarray:
    """Real coefficients [1, -t, m, -d] of G''s characteristic polynomial, in closed form:
    t = 2 + 2 kappa2, m = kappa4 + w^2 + 4 kappa2 + 4 eta^2 cos^2 s and d = 2 den (swapping
    v and conj v maps G' onto its conjugate, so all three are real)."""
    t = 2.0 + 2.0 * rs.kappa2
    m = rs.kappa4 + _sq(rs.w) + 4.0 * rs.kappa2 + 4.0 * rs.eta2 * _sq(_cos(rs.s))
    return np.array([1.0, -t, m, -2.0 * rs.den])


def cubic_discriminant(coeffs: np.ndarray) -> float:
    """Discriminant of a real cubic a x^3 + b x^2 + c x + d: positive iff the three roots
    are real and distinct, so its sign change marks the onset of a complex pair of poles."""
    a, b, c, d = map(float, coeffs)
    return (18.0 * a * b * c * d - 4.0 * b ** 3 * d + b ** 2 * c ** 2
            - 4.0 * a * c ** 3 - 27.0 * a ** 2 * d ** 2)


def _drift_poles(rs: ReducedScalars) -> tuple[complex, complex, complex]:
    """The poles of G', the roots of :func:`char_poly`: a real one r by bisection on [0, t],
    where p(0) = -d < 0 < p(t) = t m - d (Routh-Hurwitz), and two from their sum t - r and
    product d / r: the roots of a cubic within p's rounding, ~sqrt(eps) at a double root."""
    t, m, d = (char_poly(rs)[1:] * [-1.0, 1.0, -1.0]).tolist()
    lo, hi = 0.0, t
    while lo < (r := 0.5 * (lo + hi)) < hi:
        lo, hi = (r, hi) if ((r - t) * r + m) * r < d else (lo, r)
    r = min((lo, hi), key=lambda x: abs(((x - t) * x + m) * x - d))  # the smaller residual
    half, prod = 0.5 * (t - r), d / r
    big = half + np.sqrt(complex(half * half - prod))  # no cancellation: half > 0, Re sqrt >= 0
    return complex(r), complex(big), complex(prod / big)


def _propagator(rs: ReducedScalars, tau: float) -> np.ndarray:
    """e^{c G'}, c = -tau/2, by Putzer's formula f[l1] + f[l1,l2] (G' - l1) + f[l1,l2,l3]
    (G' - l1)(G' - l2), f = e^{c x}, on the real pole l1 and l2 the nearer of the other two
    (McCurdy, Ng and Parlett, Math. Comp. 43, 501 (1984)); c multiplies scalars alone."""
    c, (l1, *pair) = -0.5 * min(tau, 1500.0), _drift_poles(rs)  # e^{-750 l} = 0: Re l >= 1
    l2, l3 = sorted(pair, key=lambda lam: abs(lam - l1))

    def first(a: complex, b: complex) -> complex:  # f[a, b] by (e^z - 1) / z, with |e^z| <= 1
        a, b = sorted((a, b), key=lambda lam: lam.real)
        return c * np.exp(c * a) * (complex(np.expm1(z)) / z if (z := c * (b - a)) else 1.0)

    f12 = first(l1, l2)
    if abs(y := c * (l3 - l1)) < 1.0:  # |x| <= |y|: e^z's [0, x, y] = sum h_k(x, y) / (k + 2)!
        series, h, x = 0.0, 1.0, c * (l2 - l1)
        for n in range(2, 23):
            series, h = series + h / math.factorial(n), y * h + x ** (n - 1)
        second = c * (c * np.exp(c * l1) * series)
    else:
        second = (first(l2, l3) - f12) / (l3 - l1)
    a1 = build_drift(rs) - l1 * (eye := np.eye(3))
    return np.exp(c * l1) * eye + f12 * a1 + second * _mul(a1, a1 + (l1 - l2) * eye)


def evolve(rs: ReducedScalars, x0: BlochVector, tau: float) -> BlochVector:
    """Propagate a state forward by reduced time tau under the G' of ``rs``: the exact
    u(tau) = u_eq + e^{-G' tau/2}(u_0 - u_eq), u_eq the closed-form stationary state of
    :func:`equilibrium`, by :func:`_propagator`, whose e^{-l tau/2} are exact at any drive,
    and which holds where G' is defective (the Mollow triplet threshold) and for every
    finite tau.  Raises ValueError for a negative or non-finite ``tau``."""
    if not math.isfinite(tau) or tau < 0:
        raise ValueError("tau must be finite and nonnegative")
    if tau == 0:
        return x0
    ueq = equilibrium(rs).vector()
    out = ueq + _mul(_propagator(rs, tau), (x0.vector() - ueq)[:, None])[:, 0]
    return BlochVector(float(out[0].real), complex(out[1]))
