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
one state.  Its propagator is a numpy [13/13] Pade scaling and squaring
whose one halving count, taken in logarithms, also covers a -tau G'/2
that overflows; no physics layer imports or calls scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ReducedScalars, _any, _cos, _modulus, _sq

_STATE_TOL = 1e-9
# Pade [13/13] b_j = (2m-j)! m! / ((2m)! j! (m-j)!), m = 13, and theta_13, the largest
# 1-norm it holds to double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005))
_PADE13 = [math.comb(13, j) * math.factorial(26 - j) / math.factorial(26) for j in range(14)]
_THETA13 = 5.371920351148152


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


def char_poly(m: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients [1, c2, c1, c0] of G'."""
    tr = np.trace(m)
    minors = (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
              + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
              + m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    det = np.linalg.det(m)
    return np.array([1.0, -tr, minors, -det], dtype=complex)


def cubic_discriminant(coeffs: np.ndarray) -> float:
    """Discriminant of a real cubic a x^3 + b x^2 + c x + d.

    Positive iff the three roots are real and distinct; the sign change
    marks the onset of a complex eigenvalue pair of the drift matrix.
    """
    if any(abs(complex(t).imag) > 1e-9 for t in coeffs):
        raise ValueError("discriminant is defined here for real coefficients")
    a, b, c, d = (float(np.real(t)) for t in coeffs)
    return (18.0 * a * b * c * d - 4.0 * b ** 3 * d + b ** 2 * c ** 2
            - 4.0 * a * c ** 3 - 27.0 * a ** 2 * d ** 2)


def _expm(c: float, g: np.ndarray) -> np.ndarray:
    """e^(c g) by [13/13] Pade scaling and squaring (Higham 2005; Moler and Van Loan,
    SIAM Rev. 45, 3 (2003)): r(c g / 2^k)^(2^k), k the fewest halvings to
    ||c g||_1 <= theta_13.  k is counted in logarithms and the halvings fall on c
    alone, so a product c g that overflows is never formed."""
    norm = np.linalg.norm(g, 1)
    k = max(0, math.ceil(math.log2(abs(c)) + math.log2(norm / _THETA13))) if c else 0
    a = math.ldexp(c, -k) * g
    b, eye, a2 = _PADE13, np.eye(len(a)), a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    if k and r[0, 0].real == 1.0:  # a decay rounded away: squarings cannot restore it
        raise ValueError("drive too strong: the scaled propagator step lost the population")
    for _ in range(k):
        r = r @ r
    return r


def evolve(rs: ReducedScalars, x0: BlochVector, tau: float) -> BlochVector:
    """Propagate a state forward by reduced time tau under the G' of ``rs``.

    Uses the exact affine solution u(tau) = u_eq + e^{-G' tau/2}(u_0 - u_eq)
    with u_eq the closed-form stationary state of :func:`equilibrium`.
    The propagator is :func:`_expm` of (-tau/2, G'), accurate also where G'
    is defective (the Mollow triplet threshold) and finite for every finite
    tau.  Raises ValueError for a negative or non-finite ``tau``, and where the
    drive is too strong for its scaled step (at norm2_dg ~0.05, from eta ~2e9 on).
    """
    if not math.isfinite(tau) or tau < 0:
        raise ValueError("tau must be finite and nonnegative")
    if tau == 0:
        return x0
    g = build_drift(rs)
    ueq = equilibrium(rs).vector()
    out = ueq + _expm(-0.5 * tau, g) @ (x0.vector() - ueq)
    return BlochVector(float(out[0].real), complex(out[1]))
