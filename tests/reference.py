"""A high-precision reference from the model's own master equation, in mpmath.

A point given by its scattering scalars is realised as a two-level master
equation (states 0 = excited, 1 = ground, rho column-stacked) with three
parts: channel 0 from delta0_plus and delta0_minus, one dephasing channel
eta sqrt(norm2_pdg) / 2 diag(-1, 1), and the lamp shift as the detuning
ztilde - eta^2 eps_r in H.  The stationary state is solved once, with the
unit-trace row, and the inelastic spectrum follows from the quantum
regression theorem,

    Sigma_inel(x) = sum_l Re Tr[R_l^dag ((gammatilde/2 + ix) - L)^-1
                                (R_l rho - Tr(R_l rho) rho)] / (pi eta^2).

It shares no formula with the closed forms: from qsatom it takes only the
input dataclass.  The work is at 50 digits plus about the decimal exponents
of |x| and |ztilde|.
"""

import mpmath

from qsatom import ScatteringScalars


def _exponent(value: float) -> int:
    """About the decimal exponent of |value|, 0 below 1."""
    return max(0, int(mpmath.log10(abs(value))) + 1) if value else 0


def _kron(a, b):
    return mpmath.matrix([[a[i // 2, j // 2] * b[i % 2, j % 2] for j in range(4)]
                          for i in range(4)])


def _vec(m):
    return mpmath.matrix([m[0, 0], m[1, 0], m[0, 1], m[1, 1]])


def _unvec(c):
    return mpmath.matrix([[c[0], c[2]], [c[1], c[3]]])


def _trace(m):
    return m[0, 0] + m[1, 1]


def scalars_reference(sc: ScatteringScalars, eta: float, ztilde: float, gammatilde: float, xs):
    """(u, v, [Sigma_inel(x) for x in xs]) at the drive (eta, ztilde, gammatilde),
    with u = rho_00 and v = rho_01 of the stationary state, as mpmath numbers."""
    with mpmath.workdps(50 + _exponent(ztilde) + max(map(_exponent, xs), default=0)):
        eta, eye = mpmath.mpf(eta), mpmath.eye(2)
        plus, minus = (mpmath.expj(2 * mpmath.mpf(d))
                       for d in (sc.delta0_plus, sc.delta0_minus))
        channels = [mpmath.matrix([[eta * plus / 2, 0], [-minus, eta * minus / 2]]),
                    eta * mpmath.sqrt(sc.norm2_pdg) / 2 * mpmath.diag([-1, 1])]
        detuning = mpmath.mpf(ztilde) - eta ** 2 * mpmath.mpf(sc.eps_r)
        h = mpmath.matrix([[-detuning / 2, 1j * eta / 4], [-1j * eta / 4, detuning / 2]])
        gen = -1j * (_kron(eye, h) - _kron(h.T, eye))
        for r in channels:
            rdr = r.H * r
            gen += _kron(r.conjugate(), r) - (_kron(eye, rdr) + _kron(rdr.T, eye)) / 2
        trace_row = gen.copy()
        for j, value in enumerate((1, 0, 0, 1)):  # Tr rho = 1 replaces the redundant row 0
            trace_row[0, j] = value
        rho = _unvec(mpmath.lu_solve(trace_row, mpmath.matrix([1, 0, 0, 0])))
        spectrum = []
        for x in xs:
            shifted = (mpmath.mpf(gammatilde) / 2 + 1j * mpmath.mpf(x)) * mpmath.eye(4) - gen
            total = 0
            for r in channels:
                y = _unvec(mpmath.lu_solve(shifted, _vec(r * rho - _trace(r * rho) * rho)))
                total += mpmath.re(_trace(r.H * y))
            spectrum.append(total / (mpmath.pi * eta ** 2))
        return mpmath.re(rho[0, 0]), rho[0, 1], spectrum
