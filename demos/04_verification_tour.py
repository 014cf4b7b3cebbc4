"""A tour of the verification layer.

Every closed form in the library has an independent numerical
counterpart.  This script runs the full check suite, then walks two of
the oracles explicitly: the spectral sum rules under composite
Gauss-Legendre quadrature (8- and 16-node panel pairs on the tan-mapped
line, halving the panels where the pair disagrees), and the
finite-width-beam photon balance whose equilibrium converges to the
collimated closed form as the beam narrows.

Run:  python demos/04_verification_tour.py
"""

import math

from qsatom import (DriveConfig, PhaseShiftTable, equilibrium,
                    finite_beam_balance, finite_beam_equilibrium,
                    quad_sum_rules, reduced_scalars, run_verification,
                    scalars_from_phase_shifts)

TABLE = PhaseShiftTable(delta_plus=[-0.03, 0.0, 0.0633],
                        delta_minus=[0.13, 0.0, 0.0])


def main():
    print("== full check suite ==")
    checks = run_verification(TABLE)
    width = max(len(c.name) for c in checks) + 2
    for c in checks:
        print(f"  {c.name.ljust(width)} tol {c.tolerance:8.1e}   "
              f"residual {c.residual:9.3e}   {'PASS' if c.passed else 'FAIL'}")

    print("\n== spectral sum rules, spelled out ==")
    sc = scalars_from_phase_shifts(TABLE)
    dc = DriveConfig(math.sqrt(18.0), 1.5, 0.6)
    report = quad_sum_rules(sc, dc)
    print(f"  integral of the inelastic spectrum: {report.inel_quadrature:.12f}")
    print(f"  closed-form inelastic cross section: {report.inel_closed:.12f}")
    print(f"  integral of the total spectrum:      {report.tot_quadrature:.12f}")
    print(f"  closed-form total cross section:     {report.tot_closed:.12f}")
    print(f"  relative gaps: {report.inel_rel_gap:.2e}, {report.tot_rel_gap:.2e} "
          f"(quadrature converged: {report.quad_converged})")

    print("\n== finite-beam photon balance ==")
    # the balance identity (outgoing flux equals ingoing flux at
    # equilibrium) holds at every beam width; the residual is numerics
    dc = DriveConfig(2.0, 0.5)
    rs = reduced_scalars(scalars_from_phase_shifts(TABLE), dc)
    u_limit = equilibrium(rs).u
    print("  half-angle   balance residual   excited population   (collimated limit "
          f"{u_limit:.8f})")
    for dtheta in (0.2, 0.1, 0.05, 0.01):
        residual = finite_beam_balance(TABLE, dc, dtheta)
        u = finite_beam_equilibrium(TABLE, dc, dtheta)[0, 0].real
        print(f"  {dtheta:9.2f}   {residual:16.3e}   {u:.8f}")


if __name__ == "__main__":
    main()
