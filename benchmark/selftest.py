"""Self-tests of the oracles against textbook values.

Every benchmark run calls `run_selftests()` before it checks anything, and a run
whose oracles fail reports `correct: false`.  Standalone:

    python3 benchmark/selftest.py
"""

from __future__ import annotations

import sys
from fractions import Fraction

from mpmath import mp, mpf, mpc

import oracles as O

CURVE_11A1 = ((0, -1, 1, -10, -20), 11)
CURVE_37A1 = ((0, 0, 1, -1, 0), 37)


def _check(name, ok, failures):
    if not ok:
        failures.append(name)


def run_selftests() -> list[str]:
    """Names of the failed self-tests (empty when all pass)."""
    failures = []
    # a(n) of 11a1 = eta(z)^2 eta(11z)^2 (LMFDB 11.a2), and of 37a1 (LMFDB 37.a1)
    want_11 = [1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1, -2, 4, 4, -1, -4, -2, 4, 0, 2]
    _check("an-11a1", O.an_table(*CURVE_11A1, 20)[1:] == want_11, failures)
    _check("ap-37a1", [O.a_p(CURVE_37A1[0], p) for p in (2, 3, 5, 7, 11, 37)]
           == [-2, -3, -2, -1, -5, -1], failures)
    # Euler's product for eta against the pentagonal number theorem
    lead, eta = O.eta_quotient_coeffs([(1, 1)], 40)
    pent = [0] * 40
    for k in range(-6, 7):
        e = k * (3 * k - 1) // 2
        if e < 40:
            pent[e] = (-1) ** (k % 2)
    _check("eta-pentagonal", lead == Fraction(1, 24) and eta == pent, failures)
    # eta(z)^2 eta(11z)^2 is the newform of 11a1
    lead, f11 = O.eta_quotient_coeffs([(1, 2), (11, 2)], 30)
    _check("eta-11a1", lead == 1 and f11 == O.an_table(*CURVE_11A1, 30)[1:], failures)
    # E2 = 1 - 24 q - 72 q^2 - 96 q^3 - 168 q^4 - 144 q^5, and E2(i) = 3/pi
    _check("e2-coeffs", O.e2_coeffs(5) == [1, -24, -72, -96, -168, -144], failures)
    with mp.workdps(50):
        _check("e2-at-i", abs(O.e2_at(mpc(0, 1)) - 3 / mp.pi) < mpf(10) ** -45, failures)
    # wp Laurent coefficients c_4 = g2^2/1200 and c_5 = 3 g2 g3/6160
    g2, g3 = Fraction(7), Fraction(5)
    gs = O.weierstrass_g(g2, g3, 10)
    _check("wp-laurent", gs[8] * 7 == g2 ** 2 / 1200 and gs[10] * 9 == 3 * g2 * g3 / 6160, failures)
    # F^inf at level 11 (the paper's 1, 1/5, 3/5, 4/5, 7/5, 6/5, 12/5) and at level 27
    want_f11 = [Fraction(x, 5) for x in (5, 1, 3, 4, 7, 6, 12)]
    _check("finf-11", O.f_infinity_coeffs(11, 6) == want_f11, failures)
    _check("finf-27", O.f_infinity_weights(27) == {1: 0, 3: 0, 9: Fraction(-1, 8),
                                                    27: Fraction(9, 8)}, failures)
    # AGM periods of 11a1 (Cremona, Algorithms for Modular Elliptic Curves, Table 4):
    # omega1 = 1.26920930427955, Im omega2 = 1.45881661693850
    c11 = O.CurveOracle(*CURVE_11A1, digits=40)
    _check("periods-11a1", abs(c11.omega1 - mpf("1.26920930427955")) < 1e-13
           and abs(c11.omega2.imag - mpf("1.45881661693850")) < 1e-13, failures)
    # Legendre relation omega1 eta2 - omega2 eta1 = -2 pi i, with eta2 from E2 at -1/tau
    with mp.workdps(60):
        eta2 = mp.pi ** 2 / 3 * O.e2_at(-c11.omega1 / c11.omega2) / c11.omega2
        resid = abs(c11.omega1 * eta2 - c11.omega2 * c11.eta1 + 2 * mp.pi * mpc(0, 1))
    _check("legendre-11a1", resid < mpf(10) ** -35, failures)
    # the paper's S(Lambda) and Zhat^+ of 11a1
    s_ref, s_tol = O.PAPER_S_11A1
    _check("s-11a1", abs(c11.s - mpf(s_ref)) <= mpf(s_tol), failures)
    z = c11.zhat(5)
    _check("zhat-11a1", all(abs(z[n + 1] - mpf(v)) <= mpf(O.PAPER_ZHAT_11A1_TOL)
                            for n, v in enumerate(O.PAPER_ZHAT_11A1)), failures)
    # the Cesaro direct sum vanishes identically when the supports are disjoint
    import numpy as np
    a = np.zeros(64, dtype=np.int64)
    a[1::3] = 1
    _check("cesaro-zero", O.cesaro_direct(a, 1, 40) == (0.0, 0.0), failures)
    return failures


if __name__ == "__main__":
    bad = run_selftests()
    print("oracle self-tests:", "all passed" if not bad else "FAILED " + ", ".join(bad))
    sys.exit(1 if bad else 0)
