"""Period lattices: AGM periods, quasi-periods, and S(Lambda)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf, mpc

from .config import memo
from .curves import EllipticCurveModel


class LatticeError(ArithmeticError):
    """Numerical failure while constructing lattice data."""


@dataclass
class Lattice:
    """Generators with Im(omega2/omega1) > 0, reduced so omega1 is a shortest vector."""

    omega1: mpc
    omega2: mpc
    tau: mpc
    volume: mpf
    eta1: mpc = None
    eta2: mpc = None
    s_lambda: mpc = None
    precision_digits: int = 0


def _reduce_basis(omega1, omega2):
    """Gauss-reduce so that |Re tau| <= 1/2 and |tau| >= 1 (then omega1 is shortest)."""
    for _ in range(200):
        tau = omega2 / omega1
        m = mp.nint(tau.real)
        if m != 0:
            omega2 = omega2 - int(m) * omega1
            tau = omega2 / omega1
        if abs(tau) < 1 - mpf(10) ** (-mp.dps + 8):
            omega1, omega2 = omega2, -omega1
        else:
            break
    else:
        raise LatticeError("basis reduction did not terminate")
    if (omega2 / omega1).imag <= 0:
        raise LatticeError("orientation lost during reduction")
    return omega1, omega2


_NEWTON_STEPS = 40


def _two_division_values(g2, g3, three_real: bool) -> tuple:
    """The real roots of 4x^3 - g2 x - g3 at the working precision: (e1, e2, e3) in
    descending order when all three are real, else (e1,), the one real root.

    e1 comes from Newton's iteration, started at the double-precision root of the
    depressed cubic x^3 + a x + b, a = -g2/4, b = -g3/4: the largest root of the
    trigonometric form for three real roots, Cardano's formula for one.  The iteration
    stops once a step is below 2^(-prec/2) times the size of the roots, past which the
    error squares away.  e2 and e3 are the roots (-e1 +- sqrt(g2 - 3 e1^2))/2 of the
    quadratic factor 4x^2 + 4 e1 x + 4 e1^2 - g2.  A wrong root fails the g2/g3 check
    of `compute_periods`.
    """
    a, b = -float(g2) / 4, -float(g3) / 4
    if three_real:
        r = math.sqrt(-a / 3)
        x = 2 * r * math.cos(math.acos(max(-1.0, min(1.0, 3 * b / (2 * a * r)))) / 3)
    else:
        w = -b / 2 - math.copysign(math.sqrt(b * b / 4 + a ** 3 / 27), b)
        u = math.copysign(abs(w) ** (1 / 3), w)
        x = u - a / (3 * u)
    e1, tol = mpf(x), mp.ldexp(abs(x) + math.sqrt(abs(float(g2))), -(mp.prec // 2))
    for _ in range(_NEWTON_STEPS):
        step = (4 * e1 ** 3 - g2 * e1 - g3) / (12 * e1 * e1 - g2)
        e1 -= step
        if abs(step) <= tol:
            break
    else:
        raise LatticeError("Newton's iteration for the real 2-division value did not converge")
    if not three_real:
        return (e1,)
    s = mp.sqrt(g2 - 3 * e1 * e1)
    return e1, (s - e1) / 2, -(s + e1) / 2


def compute_periods(model: EllipticCurveModel, precision_digits: int) -> Lattice:
    """Period lattice of the invariant differential, by the AGM.

    Discriminant > 0: rectangular lattice from the three real 2-division values.
    Discriminant < 0: one real 2-division value; the complex-conjugate pair enters
    through A = |e1 - e2|.  The result is validated downstream by reproducing g2, g3.
    """
    if precision_digits < 30:
        raise ValueError("precision_digits must be >= 30")
    g2q, g3q = model.short_invariants()
    with mp.workdps(precision_digits + 20):
        g2 = mpf(g2q.numerator) / g2q.denominator
        g3 = mpf(g3q.numerator) / g3q.denominator
        if model.discriminant > 0:
            e1, e2, e3 = _two_division_values(g2, g3, True)
            omega1 = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            omega2 = mp.pi * mpc(0, 1) / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
        else:
            (e1,) = _two_division_values(g2, g3, False)
            a = mp.sqrt(3 * e1 * e1 - g2 / 4)
            omega1 = 2 * mp.pi / mp.agm(2 * mp.sqrt(a), mp.sqrt(2 * a + 3 * e1))
            omega2 = omega1 / 2 + mp.pi * mpc(0, 1) / mp.agm(2 * mp.sqrt(a), mp.sqrt(2 * a - 3 * e1))
        omega1, omega2 = _reduce_basis(mpc(omega1), mpc(omega2))
        tau = omega2 / omega1
        volume = abs((mp.conj(omega1) * omega2).imag)
        lat = Lattice(omega1, omega2, tau, volume, precision_digits=precision_digits)
        # reproducing the short Weierstrass invariants certifies the AGM branch:
        # G_4 = 2 zeta(4) E4(tau) / omega1^4, G_6 = 2 zeta(6) E6(tau) / omega1^6
        g4 = mp.pi ** 4 / 45 * _e_k(4, tau) / omega1 ** 4
        g6 = 2 * mp.pi ** 6 / 945 * _e_k(6, tau) / omega1 ** 6
        err = max(abs(60 * g4 - g2), abs(140 * g6 - g3)) / max(abs(g2), abs(g3), mpf(1))
        if err > mpf(10) ** (-(precision_digits + 5)):
            raise LatticeError(f"{model.label}: lattice fails to reproduce g2/g3 (rel err {err})")
    return lat


_E_K_CONSTANT = {2: -24, 4: 240, 6: -504}
_GUARD_BITS = 20  # fixed-point bits below the working precision in the E_k sums


def _term_count(k: int, log_q: float, dps: int) -> int:
    """The smallest M with (M+1)^k |q|^(M+1) / (1 - |q| ((M+2)/(M+1))^k) < 10^-(dps+5),
    log_q = log |q|.

    As sigma_(k-1)(n) <= n^k and the ratio of n^k |q|^n to its predecessor falls with n,
    that quotient bounds the terms past M of sum sigma_(k-1)(n) q^n by a geometric series.
    More than 10 dps + 100 terms raise LatticeError.
    """
    target = -(dps + 5) * math.log(10)
    for m in range(1, 10 * dps + 101):
        ratio = log_q + k * math.log((m + 2) / (m + 1))
        if ratio < 0 and k * math.log(m + 1) + (m + 1) * log_q - math.log(-math.expm1(ratio)) < target:
            return m
    raise LatticeError(f"E{k} q-series needs more than {10 * dps + 100} terms (log|q| = {log_q:.3g})")


def _divisor_sums(n_max: int, j: int) -> list:
    """[sigma_j(0) = 0, sigma_j(1), ..., sigma_j(n_max)] from one divisor sieve."""
    sums = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        power = d ** j
        for m in range(d, n_max + 1, d):
            sums[m] += power
    return sums


def _e_k(k, tau):
    """E_k(tau) = 1 + C_k sum_(n <= M) sigma_(k-1)(n) q^n, q = e^(2 pi i tau), for k = 2, 4, 6.

    C_k = -24, 240, -504, and M is `_term_count`'s, so the terms left out add up to less
    than 10^-(dps+5).  The sum runs by Horner's scheme on Gaussian integers scaled by 2^B,
    B = prec + 20.  Each of the M steps, and q itself, is truncated by less than a unit
    2^-B per part, so to first order the sum is off by at most
    sqrt(2) sum_n (1 + n^(k+1)) |q|^(n-1) units: under 4 at the ten curves, where |q| < 0.03.
    """
    q = mp.expjpi(2 * tau)
    sigma = _divisor_sums(_term_count(k, -2 * math.pi * float(tau.imag), mp.dps), k - 1)
    bits = mp.prec + _GUARD_BITS
    qr, qi = int(mp.ldexp(q.real, bits)), int(mp.ldexp(q.imag, bits))
    re = im = 0
    for s in reversed(sigma[1:]):
        re += s << bits
        re, im = (re * qr - im * qi) >> bits, (re * qi + im * qr) >> bits
    return 1 + _E_K_CONSTANT[k] * mpc(mp.ldexp(re, -bits), mp.ldexp(im, -bits))


def quasi_periods(lat: Lattice) -> tuple:
    """eta_i = 2 zeta(omega_i / 2) from E2, with the Legendre relation enforced as a check.

    eta(omega) = (pi^2/3) E2(omega'/omega) / omega for an oriented basis (omega, omega'):
    eta1 from the basis (omega1, omega2) at tau, eta2 from (omega2, -omega1) at -1/tau.
    """
    with mp.workdps(lat.precision_digits + 15):
        c = mp.pi ** 2 / 3
        eta1 = c * _e_k(2, lat.tau) / lat.omega1
        eta2 = c * _e_k(2, -1 / lat.tau) / lat.omega2
        resid = abs(lat.omega1 * eta2 - lat.omega2 * eta1 + 2 * mp.pi * mpc(0, 1))
        if resid > mpf(10) ** (-(lat.precision_digits - 10)):
            raise LatticeError(f"Legendre relation residual too large: {resid}")
    lat.eta1, lat.eta2 = eta1, eta2
    return eta1, eta2


def s_lambda(lat: Lattice):
    """S(Lambda) from eta_1 = S omega_1 + (pi/vol) conj(omega_1); cross-checked on omega_2."""
    if lat.eta1 is None:
        quasi_periods(lat)
    with mp.workdps(lat.precision_digits + 15):
        c = mp.pi / lat.volume
        s = (lat.eta1 - c * mp.conj(lat.omega1)) / lat.omega1
        resid = abs(lat.eta2 - (s * lat.omega2 + c * mp.conj(lat.omega2)))
        if resid > mpf(10) ** (-(lat.precision_digits - 12)) * (1 + abs(lat.eta2)):
            raise LatticeError(f"quasi-period relations inconsistent: {resid}")
    lat.s_lambda = s
    return s


@memo
def build_lattice(model: EllipticCurveModel, precision_digits: int) -> Lattice:
    """Fully populated Lattice (periods, volume, quasi-periods, S), cached."""
    lat = compute_periods(model, precision_digits)
    quasi_periods(lat)
    s_lambda(lat)
    return lat

