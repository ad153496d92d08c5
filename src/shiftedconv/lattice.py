"""Period lattices: AGM periods, quasi-periods, and S(Lambda)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf, mpc

from .config import memo
from .curves import EllipticCurveModel
from .newform import _divisor_sums


class LatticeError(ArithmeticError):
    """Numerical failure while constructing lattice data."""


@dataclass(frozen=True)
class Lattice:
    """Generators with Im(omega2/omega1) > 0, reduced so omega1 is a shortest vector, the
    covolume, the quasi-periods eta_i = 2 zeta(omega_i / 2) and S(Lambda)."""

    omega1: mpc
    omega2: mpc
    tau: mpc
    volume: mpf
    eta1: mpc
    eta2: mpc
    s_lambda: mpc


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
    of `build_lattice`.
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


@memo
def build_lattice(model: EllipticCurveModel, digits: int) -> Lattice:
    """The period lattice of the invariant differential, its quasi-periods and S(Lambda).

    Periods by the AGM at digits + 20: a rectangular lattice from the three real
    2-division values when the discriminant is > 0; else one real 2-division value e1,
    the complex-conjugate pair entering through A = |e1 - e2|.  Reproducing g2 and g3
    from E4 and E6 certifies the AGM branch.  Then, at digits + 15,
    eta(omega) = (pi^2/3) E2(omega'/omega) / omega for an oriented basis (omega, omega'):
    eta1 from (omega1, omega2) at tau, eta2 from (omega2, -omega1) at -1/tau, checked by
    the Legendre relation; S from eta1 = S omega1 + (pi/vol) conj(omega1), cross-checked
    on omega2.  A failed check raises LatticeError.
    """
    if digits < 30:
        raise ValueError("digits must be >= 30")
    g2q, g3q = model.short_invariants()
    with mp.workdps(digits + 20):
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
        # G_4 = 2 zeta(4) E4(tau) / omega1^4, G_6 = 2 zeta(6) E6(tau) / omega1^6
        g4 = mp.pi ** 4 / 45 * _e_k(4, tau) / omega1 ** 4
        g6 = 2 * mp.pi ** 6 / 945 * _e_k(6, tau) / omega1 ** 6
        err = max(abs(60 * g4 - g2), abs(140 * g6 - g3)) / max(abs(g2), abs(g3), mpf(1))
        if err > mpf(10) ** (-(digits + 5)):
            raise LatticeError(f"{model.label}: lattice fails to reproduce g2/g3 (rel err {err})")
    with mp.workdps(digits + 15):
        c = mp.pi ** 2 / 3
        eta1 = c * _e_k(2, tau) / omega1
        eta2 = c * _e_k(2, -1 / tau) / omega2
        resid = abs(omega1 * eta2 - omega2 * eta1 + 2 * mp.pi * mpc(0, 1))
        if resid > mpf(10) ** (-(digits - 10)):
            raise LatticeError(f"Legendre relation residual too large: {resid}")
        c = mp.pi / volume
        s = (eta1 - c * mp.conj(omega1)) / omega1
        resid = abs(eta2 - (s * omega2 + c * mp.conj(omega2)))
        if resid > mpf(10) ** (-(digits - 12)) * (1 + abs(eta2)):
            raise LatticeError(f"quasi-period relations inconsistent: {resid}")
    return Lattice(omega1, omega2, tau, volume, eta1, eta2, s)
