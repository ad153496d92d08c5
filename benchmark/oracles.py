"""Independent oracles for the benchmark's output checks.

Nothing here imports shiftedconv: each object is computed by a route of its own,
so a fault in the package cannot hide by agreeing with itself.

- a_p by counting the points of the reduction pair by pair; a(n) from those by
  the Hecke recursion and multiplicativity
- Weierstrass G_2k as exact rationals in g2, g3 from the Laurent recursion of wp
- periods by the AGM on the b-invariant cubic (Cohen, GTM 138, Alg. 7.4.7) and the
  quasi-period eta_1 = (pi^2/3) E2(tau)/omega_1
- the mock form Zhat^+ = 1/E - S E - sum_k G_{2k+2} E^{2k+1}, E = sum a(n)/n q^n
- F^inf_N as the exact E2(dz) combination fixed by the cusp values (gcd(c,d)/d)^2
- eta quotients by Euler's product
- the Cesaro-smoothed direct sum, from a given a(n) table
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import numpy as np
from mpmath import mp, mpf, mpc

# Values printed in the paper (arXiv:1608.05462) for its worked example 11a1 and
# its rational-CM examples.  The package carries the same figures as the
# references of its acceptance checks 2, 3, 4 and 7 (src/shiftedconv/verify.py).
PAPER_S_11A1 = ("0.38124", "5e-5")                              # S(Lambda), check 2
PAPER_ZHAT_11A1 = ("1.0", "0.9520", "1.547", "0.3493", "1.976", "-2.609")  # q^0..q^5, check 3
PAPER_ZHAT_11A1_TOL = "1e-3"
PAPER_ZHAT_CM = {                                                # check 4
    "27a1": [(2, Fraction(1, 2)), (5, Fraction(1, 5)), (8, Fraction(3, 4)),
             (11, Fraction(-6, 11)), (14, Fraction(-1, 2))],
    "32a1": [(3, Fraction(2, 3)), (7, Fraction(1, 7)), (11, Fraction(-2, 11))],
    "36a1": [(5, Fraction(3, 5)), (11, Fraction(1, 11))],
}
PAPER_D_11A1 = ("-0.706", "-1.562", "-0.0930", "-1.234", "2.024")  # D(h;1), h = 1..5, check 7
PAPER_D_11A1_TOL = 3e-3

# q d/dq Zhat^+ = sign * prod eta(m tau)^r at the rational-CM levels, as stated in
# the paper: (sign, [(m, r), ...]).
ETA_QUOTIENTS = {
    27: (-1, [(3, 1), (9, 6), (27, -3)]),
    32: (-1, [(4, 2), (16, 6), (32, -4)]),
    36: (-1, [(6, 3), (12, 1), (18, 3), (36, -3)]),
}

# a(n) is supported on n = 1 mod n0 and D(h;1) on h = 0 mod n0 at these levels.
SUPPORT_MODULUS = {27: 3, 32: 4, 36: 6}


# -- arithmetic of the curve -------------------------------------------------

def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    mask = bytearray([1]) * (n + 1)
    mask[0] = mask[1] = 0
    for p in range(2, isqrt(n) + 1):
        if mask[p]:
            mask[p * p::p] = bytearray(len(mask[p * p::p]))
    return [i for i in range(n + 1) if mask[i]]


def b_invariants(ainvs):
    a1, a2, a3, a4, a6 = ainvs
    return a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6


def point_count(ainvs, p: int) -> int:
    """#E(F_p) of the reduced minimal model, singular point included, by trying every (x, y)."""
    a1, a2, a3, a4, a6 = (a % p for a in ainvs)
    y = np.arange(p, dtype=np.int64)
    count = 1  # the point at infinity
    for x in range(p):
        lhs = (y * y + ((a1 * x + a3) % p) * y) % p
        count += int(np.count_nonzero(lhs == (x * x * x + a2 * x * x + a4 * x + a6) % p))
    return count


def a_p(ainvs, p: int) -> int:
    """p + 1 - #E(F_p); for a minimal model this is also the bad-prime value 1, -1 or 0."""
    return p + 1 - point_count(ainvs, p)


def an_table(ainvs, conductor: int, n_max: int) -> list[int]:
    """[0, a(1), ..., a(n_max)] from point counts, Hecke recursion and multiplicativity."""
    a = [0] * (n_max + 1)
    a[1] = 1
    for p in primes_upto(n_max):
        ap = a_p(ainvs, p)
        prev, cur, pk = 1, ap, p
        while pk <= n_max:
            a[pk] = cur
            if conductor % p:
                prev, cur = cur, ap * cur - p * prev
            else:
                cur *= ap
            pk *= p
    for n in range(2, n_max + 1):
        m, pk = n, 1
        p = next(q for q in range(2, n + 1) if n % q == 0)
        while m % p == 0:
            m //= p
            pk *= p
        if m > 1:
            a[n] = a[pk] * a[m]
    return a


# -- Eisenstein series -------------------------------------------------------

def sigma1(n: int) -> int:
    return sum(d + (n // d if d * d != n else 0) for d in range(1, isqrt(n) + 1) if n % d == 0)


def e2_coeffs(n_max: int) -> list[int]:
    """E2 = 1 - 24 sum sigma_1(n) q^n, coefficients q^0..q^n_max."""
    return [1] + [-24 * sigma1(n) for n in range(1, n_max + 1)]


def _solve_exact(rows, rhs):
    """Gauss-Jordan over Q for a square nonsingular system."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def f_infinity_weights(N: int) -> dict:
    """{d: x_d} with sum_d x_d E2(dz) equal to 1 at the cusp oo and 0 at every other cusp.

    E2(dz) takes the value (gcd(c, d)/d)^2 at each cusp a/c of Gamma0(N) (c | N, the
    cusp oo having c = N), so the conditions are one linear equation per divisor c.
    """
    divs = [d for d in range(1, N + 1) if N % d == 0]
    rows = [[Fraction(gcd(c, d), d) ** 2 for d in divs] for c in divs]
    rhs = [1 if c == N else 0 for c in divs]
    return dict(zip(divs, _solve_exact(rows, rhs)))


def f_infinity_coeffs(N: int, n_max: int) -> list[Fraction]:
    """q^0..q^n_max of F^inf_N = sum_d x_d E2(dz), exact."""
    out = [Fraction(0)] * (n_max + 1)
    for d, x in f_infinity_weights(N).items():
        out[0] += x
        for n in range(1, n_max // d + 1):
            out[d * n] -= 24 * x * sigma1(n)
    return out


def e2_at(tau):
    """E2(tau) by its q-series at the working precision."""
    q = mp.expjpi(2 * tau)
    tol = mpf(10) ** (-(mp.dps + 5))
    total, qn, n = mpc(0), q, 1
    while abs(qn) * n * n > tol:
        total += sigma1(n) * qn
        qn *= q
        n += 1
    return 1 - 24 * total


# -- eta quotients -----------------------------------------------------------

def _mul(a, b, length):
    out = [0] * length
    for i, x in enumerate(a[:length]):
        if x:
            for j, y in enumerate(b[:length - i]):
                out[i + j] += x * y
    return out


def eta_quotient_coeffs(spec, length: int):
    """(leading exponent, [c_0, ..., c_{length-1}]) of prod eta(m tau)^r by Euler's product.

    Each factor (1 - q^{mk}) is multiplied in, or divided out through its geometric
    series for r < 0; coefficients are exact integers.
    """
    lead = Fraction(sum(m * r for m, r in spec), 24)
    prod = [1] + [0] * (length - 1)
    for m, r in spec:
        for k in range(1, (length - 1) // m + 1):
            step = m * k
            if r > 0:
                factor = [0] * length
                factor[0], factor[step] = 1, -1
            else:
                factor = [1 if i % step == 0 else 0 for i in range(length)]
            for _ in range(abs(r)):
                prod = _mul(prod, factor, length)
    return lead, prod


# -- periods, lattice constants and the mock form ----------------------------

def short_invariants(ainvs):
    """(g2, g3) of the model Y^2 = 4x^3 - g2 x - g3, as Fractions."""
    b2, b4, b6 = b_invariants(ainvs)
    return Fraction(b2 * b2 - 24 * b4, 12), Fraction(-b2 ** 3 + 36 * b2 * b4 - 216 * b6, 216)


def weierstrass_g(g2: Fraction, g3: Fraction, w_max: int) -> dict:
    """{w: G_w} for w = 4, 6, ..., w_max, exact, from wp = z^-2 + sum_k c_k z^{2k-2}.

    c_2 = g2/20, c_3 = g3/28, c_k = 3/((2k+1)(k-3)) sum_{m=2}^{k-2} c_m c_{k-m}, and
    G_{2k} = c_k/(2k-1).
    """
    k_max = w_max // 2
    c = {2: Fraction(g2) / 20, 3: Fraction(g3) / 28}
    for k in range(4, k_max + 1):
        c[k] = Fraction(3, (2 * k + 1) * (k - 3)) * sum(c[m] * c[k - m] for m in range(2, k - 1))
    return {2 * k: c[k] / (2 * k - 1) for k in range(2, k_max + 1)}


def periods(ainvs, digits: int):
    """(omega1, omega2, volume) by the AGM, basis reduced so Im(omega2/omega1) > 0 and |Re tau| <= 1/2.

    Cohen, GTM 138, Algorithm 7.4.7, on the roots of 4x^3 + b2 x^2 + 2 b4 x + b6.
    """
    b2, b4, b6 = b_invariants(ainvs)
    with mp.workdps(digits + 20):
        roots = mp.polyroots([4, b2, 2 * b4, b6], maxsteps=200, extraprec=2 * digits)
        if _discriminant(ainvs) > 0:
            e1, e2, e3 = sorted((mpf(r.real) for r in roots), reverse=True)
            w1 = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            w2 = mpc(0, 1) * mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
        else:
            e1 = mpf(min(roots, key=lambda r: abs(mp.im(r))).real)
            a = 3 * e1 + mpf(b2) / 4
            b = mp.sqrt(3 * e1 * e1 + mpf(b2) / 2 * e1 + mpf(b4) / 2)
            w1 = 2 * mp.pi / mp.agm(2 * mp.sqrt(b), mp.sqrt(2 * b + a))
            w2 = -w1 / 2 + mpc(0, 1) * mp.pi / mp.agm(2 * mp.sqrt(b), mp.sqrt(2 * b - a))
        w1, w2 = mpc(w1), mpc(w2)
        if (w2 / w1).imag < 0:
            w2 = -w2
        for _ in range(100):  # Gauss reduction of tau into the fundamental domain
            tau = w2 / w1
            w2 -= int(mp.nint(tau.real)) * w1
            if abs(w2 / w1) >= 1:
                break
            w1, w2 = w2, -w1
        volume = abs((mp.conj(w1) * w2).imag)
        return +w1, +w2, +volume


def _discriminant(ainvs):
    a1, a2, a3, a4, a6 = ainvs
    b2, b4, b6 = b_invariants(ainvs)
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def quasi_period(w1, w2):
    """eta_1 = 2 zeta(omega1/2) = (pi^2/3) E2(omega2/omega1) / omega1."""
    return mp.pi ** 2 / 3 * e2_at(w2 / w1) / w1


def _series_mul(a, b, length):
    out = [mpf(0)] * length
    for i in range(min(len(a), length)):
        ai = a[i]
        if ai:
            for j in range(min(len(b), length - i)):
                out[i + j] += ai * b[j]
    return out


def _series_inv(a, length):
    out = [mpf(0)] * length
    out[0] = 1 / a[0]
    for n in range(1, length):
        out[n] = -sum(a[k] * out[n - k] for k in range(1, min(n, len(a) - 1) + 1)) / a[0]
    return out


class CurveOracle:
    """Exact and high-precision data of one curve, from its a-invariants alone."""

    def __init__(self, ainvs, conductor: int, digits: int = 64):
        self.ainvs = tuple(ainvs)
        self.conductor = conductor
        self.digits = digits
        self._an = [0, 1]
        self._zhat = None
        with mp.workdps(digits + 20):
            self.omega1, self.omega2, self.volume = periods(self.ainvs, digits)
            self.eta1 = quasi_period(self.omega1, self.omega2)
            self.s = ((self.eta1 - mp.pi / self.volume * mp.conj(self.omega1)) / self.omega1).real

    def an(self, n_max: int) -> list[int]:
        if len(self._an) <= n_max:
            self._an = an_table(self.ainvs, self.conductor, n_max)
        return self._an[:n_max + 1]

    def zhat(self, n_max: int) -> list:
        """Zhat^+ coefficients at q^-1, q^0, ..., q^n_max (list index = exponent + 1)."""
        if self._zhat is not None and len(self._zhat) >= n_max + 2:
            return self._zhat[:n_max + 2]
        length = n_max + 2
        a = self.an(length + 1)
        k_top = max(0, (n_max - 1) // 2)
        g2, g3 = short_invariants(self.ainvs)
        gs = weierstrass_g(g2, g3, max(4, 2 * k_top + 2))
        with mp.workdps(self.digits + 20):
            u = [mpf(a[j + 1]) / (j + 1) for j in range(length)]   # E = q U
            out = _series_inv(u, length)                            # 1/E = q^-1 / U
            # -S E: its q^e coefficient (list index e + 1) is -S u[e - 1]
            for idx in range(2, length):
                out[idx] -= self.s * u[idx - 2]
            u2 = _series_mul(u, u, length)
            power = u
            for k in range(1, k_top + 1):
                power = _series_mul(power, u2, length)              # U^{2k+1}
                g = mpf(gs[2 * k + 2].numerator) / gs[2 * k + 2].denominator
                for idx in range(2 * k + 2, length):
                    out[idx] -= g * power[idx - 2 * k - 2]
            self._zhat = [+x for x in out]
        return self._zhat[:n_max + 2]

    def closed_form(self, h_max: int, alpha) -> list:
        """[(vol/pi) (f Zhat^+ - alpha f - F^inf)[h] for h = 0..h_max]; entry 0 must vanish."""
        a = self.an(h_max + 1)
        z = self.zhat(h_max)
        finf = f_infinity_coeffs(self.conductor, h_max)
        with mp.workdps(self.digits + 20):
            alpha = mpf(alpha)
            out = []
            for h in range(h_max + 1):
                fz = sum(a[n] * z[h - n + 1] for n in range(1, h + 2))
                combo = fz - alpha * a[h] - mpf(finf[h].numerator) / finf[h].denominator
                out.append(self.volume / mp.pi * combo)
            return out

    def alpha(self, d11: float):
        """(f Zhat^+)[1] - (pi/vol) D(1;1) - F^inf[1], the closed form's alpha for a given D(1;1)."""
        a = self.an(2)
        z = self.zhat(1)
        finf1 = f_infinity_coeffs(self.conductor, 1)[1]
        with mp.workdps(self.digits + 20):
            fz1 = a[1] * z[1] + a[2] * z[0]                     # z[i] is q^(i-1)
            return fz1 - mp.pi / self.volume * mpf(d11) - mpf(finf1.numerator) / finf1.denominator


# -- the direct sum ------------------------------------------------------------

def cesaro_direct(a: np.ndarray, h: int, n_terms: int):
    """(value, half-spread) of the partial sums of a(n+h) a(n) (1/n - 1/(n+h)), n <= n_terms,
    averaged over the last decade [n_terms/10, n_terms]."""
    n = np.arange(1, n_terms + 1, dtype=np.int64)
    prod = a[n + h] * a[n]
    if not prod.any():
        return 0.0, 0.0
    partials = np.cumsum(prod * (1.0 / n - 1.0 / (n + h)))
    window = partials[n_terms // 10 - 1:]
    return float(window.mean()), float((window.max() - window.min()) / 2)
