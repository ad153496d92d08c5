"""Weight-2 quasimodular Eisenstein indicator basis: value 1 at one cusp, 0 at the rest.

Construction.  For a row vector v = (c1, c2) in (Z/N)^2, v != 0, let

    G2^v(z) = sum_{m = c1 (N)} sum_{n = c2 (N)} (m z + n)^{-2}

summed in Eisenstein order (inner n, outer m).  Its completion by -pi/(N^2 y) slashes
equivariantly: G2^v |_2 sigma = G2^{v sigma} for every sigma in SL2(Z), and G2^{-v} =
G2^v.  Gamma0(N) reduces mod N to the upper-triangular matrices (u, b; 0, 1/u), so it
permutes the vectors, and the sum of G2^v over a Gamma0(N)-orbit is invariant by
construction.  Each cusp a/c gets the orbit of its primitive vector (-c, a), taken up
to sign (Diamond-Shurman, A First Course in Modular Forms, ch. 4).  The value of G2^v
at the cusp sigma(infinity) is the constant term of G2^{v sigma}:
pi^2 / (N sin(pi w2 / N))^2 when w1 = 0 mod N (else 0), with the w2 = 0 case giving
pi^2/3.  The indicators are the columns of the inverse of this square (cusps x cusps)
value matrix, and a Richardson-extrapolated numerical limit up each cusp re-verifies
them.

q-expansion.  By the Lipschitz formula,

    G2^v = [c1 = 0] kappa(c2)
           - (4 pi^2/N^2) sum_{m>0, m = +-c1 (N)} sum_{r>=1} r zeta_N^{+-r c2} q^{rm/N},

and zeta_N^{r c2} depends on r only mod N.  So a combination of orbit sums is
expanded one row of (Z/N)^2 at a time: the coefficients of the signed vectors
(+-c1, +-c2) in row m0 = +-c1 form a histogram H_{m0}(s) over s = +-c2, its discrete
Fourier transform gives the row weights w_{m0}(t) for t mod N, and every m = m0 (N)
then contributes r w_{m0}(r mod N) at q^{rm/N}.  The work is one q-series loop per
row, whatever the number of vectors in it.  The fractional exponents cancel for an
invariant combination; a survivor raises.

The textbook spanning set {E2(z)} u {E2(z) - d E2(dz)} cannot separate
same-denominator cusps at the non-squarefree levels, which is why the indicator
construction works with the vector family instead; the tests keep that set as an
independent oracle.

Every entry point takes the working precision `digits` explicitly; bases and
indicators are cached per (level, digits).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import itemgetter

from mpmath import mp, mpf, mpc

from .config import memo
from .series import FourierSeries


@dataclass(frozen=True)
class Cusp:
    """Representative a/c in lowest terms; infinity is 1/0."""

    a: int
    c: int
    width: int

    @property
    def is_infinity(self) -> bool:
        return self.c == 0

    def __str__(self):
        return "oo" if self.c == 0 else f"{self.a}/{self.c}"


def cusp_count(N: int) -> int:
    """sum over d | N of phi(gcd(d, N/d))."""
    total = 0
    for d in range(1, N + 1):
        if N % d == 0:
            g = gcd(d, N // d)
            total += sum(1 for a in range(1, g + 1) if gcd(a, g) == 1)
    return total


def enumerate_cusps(N: int) -> tuple:
    """Inequivalent cusp representatives of Gamma0(N), infinity first."""
    cusps = [Cusp(1, 0, 1)]
    for c in range(1, N):
        if N % c:
            continue
        g = gcd(c, N // c)
        width = N // gcd(c * c, N)
        for a0 in range(g):
            if gcd(a0, g) != 1 and g > 1:
                continue
            if g == 1 and a0 != 0:
                continue
            a = a0 if a0 else g
            while gcd(a, c) != 1:
                a += g
            cusps.append(Cusp(a % c if c > 1 else 0, c, width))
    assert len(cusps) == cusp_count(N), f"cusp enumeration mismatch at level {N}"
    return tuple(cusps)


def _ext_gcd(a: int, b: int):
    if b == 0:
        return (abs(a), (1 if a >= 0 else -1, 0))
    g, (x, y) = _ext_gcd(b, a % b)
    return g, (y, x - (a // b) * y)


def _scaling_matrix(cusp: Cusp):
    """sigma in SL2(Z) with sigma(infinity) = cusp."""
    if cusp.is_infinity:
        return (1, 0, 0, 1)
    _, (x, y) = _ext_gcd(cusp.a, cusp.c)
    # a*x + c*y = 1  ->  det [[a, -y],[c, x]] = 1
    return (cusp.a, -y, cusp.c, x)


# -- vector Eisenstein family ----------------------------------------------


def _canon(v, N):
    c1, c2 = v[0] % N, v[1] % N
    return min((c1, c2), ((-c1) % N, (-c2) % N))


def cusp_orbit(cusp: Cusp, N: int) -> list:
    """Gamma0(N)-orbit of the cusp's primitive vector (-c, a), up to v ~ -v, sorted."""
    a, c = cusp.a, cusp.c
    units = [u for u in range(1, N) if gcd(u, N) == 1]
    return sorted({_canon((-c * u, a * pow(u, -1, N) - c * b), N)
                   for u in units for b in range(N)})


def _kappa(c2: int, N: int):
    """Constant term of G2^{(0, c2)}: the n-only lattice sum."""
    c2 %= N
    if c2 == 0:
        return mp.pi ** 2 / 3
    return (mp.pi / (N * mp.sin(mp.pi * mpf(c2) / N))) ** 2


def vector_value_at_cusp(v, sigma, N: int):
    """Exact-form value of the completed G2^v at the cusp sigma(infinity)."""
    a, b, c, d = sigma
    w1 = (v[0] * a + v[1] * c) % N
    w2 = (v[0] * b + v[1] * d) % N
    if w1 != 0:
        return mp.mpf(0)
    return _kappa(w2, N)


@memo
def _zeta_table(N: int, prec: int):
    """[e^{2 pi i k / N} for k in 0..N-1] at `prec` bits."""
    with mp.workprec(prec):
        return [mp.expjpi(mpf(2 * k) / N) for k in range(N)]


def vector_eval(v, N: int, z, tol_digits: int, qpow: dict = None):
    """Numerical value of the completed G2^v at a point z in the upper half-plane.

    `qpow` optionally shares e^{2 pi i m z / N} powers between calls at the same z.
    """
    c1, c2 = v[0] % N, v[1] % N
    if qpow is None:
        qpow = {}
    if 1 not in qpow:
        qpow[1] = mp.expjpi(2 * z / N)
    q1n = qpow[1]
    tol = mpf(10) ** (-tol_digits)
    total = mp.mpc(0)
    if c1 == 0:
        total += _kappa(c2, N)
    zeta = _zeta_table(N, mp.prec)
    pref = -4 * mp.pi ** 2 / N ** 2
    for sign in (1, -1):
        m0 = (sign * c1) % N
        sc2 = (sign * c2) % N
        m = m0 if m0 else N
        while True:
            if m not in qpow:
                qpow[m] = q1n ** m
            qm = qpow[m]
            if abs(qm) * m * 4 < tol * (1 - abs(q1n) ** N):
                break
            r = 1
            qrm = qm
            while abs(qrm) * r * 4 > tol:
                total += pref * r * zeta[(r * sc2) % N] * qrm
                r += 1
                qrm *= qm
            m += N
    return total - mp.pi / (N * N * z.imag)


class EisensteinBasis:
    """One vector orbit per cusp and the cusp indicators for one level, at `digits` working digits."""

    def __init__(self, N: int, digits: int):
        self.level = N
        self.digits = digits
        self.cusps = enumerate_cusps(N)
        self.orbits = [cusp_orbit(c, N) for c in self.cusps]
        k = len(self.cusps)
        with mp.workdps(digits + 25):
            self.values = mp.matrix(k, k)
            for j, cusp in enumerate(self.cusps):
                sigma = _scaling_matrix(cusp)
                for i, orbit in enumerate(self.orbits):
                    self.values[j, i] = mp.fsum(
                        vector_value_at_cusp(v, sigma, N) for v in orbit).real
            inv = mp.inverse(self.values)           # ZeroDivisionError if singular
            self._indicators = [
                {i: inv[i, j] for i in range(k) if abs(inv[i, j]) > mpf(10) ** (-digits)}
                for j in range(k)]

    def indicator_combos(self):
        """Per cusp: {orbit index -> coefficient} solving the delta value conditions."""
        return self._indicators

    def combo_qexp(self, combo: dict, n_max: int) -> FourierSeries:
        """q-expansion of sum over orbits; fractional exponents must cancel.

        The combination is folded into one histogram per row m0 of (Z/N)^2 first:
        H_{m0}(s) sums the coefficients of the signed vectors (+-c1, +-c2) = (m0, s).
        The row weights w(t) = -(4 pi^2/N^2) sum_s H_{m0}(s) zeta_N^{ts}, for t mod N,
        then carry the whole row, acc[r m] += r w(r mod N) for m = m0 (N), so the
        q-series loop runs once per row, not once per vector.  The coefficients are
        real, so w(N - t) = conj(w(t)).  The signed vectors are sorted by row, and
        each row's histogram and weights live only while its loop runs.
        """
        N = self.level
        with mp.workdps(self.digits + 15):
            const = mp.mpc(0)
            for i, coeff in combo.items():
                for c1, c2 in self.orbits[i]:
                    if c1 % N == 0:
                        const += coeff * _kappa(c2, N)
            signed = sorted(((sign * c1) % N, (sign * c2) % N, i) for i in combo
                            for c1, c2 in self.orbits[i] for sign in (1, -1))
            tol = mpf(10) ** (-(self.digits - 10))
            top = N * (n_max + 1)
            acc = [mp.mpc(0)] * top
            zeta = _zeta_table(N, mp.prec)
            pref = -4 * mp.pi ** 2 / N ** 2
            for m0, row in groupby(signed, key=itemgetter(0)):
                hist = {}
                for _, s, i in row:
                    hist[s] = hist.get(s, 0) + combo[i]
                w = [pref * mp.fsum(h * zeta[(t * s) % N] for s, h in hist.items())
                     for t in range(N // 2 + 1)]
                w += [mp.conj(w[N - t]) for t in range(len(w), N)]
                for m in range(m0 if m0 else N, top, N):
                    for r in range(1, (top - 1) // m + 1):
                        acc[r * m] += r * w[r % N]
            scale = max(max(abs(x) for x in acc), abs(const), mpf(1))
            out = {0: const}
            for k, x in enumerate(acc):
                if k == 0 or x == 0:
                    continue
                if k % N == 0:
                    out[k // N] = out.get(k // N, 0) + x
                elif abs(x) > tol * scale:
                    raise ArithmeticError(
                        f"level {N}: non-integer exponent {Fraction(k, N)} survived "
                        f"({abs(x)} vs scale {scale}); combination not invariant")
            clean = {}
            for e, x in out.items():
                if abs(x.imag) <= tol * scale:
                    x = x.real
                clean[e] = x
        return FourierSeries(clean, n_max + 1)

    def cusp_constant_numeric(self, combo: dict, cusp: Cusp, digits: int):
        """Richardson-extrapolated limit of the slashed combination up the cusp.

        The completion decays like 1/Y exactly, so one extrapolation step on a
        geometric ladder leaves only exponentially small error; a third rung
        guards against ladder misconfiguration.
        """
        N = self.level
        sigma = _scaling_matrix(cusp)
        a, b, c, d = sigma
        with mp.workdps(digits + 10):
            y0 = mpf(N) * (digits * 2.303 / 6.283 + 4)
            vals = []
            for k in (1, 2, 4):
                z = mpc(0, y0 * k)
                qpow = {}
                tot = mp.mpc(0)
                for i, coeff in combo.items():
                    for v in self.orbits[i]:
                        w = ((v[0] * a + v[1] * c) % N, (v[0] * b + v[1] * d) % N)
                        tot += coeff * vector_eval(w, N, z, digits + 8, qpow)
                vals.append(tot)
            r1 = 2 * vals[1] - vals[0]
            r2 = 2 * vals[2] - vals[1]
            if abs(r2 - r1) > mpf(10) ** (-(digits - 8)) * (1 + abs(r2)):
                raise ArithmeticError(
                    f"cusp-limit extrapolation disagreement at {cusp}: {abs(r2 - r1)}")
            return r2


@memo
def basis_for_level(N: int, digits: int) -> EisensteinBasis:
    return EisensteinBasis(N, digits)


def indicator_basis(N: int, n_max: int, digits: int) -> dict:
    """Map cusp -> q-expansion of the indicator form F at that cusp."""
    eb = basis_for_level(N, digits)
    combos = eb.indicator_combos()
    return {cusp: eb.combo_qexp(combo, n_max)
            for cusp, combo in zip(eb.cusps, combos)}


@memo
def infinity_indicator(N: int, n_max: int, digits: int) -> FourierSeries:
    """F^infinity_{N,2}: 1 at the infinite cusp, 0 at all other cusps."""
    eb = basis_for_level(N, digits)
    return eb.combo_qexp(eb.indicator_combos()[0], n_max)
