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

so an orbit sum is expanded over Z[zeta_N] in exact integers.  Its signed vectors
(+-c1, +-c2) are counted in an N x N histogram H (row m0 = +-c1, column s = +-c2),
and every m = m0 (N), m > 0, and r >= 1 add r H[m0, s] to A[rm][rs mod N], so the
coefficient of q^{k/N} is -(4 pi^2/N^2) sum_t A[k][t] zeta_N^t.  An orbit sum is
Gamma0(N)-invariant, so every A[k] with N not dividing k must vanish at zeta_N, that
is, reduce to 0 modulo the cyclotomic polynomial Phi_N; this is checked exactly and a
survivor raises.  Each A[nN] becomes an mp number once, and an indicator is the
combination of its orbits' series.  The slash by sigma permutes the cells of H, so the
cusp values and the numerical cusp limits read the same histograms: a kappa sum over
row 0 and one q-series per row.

The textbook spanning set {E2(z)} u {E2(z) - d E2(dz)} cannot separate
same-denominator cusps at the non-squarefree levels, which is why the indicator
construction works with the vector family instead.  Infinity is the only cusp of
denominator N, though, so its indicator F^inf_N does lie in that span, and
`infinity_indicator` returns it exactly from E2(dz); the closed form uses nothing
else of this module, and the basis's infinity column is its independent oracle.

The basis takes the working precision `digits` explicitly and is cached per
(level, digits); guard digits appear only inside `mp.workdps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, log, prod

import numpy as np
from mpmath import mp, mpf

from .config import memo
from .poincare import _factors
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


def _scaling_matrix(cusp: Cusp):
    """sigma in SL2(Z) with sigma(infinity) = cusp."""
    if cusp.is_infinity:
        return (1, 0, 0, 1)
    a, c = cusp.a, cusp.c
    x = pow(a, -1, c)       # a x = 1 (c), so det [[a, (a x - 1)/c], [c, x]] = 1
    return (a, (a * x - 1) // c, c, x)


# -- vector Eisenstein family ----------------------------------------------


def _canon(v, N):
    c1, c2 = v[0] % N, v[1] % N
    return min((c1, c2), ((-c1) % N, (-c2) % N))


def cusp_orbit(cusp: Cusp, N: int) -> list:
    """Gamma0(N)-orbit of the cusp's primitive vector (-c, a), up to v ~ -v, sorted.

    The orbit is {(-c u, a u^-1 - c b)}; its second entry depends on b only mod N/gcd(c, N).
    """
    a, c = cusp.a, cusp.c
    period = N // gcd(c, N)
    units = [(u, a * pow(u, -1, N)) for u in range(1, N) if gcd(u, N) == 1]
    return sorted({_canon((-c * u, au - c * b), N) for u, au in units for b in range(period)})


@memo
def _zeta_table(N: int, prec: int):
    """[e^{2 pi i k / N} for k in 0..N-1] at `prec` bits."""
    with mp.workprec(prec):
        return [mp.expjpi(mpf(2 * k) / N) for k in range(N)]


def _kappa(c2: int, N: int):
    """Constant term of G2^{(0, c2)}: the n-only lattice sum, pi^2 / (N sin(pi c2 / N))^2."""
    c2 %= N
    if c2 == 0:
        return mp.pi ** 2 / 3
    return (mp.pi / (N * _zeta_table(2 * N, mp.prec)[c2].imag)) ** 2


# -- exact expansion over Z[zeta_N] -----------------------------------------

BLOCK = 128     # rows per numpy step, so that no temporary grows with n_max


def _signed_rows(vectors, N: int) -> np.ndarray:
    """N x N counts of the signed vectors (+-c1, +-c2) mod N: row m0 = +-c1, column s = +-c2."""
    cells = [c1 % N * N + c2 % N for c1, c2 in vectors]
    cells += [(-c1) % N * N + (-c2) % N for c1, c2 in vectors]
    return np.bincount(cells, minlength=N * N).reshape(N, N)


def _slash(rows: np.ndarray, sigma, N: int) -> np.ndarray:
    """The histogram of the vectors w = v sigma from that of the v; sigma permutes the cells."""
    a, b, c, d = sigma
    m0, s = np.indices((N, N))
    out = np.empty_like(rows)
    out[(m0 * a + s * c) % N, (m0 * b + s * d) % N] = rows
    return out


def _kappa_sum(row0: np.ndarray, N: int):
    """Sum of kappa(w2) over the vectors (0, w2) that row 0 of a histogram counts (each twice, as +-)."""
    return mp.fsum(h * _kappa(s, N) for s, h in enumerate(row0.tolist()) if h) / 2


def _expansion_rows(rows: np.ndarray, N: int, n_max: int):
    """(g, A) with A[k/g][t] for the k < N (n_max + 1) divisible by g: the histogram's
    series is -(4 pi^2/N^2) sum_k (sum_t A[k/g][t] zeta_N^t) q^{k/N}.

    g is the gcd of N and the rows m0 the histogram uses (the cusp's denominator c
    for its orbit, N for infinity), so every m = m0 (N) is g mu and every exponent
    k = r m is a multiple of g.  Every pair (r, mu) of positive integers with
    r mu < (N/g) (n_max + 1) adds r rows[g mu mod N, s] at t = rs mod N.  The pairs
    are visited by a = min(r, mu), a^2 < (N/g) (n_max + 1): r = a with every mu >= a
    (the histogram dilated by a), and mu = a with every r > a (row g a mod N dilated
    by each residue of r).  Both land on the rows a, 2a, ... of A, a strided view,
    which is updated BLOCK rows at a time.  A dilation is one bincount over the cells
    (row, t s mod N); its float64 weights are small integers.

    An entry of A is at most sigma(k/g) < (k/g) (1 + ln(k/g)) times the largest row
    total of the histogram, so A is int32 whenever that bound allows.
    """
    g = gcd(N, *np.flatnonzero(rows.any(axis=1)).tolist())
    period = N // g
    rows = rows[g * np.arange(period)]
    top = period * (n_max + 1)
    bound = int(rows.sum(axis=1).max()) * top * (1 + log(top))
    A = np.zeros((top, N), dtype=np.int32 if bound < 2 ** 31 else np.int64)
    times = (np.arange(N)[:, None] * np.arange(N)) % N       # times[t, s] = t s mod N

    def dilate(cells, weights):
        n = len(cells)
        cells = N * np.arange(n)[:, None] + cells
        return np.bincount(cells.ravel(), weights.ravel(), n * N).astype(np.int64).reshape(n, N)

    a = 1
    while a * a < top:
        by_r = a * dilate(np.broadcast_to(times[a % N], (period, N)), rows)
        by_m = dilate(times, np.broadcast_to(rows[a % period], (N, N)))
        end = (top - 1) // a + 1
        for lo in range(a, end, BLOCK):
            mus = np.arange(lo, min(lo + BLOCK, end))
            view = A[a * lo: a * mus[-1] + 1: a]
            view += by_r[mus % period]
            view += mus[:, None] * by_m[mus % N]
        A[a * a] -= a * by_m[a % N]         # the pair r = mu = a is already in by_r
        a += 1
    return g, A


def _psi(N: int) -> list:
    """Coefficients of Psi_N = (x^N - 1)/Phi_N, constant term first, padded to length N.

    Phi_N = prod over d | N of (x^d - 1)^mu(N/d), so Psi_N is the product of x^(N/e) - 1
    over the squarefree e | N with an odd number of prime factors, divided exactly by
    that over the e > 1 with an even number.
    """
    primes = [p for p, _ in _factors(N)]
    poly, divisors = [1], []
    for size in range(1, len(primes) + 1):
        for ps in combinations(primes, size):
            d = N // prod(ps)
            if size % 2:
                poly = [x - y for x, y in zip([0] * d + poly, poly + [0] * d)]
            else:
                divisors.append(d)
    for d in divisors:
        # poly = q (x^d - 1), so q[j - d] = poly[j] + q[j] from the top down
        q = [0] * (len(poly) - d)
        for j in range(len(poly) - 1, d - 1, -1):
            q[j - d] = poly[j] + (q[j] if j < len(q) else 0)
        poly = q
    return poly + [0] * (N - len(poly))


def _vanishes_at_zeta(rows: np.ndarray, N: int) -> np.ndarray:
    """Per integer row a of `rows` (shape (..., N)): whether sum_t a[t] zeta_N^t = 0.

    That holds exactly when a(x) = sum_t a[t] x^t reduces to 0 modulo the cyclotomic
    polynomial Phi_N, that is, when a(x) Psi_N(x) = 0 modulo x^N - 1: a cyclic
    convolution with the few nonzero coefficients of Psi_N, in int64 (whose
    wraparound is a ring map, so a vanishing row always passes).
    """
    psi = [(j, c) for j, c in enumerate(_psi(N)) if c]
    flat = rows.reshape(-1, N)
    out = np.empty(len(flat), dtype=bool)
    for lo in range(0, len(flat), BLOCK):
        block = flat[lo:lo + BLOCK].astype(np.int64)
        out[lo:lo + BLOCK] = ~sum(c * np.roll(block, j, axis=1) for j, c in psi).any(axis=1)
    return out.reshape(rows.shape[:-1])


def _row_series(combo: dict, slashed: dict, N: int, q, tol):
    """-(4 pi^2/N^2) sum_i coeff_i sum_{m, r >= 1} r (sum_s slashed[i][m mod N, s] zeta_N^{rs}) q^{rm}.

    Row m0 runs over m = m0, m0 + N, ... (from N for m0 = 0) until q^m m 4 < tol (1 - q^N),
    and r runs while q^{rm} r 4 > tol.
    """
    zeta = _zeta_table(N, mp.prec)
    live = set(np.flatnonzero(sum(slashed.values()).any(axis=1)).tolist())
    stop = tol * (1 - q ** N)
    total = mp.mpc(0)
    m, qm = 1, q
    while live:
        m0 = m % N
        if m0 in live and qm * m * 4 < stop:
            live.discard(m0)
        elif m0 in live:
            r, qrm = 1, qm
            while qrm * r * 4 > tol:
                w = mp.fsum(coeff * h * zeta[(r * s) % N] for i, coeff in combo.items()
                            for s, h in enumerate(slashed[i][m0].tolist()) if h)
                total += r * w * qrm
                r, qrm = r + 1, qrm * qm
        m, qm = m + 1, qm * q
    return -4 * mp.pi ** 2 / N ** 2 * total


class EisensteinBasis:
    """One vector orbit per cusp and the cusp indicators for one level, at `digits` working digits."""

    def __init__(self, N: int, digits: int):
        self.level = N
        self.digits = digits
        self.cusps = enumerate_cusps(N)
        self.orbits = [cusp_orbit(c, N) for c in self.cusps]
        rows = [_signed_rows(orbit, N) for orbit in self.orbits]
        k = len(self.cusps)
        with mp.workdps(digits + 25):
            self.values = mp.matrix(k, k)
            for j, cusp in enumerate(self.cusps):
                sigma = _scaling_matrix(cusp)
                for i, h in enumerate(rows):
                    self.values[j, i] = _kappa_sum(_slash(h, sigma, N)[0], N)
            inv = mp.inverse(self.values)           # ZeroDivisionError if singular
            self._indicators = [
                {i: inv[i, j] for i in range(k) if abs(inv[i, j]) > mpf(10) ** (-digits)}
                for j in range(k)]

    def indicator_combos(self):
        """Per cusp: {orbit index -> coefficient} solving the delta value conditions."""
        return self._indicators

    def orbit_qexp(self, i: int, n_max: int) -> list:
        """Coefficients of q^0 .. q^n_max of orbit i's sum, at digits + 15 working digits.

        The expansion is exact over Z[zeta_N] until each coefficient becomes one mp
        number.  A fractional exponent that survives, as an orbit not closed under
        Gamma0(N) would leave, raises ArithmeticError.
        """
        N = self.level
        rows = _signed_rows(self.orbits[i], N)
        g, A = _expansion_rows(rows, N, n_max)
        fractional = ~_vanishes_at_zeta(A, N).reshape(n_max + 1, N // g)
        fractional[:, 0] = False
        if fractional.any():
            k = g * int(np.flatnonzero(fractional)[0])
            raise ArithmeticError(f"level {N}: non-integer exponent {Fraction(k, N)} survived "
                                  f"in orbit {i}; the orbit sum is not invariant")
        with mp.workdps(self.digits + 15):
            zeta = _zeta_table(N, mp.prec)
            pref = -4 * mp.pi ** 2 / N ** 2
            return [_kappa_sum(rows[0], N)] + [
                pref * mp.fsum(h * zeta[t] for t, h in enumerate(row) if h)
                for row in A[N // g::N // g].tolist()]

    def _combine(self, combo: dict, series: dict, n_max: int) -> FourierSeries:
        """sum_i coeff_i series[i] as a FourierSeries; imaginary parts at roundoff level are dropped."""
        with mp.workdps(self.digits + 15):
            out = [mp.fsum(coeff * series[i][e] for i, coeff in combo.items())
                   for e in range(n_max + 1)]
            tol = mpf(10) ** (-(self.digits - 10))
            scale = max(max(abs(x) for x in out), mpf(1))
            clean = {e: x.real if abs(x.imag) <= tol * scale else x
                     for e, x in enumerate(out) if e == 0 or x != 0}
        return FourierSeries(clean, n_max + 1)

    def indicator_qexps(self, n_max: int) -> list:
        """q-expansions of the indicators in cusp order; each orbit is expanded once."""
        used = sorted(set().union(*self._indicators))
        series = {i: self.orbit_qexp(i, n_max) for i in used}
        return [self._combine(combo, series, n_max) for combo in self._indicators]

    def cusp_constant_numeric(self, combo: dict, cusp: Cusp, digits: int):
        """Richardson-extrapolated limit of the slashed combination up the cusp.

        The combination is read from the histograms of the slashed vectors w = v sigma:
        a kappa sum over row 0, one q-series per row and the completion -pi/(N^2 y)
        once per vector.  The completion decays like 1/Y exactly, so one extrapolation
        step on a geometric ladder leaves only exponentially small error; a third rung
        guards against ladder misconfiguration.
        """
        N = self.level
        sigma = _scaling_matrix(cusp)
        slashed = {i: _slash(_signed_rows(self.orbits[i], N), sigma, N) for i in combo}
        with mp.workdps(digits + 10):
            tol = mpf(10) ** (-(digits + 8))
            const = mp.fsum(coeff * _kappa_sum(slashed[i][0], N) for i, coeff in combo.items())
            size = mp.fsum(coeff * len(self.orbits[i]) for i, coeff in combo.items())
            y0 = mpf(N) * (digits * 2.303 / 6.283 + 4)
            vals = []
            for k in (1, 2, 4):
                y = y0 * k
                q = mp.exp(-2 * mp.pi * y / N)
                vals.append(const + _row_series(combo, slashed, N, q, tol)
                            - size * mp.pi / (N * N * y))
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
    return dict(zip(eb.cusps, eb.indicator_qexps(n_max)))


def infinity_indicator(N: int, n_max: int) -> FourierSeries:
    """F^infinity_{N,2}, 1 at the infinite cusp and 0 at all other cusps, in exact rationals.

    It is prod over p^e || N of (p^2 E2(p^e z) - E2(p^(e-1) z))/(p^2 - 1), the product
    multiplying dilations, E2(d z) E2(d' z) -> E2(d d' z).  The weights of the E2(d z)
    sum to 1, and E2(d z) = 1 - 24 sum sigma_1(n) q^(d n) with sigma_1 from one sieve.
    """
    weights = {1: Fraction(1)}
    for p, e in _factors(N):
        local = {p ** e: Fraction(p * p, p * p - 1), p ** (e - 1): Fraction(-1, p * p - 1)}
        weights = {d * d2: w * w2 for d, w in weights.items() for d2, w2 in local.items()}
    sigma1 = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for n in range(d, n_max + 1, d):
            sigma1[n] += d
    coeffs = {0: 1}
    for d, w in weights.items():
        for n in range(1, n_max // d + 1):
            coeffs[d * n] = coeffs.get(d * n, 0) - 24 * w * sigma1[n]
    return FourierSeries(coeffs, n_max + 1)
