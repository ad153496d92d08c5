"""Weight-2 quasimodular Eisenstein indicator basis: value 1 at one cusp, 0 at the rest.

Construction.  For a row vector v = (c1, c2) in (Z/N)^2, v != 0, let

    G2^v(z) = sum_{m = c1 (N)} sum_{n = c2 (N)} (m z + n)^{-2}

summed in Eisenstein order (inner n, outer m).  Its completion by -pi/(N^2 y) slashes
equivariantly: G2^v |_2 sigma = G2^{v sigma} for every sigma in SL2(Z), and G2^{-v} =
G2^v.  Gamma0(N) reduces mod N to the upper-triangular matrices (u, b; 0, 1/u), so it
permutes the vectors, and the sum of G2^v over a Gamma0(N)-orbit is invariant.  Each
cusp a/c gets the orbit of its primitive vector (-c, a), taken up to sign
(Diamond-Shurman, A First Course in Modular Forms, ch. 4).  The value of G2^v at the
cusp sigma(infinity) is the constant term of G2^{v sigma}: kappa(w2) when w1 = 0 mod N
(else 0), with kappa(s) = pi^2 / (N sin(pi s / N))^2 and kappa(0) = pi^2/3.  The
indicators are the columns of the inverse of this square (cusps x cusps) value matrix.

q-expansion.  By the Lipschitz formula,

    G2^v = [c1 = 0] kappa(c2)
           - (4 pi^2/N^2) sum_{m>0, m = +-c1 (N)} sum_{r>=1} r zeta_N^{+-r c2} q^{rm/N}.

An orbit's signed vectors (+-c1, +-c2) are counted in an N x N histogram H (row
m0 = +-c1, column s = +-c2), and every m = m0 (N), m > 0, and r >= 1 add r H[m0, s]
to A[rm][rs mod N], so the coefficient of q^{k/N} is -(4 pi^2/N^2) sum_t A[k][t]
zeta_N^t.  The orbit sum is Gamma0(N)-invariant, so an A[k] with N not dividing k
that does not vanish at zeta_N raises.  The slash by sigma permutes the cells of H,
so the cusp values read the same histograms.

Exactness.  kappa(s) is pi^2/(3 N^4) times an element of Z[zeta_N] (`_kappa_rows`), so
orbit sums and cusp values are pi^2/(6 N^4) times integer rows over Z[zeta_N], pi^2
cancels, and the indicators are exact over Q(zeta_N) (`_inverse`, `_reduce`).  The
basis is cached per level; mp numbers appear only where `indicator_basis` converts a
nonzero coefficient at the caller's `digits`.

The textbook spanning set {E2(z)} u {E2(z) - d E2(dz)} cannot separate
same-denominator cusps at the non-squarefree levels, hence the vector family.
Infinity is the only cusp of denominator N, though, so F^inf_N lies in that span, and
`infinity_indicator` returns it exactly from E2(dz); the closed form uses nothing
else of this module, and the basis's infinity column is its independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, gcd, log, log2, prod

import numpy as np
from mpmath import mp, mpf

from .config import memo
from .newform import _divisor_sums, _factors
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
    gs = [gcd(d, N // d) for d in range(1, N + 1) if N % d == 0]
    return sum(1 for g in gs for a in range(1, g + 1) if gcd(a, g) == 1)


def enumerate_cusps(N: int) -> tuple:
    """Inequivalent cusp representatives of Gamma0(N), infinity first; ArithmeticError if
    they are not `cusp_count(N)` many."""
    cusps = [Cusp(1, 0, 1)]
    for c in (c for c in range(1, N) if N % c == 0):
        g = gcd(c, N // c)
        width = N // gcd(c * c, N)
        for a0 in range(g):
            if gcd(a0, g) != 1:         # a0 = 0 only when g = 1
                continue
            a = a0 or g
            while gcd(a, c) != 1:
                a += g
            cusps.append(Cusp(a % c if c > 1 else 0, c, width))
    if len(cusps) != cusp_count(N):
        raise ArithmeticError(f"level {N}: {len(cusps)} cusps enumerated, {cusp_count(N)} expected")
    return tuple(cusps)


def _scaling_matrix(cusp: Cusp):
    """sigma in SL2(Z) with sigma(infinity) = cusp."""
    if cusp.is_infinity:
        return (1, 0, 0, 1)
    a, c = cusp.a, cusp.c
    x = pow(a, -1, c)       # a x = 1 (c), so det [[a, (a x - 1)/c], [c, x]] = 1
    return (a, (a * x - 1) // c, c, x)


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


def _kappa_rows(N: int) -> np.ndarray:
    """Row s: 3 N^4 kappa(s)/pi^2 over Z[zeta_N], kappa(s) the constant term of G2^{(0, s)}.

    kappa(0) = pi^2/3 gives N^4.  For s != 0, kappa(s) = 4 pi^2/(N^2 (1 - zeta^s)(1 - zeta^-s)) and
    N/(1 - zeta^s) = -sum_k k zeta^(sk), so the row is 12 (sum_k k zeta^(sk)) (sum_k k zeta^(-sk)).
    """
    k, out = np.arange(N), np.zeros((N, N), dtype=np.int64)
    out[0, 0] = N ** 4
    for s in range(1, N):
        u = np.bincount(s * k % N, k, N).astype(np.int64)
        c = np.convolve(u, np.roll(u[::-1], 1))           # u(x) u(1/x), folded mod x^N - 1
        out[s] = 12 * (c[:N] + np.append(c[N:], 0))
    return out


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


@memo
def _reduction(N: int) -> np.ndarray:
    """(N, phi(N)) integers whose row t is x^t modulo the cyclotomic polynomial Phi_N.

    Phi_N is the product of (x^(N/e) - 1)^mu(e) over the squarefree e | N, taken in power
    series past x^N: times x^d - 1 from the top down, or divided by it from the bottom up.
    """
    primes = [p for p, _ in _factors(N)]
    phi = [1] + [0] * N
    for size in range(len(primes) + 1):
        for ps in combinations(primes, size):
            d = N // prod(ps)
            for j in range(N, -1, -1) if size % 2 == 0 else range(N + 1):
                phi[j] = (phi[j - d] if j >= d else 0) - phi[j]
    k = max(j for j, c in enumerate(phi) if c)      # phi(N), as Phi_N is monic
    rows, x = [], [1] + [0] * (k - 1)
    for _ in range(N):
        rows.append(x)
        x = [0] + x                                 # times x, then x^k = x^k - Phi_N
        x = [c - x[k] * p for c, p in zip(x[:k], phi)]
    return np.array(rows, dtype=np.int64)


def _reduce(rows: np.ndarray, N: int) -> np.ndarray:
    """Integer rows a over Z[zeta_N] (shape (..., N)) in the basis zeta_N^u, u < phi(N).

    a(x) modulo Phi_N is the unique representative of a(zeta_N) of degree below phi(N), so
    it is zero exactly when a(zeta_N) is; in int64 while no entry can reach 2^63.
    """
    M = _reduction(N)
    width = int(np.abs(M).sum(axis=0).max())        # |(a M)[u]| <= width max|a|
    big = rows.dtype == object or int(np.abs(rows).max(initial=0)) * width >= 2 ** 63
    return rows.astype(object if big else np.int64) @ M


def _vanishes_at_zeta(rows: np.ndarray, N: int) -> np.ndarray:
    """Per integer row a of `rows` (shape (..., N)): whether sum_t a[t] zeta_N^t = 0."""
    flat = rows.reshape(-1, N)
    out = np.empty(len(flat), dtype=bool)
    for lo in range(0, len(flat), BLOCK):
        out[lo:lo + BLOCK] = ~_reduce(flat[lo:lo + BLOCK], N).any(axis=1)
    return out.reshape(rows.shape[:-1])


def _det(m: list, N: int) -> np.ndarray:
    """Determinant over Z[x]/(x^N - 1) by Laplace expansion, in Python integers."""
    if len(m) < 2:
        return m[0][0].astype(object) if m else np.array([1] + [0] * (N - 1), dtype=object)
    total = np.zeros(N, dtype=object)
    for j, a in enumerate(m[0]):
        c = np.convolve(a.astype(object), _det([row[:j] + row[j + 1:] for row in m[1:]], N))
        total += (-1) ** j * (c[:N] + np.append(c[N:], 0))
    return total


def _inverse(values: np.ndarray, N: int) -> list:
    """Column j of the inverse of the (cusps x orbits) matrix `values` over Z[zeta_N], as
    (scale_j, {i: w_ij}): its entry (i, j) is scale_j w_ij(zeta_N), scale_j rational.

    The matrix splits into blocks, the connected components of its nonzero entries.  A
    block B has B^-1 = adj(B)/det(B), det(B) must reduce to a rational (else
    ArithmeticError), and each column of adj(B), reduced, loses its content.
    """
    nonzero = _reduce(values, N).any(axis=2)
    linked, left, out = nonzero | nonzero.T, set(range(len(values))), [None] * len(values)
    while left:
        block = [min(left)]
        while len(grown := np.flatnonzero(linked[block].any(axis=0)).tolist()) > len(block):
            block = grown
        left -= set(block)
        m = [[values[j, i] for i in block] for j in block]
        det = _reduce(_det(m, N), N)
        if det[1:].any():
            raise ArithmeticError(f"level {N}: irrational determinant on the cusps {block}")
        for jj, j in enumerate(block):
            minors = {i: [row[:ii] + row[ii + 1:] for r, row in enumerate(m) if r != jj]
                      for ii, i in enumerate(block)}
            adj = {i: (-1) ** (ii + jj) * _reduce(_det(minors[i], N), N) for ii, i in enumerate(block)}
            g = gcd(*(x for a in adj.values() for x in a.tolist()))
            out[j] = (Fraction(g, det[0]), {i: np.array((a // g).tolist() + [0] * (N - len(a)))
                                            for i, a in adj.items() if a.any()})
    return out


class EisensteinBasis:
    """One vector orbit per cusp and the exact cusp indicators for one level.

    Orbit sums and cusp values (`values[j, i]`, orbit i at cusp j) are pi^2/(6 N^4)
    times integer rows over Z[zeta_N]; the indicators combine them over Q(zeta_N).
    """

    def __init__(self, N: int):
        self.level = N
        self.cusps = enumerate_cusps(N)
        self.orbits = [cusp_orbit(c, N) for c in self.cusps]
        kappa = _kappa_rows(N)
        rows = [_signed_rows(orbit, N) for orbit in self.orbits]
        self.values = np.array([[_slash(h, _scaling_matrix(cusp), N)[0] @ kappa for h in rows]
                                for cusp in self.cusps])
        # per cusp (scale, {orbit i: w_i}): the indicator is scale sum_i w_i(zeta_N) orbit_qexp(i)
        self.combos = _inverse(self.values, N)          # ZeroDivisionError if singular

    def orbit_qexp(self, i: int, n_max: int) -> np.ndarray:
        """Orbit i's sum through q^n_max as pi^2/(6 N^4) times int64 rows, row n over
        Z[zeta_N] at q^n.  A fractional exponent that survives, as an orbit not closed
        under Gamma0(N) would leave, raises ArithmeticError.
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
        out = -24 * N * N * A[::N // g].astype(np.int64)
        out[0] = self.values[0, i]                      # its value at infinity, sigma = 1
        return out

    def indicator_qexps(self, n_max: int) -> list:
        """Per cusp, exactly: (scale, C) with scale sum_u C[n, u] zeta_N^u at q^n, u < phi(N):
        each orbit's rows convolved with its w_i (in int64 while no entry can reach 2^63,
        else in Python integers), summed and reduced modulo Phi_N (`_reduce`).
        """
        N = self.level
        series = {i: self.orbit_qexp(i, n_max) for i in set().union(*(w for _, w in self.combos))}
        shift = (np.arange(N) - np.arange(N)[:, None]) % N       # shift[s, t] = t - s mod N
        out = []
        for scale, w in self.combos:
            big = sum(int(np.abs(w[i]).sum()) * int(np.abs(series[i]).max()) for i in w) >= 2 ** 63
            R = sum((series[i].astype(object) if big else series[i]) @ w[i][shift] for i in w)
            out.append((scale, _reduce(R, N)))
        return out

    def cusp_values(self, combo: tuple) -> list:
        """The combination (scale, {orbit i: w_i}) at each cusp j, exactly: the coordinates
        over zeta_N^u, u < phi(N), of scale sum_i w_i(zeta_N) values[j, i], reduced modulo
        Phi_N (`_reduce`).  An indicator's are 1, 0, ... at its own cusp and 0 at the others.
        """
        N, (scale, w) = self.level, combo
        shift = (np.arange(N) - np.arange(N)[:, None]) % N       # shift[s, t] = t - s mod N
        rows = sum(self.values[:, i].astype(object) @ w[i][shift] for i in w)
        return [[scale * x for x in row] for row in _reduce(rows, N).tolist()]


@memo
def basis_for_level(N: int) -> EisensteinBasis:
    return EisensteinBasis(N)


def indicator_basis(N: int, n_max: int, digits: int) -> dict:
    """Map cusp -> q-expansion of the indicator form F at that cusp, through q^n_max.

    The coefficients are exact and reduced (`EisensteinBasis.indicator_qexps`): a zero
    stays an exact 0, one equal to its conjugate becomes an mpf, any other an mpc.
    x = scale sum_u C[u] zeta_N^u is summed exactly from roots rounded to p bits, each
    within 2^(3 - p) of zeta_N^u, and rounded twice more; with 2^b > |scale| sum_u |C[u]|,
    p = digits log2(10) + b + 4 bits keep its error below 10^-digits.
    """
    eb = basis_for_level(N)
    exact = eb.indicator_qexps(n_max)
    b = max(ceil(abs(scale) * int(np.abs(C).sum(axis=1).max())).bit_length() for scale, C in exact)
    out = {}
    with mp.workprec(ceil(digits * log2(10)) + b + 4):
        roots = [mp.expjpi(mpf(2 * u) / N) for u in range(exact[0][1].shape[1])]
        for cusp, (scale, C) in zip(eb.cusps, exact):
            conj = _reduce(np.pad(C, ((0, 0), (0, N - C.shape[1])))[:, (-np.arange(N)) % N], N)
            coeffs = {}
            for n in np.flatnonzero(C.any(axis=1)).tolist():
                us = np.flatnonzero(C[n]).tolist()
                real = (C[n] == conj[n]).all()
                x = mp.fdot(C[n, us].tolist(), [roots[u].real if real else roots[u] for u in us])
                coeffs[n] = x * scale.numerator / scale.denominator
            out[cusp] = FourierSeries(coeffs, n_max + 1)
    return out


def infinity_indicator(N: int, n_max: int) -> FourierSeries:
    """F^infinity_{N,2}, 1 at the infinite cusp and 0 at all other cusps, in exact rationals.

    It is prod over p^e || N of (p^2 E2(p^e z) - E2(p^(e-1) z))/(p^2 - 1), the product
    multiplying dilations, E2(d z) E2(d' z) -> E2(d d' z).  The weights of the E2(d z)
    sum to 1, and E2(d z) = 1 - 24 sum sigma_1(n) q^(d n) with sigma_1 from `_divisor_sums`.
    """
    weights = {1: Fraction(1)}
    for p, e in _factors(N):
        local = {p ** e: Fraction(p * p, p * p - 1), p ** (e - 1): Fraction(-1, p * p - 1)}
        weights = {d * d2: w * w2 for d, w in weights.items() for d2, w2 in local.items()}
    sigma1 = _divisor_sums(n_max, 1)
    coeffs = {0: 1}
    for d, w in weights.items():
        for n in range(1, n_max // d + 1):
            coeffs[d * n] = coeffs.get(d * n, 0) - 24 * w * sigma1[n]
    return FourierSeries(coeffs, n_max + 1)
