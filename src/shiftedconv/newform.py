"""Fourier coefficients a_E(n) of the weight-2 newform and the Eichler integral."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import numpy as np

from .config import memo
from .curves import EllipticCurveModel
from .series import FourierSeries


def _smallest_prime_factors(n: int) -> np.ndarray:
    """spf[k] for 0 <= k <= n, an int64 array: the least prime factor of k (spf[k] = k for
    primes, 0 and 1)."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == 0:
            multiples = spf[p * p::p]
            multiples[multiples == 0] = p
    unset = spf == 0
    spf[unset] = np.nonzero(unset)[0]
    return spf


def _divisor_sums(n_max: int, j: int) -> list:
    """[sigma_j(0) = 0, sigma_j(1), ..., sigma_j(n_max)] from one divisor sieve."""
    sums = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        power = d ** j
        for m in range(d, n_max + 1, d):
            sums[m] += power
    return sums


def _factors(c: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing c, p ascending, by trial division."""
    out, rest, p = [], c, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
        p += 1
    return out


def _count_points_char_sum(model: EllipticCurveModel, p: int) -> int:
    """#E(F_p) for odd p via the quadratic character of 4x^3 + b2 x^2 + 2b4 x + b6."""
    if p > 1_300_000:
        raise ValueError("prime too large for the single-reduction Horner kernel")
    b2, b4, b6 = model.b2 % p, model.b4 % p, model.b6 % p
    x = np.arange(p, dtype=np.int64)
    # (4x + b2) x + 2 b4 <= 4.1 p^2, times x stays below 2^63 for p <= 1.3e6
    f = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
    sq = np.zeros(p, dtype=bool)
    sq[x * x % p] = True
    counts = np.bincount(f, minlength=p)
    n_zero = int(counts[0])
    n_square = int(counts[sq].sum()) - (n_zero if sq[0] else 0)
    # chi sum = (+1) squares + (-1) nonsquares, zeros contribute 0
    chi_sum = 2 * n_square + n_zero - p
    return int(1 + p + chi_sum)


def _count_points_mod_2(model: EllipticCurveModel) -> int:
    """#E(F_2): the affine points among the four of F_2^2, plus infinity."""
    a1, a2, a3, a4, a6 = model.ainvs
    return 1 + sum((y * y + a1 * x * y + a3 * y - x * x * x - a2 * x * x - a4 * x - a6) % 2 == 0
                   for x in (0, 1) for y in (0, 1))


def ap_point_count(model: EllipticCurveModel, p: int) -> int:
    """a_p = p + 1 - #E(F_p) for the reduction of the minimal model at any prime p.

    At a good prime this is the trace of Frobenius.  At a bad prime the reduction has
    exactly one singular point, and it is rational, so the same count gives the
    split/nonsplit/additive code 1, -1 or 0.
    """
    ap = p + 1 - (_count_points_mod_2(model) if p == 2 else _count_points_char_sum(model, p))
    if ap * ap > 4 * p:
        raise ArithmeticError(f"Hasse bound violated at p={p} for {model.label}")
    return ap


class _CoefficientTable:
    """a(0..n) of one model (a(0) = 0) as one read-only int64 array, grown on demand.

    Growing keeps every entry already known, so a_p is point-counted once per prime
    however the requested lengths arrive.
    """

    def __init__(self, model: EllipticCurveModel):
        self.model = model
        self.a = np.array([0, 1], dtype=np.int64)
        self.a.setflags(write=False)

    def prefix(self, n_max: int) -> np.ndarray:
        if n_max >= len(self.a):
            self._grow(n_max)
        return self.a[:n_max + 1]

    def _grow(self, n_max: int) -> None:
        a = self.a.tolist() + [0] * (n_max + 1 - len(self.a))
        spf = _smallest_prime_factors(n_max).tolist()
        N = self.model.conductor
        for n in range(len(self.a), n_max + 1):
            p = spf[n]
            if p == n:
                a[n] = ap_point_count(self.model, p)
                continue
            pk, m = p, n // p
            while m % p == 0:
                m //= p
                pk *= p
            if m > 1:
                a[n] = a[pk] * a[m]
            elif N % p:
                # Hecke recursion at a good prime: a(p^k) = a(p) a(p^(k-1)) - p a(p^(k-2))
                a[n] = a[p] * a[n // p] - p * a[n // (p * p)]
            else:
                # bad prime: a(p^k) = a(p)^k
                a[n] = a[p] * a[n // p]
        table = np.array(a, dtype=np.int64)
        table.setflags(write=False)
        self.a = table


@memo
def _an_table(model: EllipticCurveModel) -> _CoefficientTable:
    return _CoefficientTable(model)


def an_coefficients(model: EllipticCurveModel, n_max: int) -> FourierSeries:
    """The newform q-expansion sum a(n) q^n, exact integer coefficients, O(q^{n_max+1})."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    table = an_array(model, n_max).tolist()
    return FourierSeries({n: table[n] for n in range(1, n_max + 1) if table[n]}, n_max + 1)


def an_array(model: EllipticCurveModel, n_max: int) -> np.ndarray:
    """a(0..n_max) as a read-only int64 view (a(0) = 0), for bulk numeric work."""
    return _an_table(model).prefix(n_max)


def eichler_integral(f: FourierSeries) -> FourierSeries:
    """Term-by-term antiderivative: coefficient at q^n becomes a(n)/n."""
    if f.leading_exponent < 1:
        raise ValueError("Eichler integral needs leading exponent >= 1")
    out = {}
    for e, c in f.coeffs.items():
        out[e] = Fraction(c, e) if isinstance(c, int) else c / e
    return FourierSeries(out, f.truncation)
