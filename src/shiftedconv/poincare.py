"""Kloosterman sums and Bessel-series Fourier coefficients of Poincare series."""

from __future__ import annotations

from math import factorial, gcd, inf, lcm, pi
from typing import NamedTuple, Sequence

import numpy as np

_TWO_PI = 2 * np.pi


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


def _units(c: int):
    """(d, dbar) int64 arrays over the units d mod c, d ascending.

    The units are what is left of 0..c-1 once the multiples of each prime p | c are
    struck out.  dbar = d^(lambda(c) - 1) mod c, with lambda Carmichael's function, by
    square-and-multiply on the whole array; every product stays below c^2 < 2^63.
    """
    mask = np.ones(c, dtype=bool)
    lam = 1
    for p, e in _factors(c):
        mask[::p] = False
        lam = lcm(lam, p ** (e - 1) * (p - 1) if p > 2 or e < 3 else 2 ** (e - 2))
    ds = np.flatnonzero(mask).astype(np.int64)
    dbars = np.ones_like(ds) % c  # 1 mod c, which is 0 when c = 1
    base, e = ds, lam - 1
    while e:
        if e & 1:
            dbars = dbars * base % c
        base = base * base % c
        e >>= 1
    return ds, dbars


def _kloosterman_table(g: int, q: int) -> np.ndarray:
    """K(g, t; q) for t = 0 .. q-1: the DFT of e(-g dbar/q) over the units d mod q.

    K(g, t; q) is real, so it equals sum_d e(-(g dbar + t d)/q), entry t of the DFT.
    """
    ds, dbars = _units(q)
    u = np.zeros(q, dtype=complex)
    u[ds] = np.exp(-1j * (_TWO_PI / q) * (g * dbars % q))
    return np.fft.fft(u).real.copy()  # not a view that keeps the complex array alive


def kloosterman_row(m: int, ns: np.ndarray, c: int, tables: dict | None = None) -> np.ndarray:
    """Double-precision K(m, n; c) for every n in the int64 array `ns`.

    K(m, n; c) is the product over the prime powers q || c of K(m rbar, n rbar; q),
    where rbar is the inverse of c/q mod q (twisted multiplicativity).  Write
    m rbar = g a mod q with g = gcd(m rbar, q); a is then a unit mod q, and
    substituting d -> a d turns the factor into K(g, a rbar n; q).  It is read from
    the table of K(g, t; q), t mod q, kept in `tables` under (q, g) and built on
    first use; a caller that passes one dict for many moduli builds each table once.
    """
    if c < 1:
        raise ValueError("modulus must be positive")
    if tables is None:
        tables = {}
    out = np.ones(len(ns))
    for p, e in _factors(c):
        q = p ** e
        rbar = pow(c // q, -1, q)
        a = m * rbar % q
        g = gcd(a, q)  # q when a = 0
        table = tables.get((q, g))
        if table is None:
            table = tables[q, g] = _kloosterman_table(g, q)
        out *= table[(a // g or 1) * rbar % q * ns % q]
    return out


def _bessel_series(order: int, x: float, sign: int) -> float:
    """sum_k sign^k (x/2)^(2k+order) / (k! (k+order)!) for x >= 0, correctly rounded.

    The terms are Python integers scaled by 2^B.  Each is the floor of the last one
    times the exact ratio (x/2)^2 / (k (k+order)), so it falls short of the true term
    by less than (k+1) max(1, P_k) <= (k+1) e^x units, P_k being the ratio of term k
    to term 0.  The sum stops at the first zero term K past which every ratio is below
    1/2, so the terms left out add up to at most the shortfall of term K, and the sum
    is within (K+2)^2 e^x units of the series.  B starts at 64 bits plus what the
    cancellation (e^x) and a small leading term (x/2)^order / order! cost, and doubles
    until both ends of that error interval round to the same double (Ziv's strategy),
    which is then the correctly rounded value.  No mpmath precision enters.
    """
    if x == 0:
        return float(order == 0)
    p, q = x.as_integer_ratio()
    s = q.bit_length()  # x/2 = p / 2^s, as q is a power of two
    p2, shift = p * p, 2 * s  # (x/2)^2 = p2 / 2^shift
    stop = 2 * p2 >> shift  # past k (k+order) > 2 (x/2)^2 every ratio is below 1/2
    cancel = int(x * 1.4426950408889634) + 2  # e^x < 2^cancel
    lead = factorial(order)
    # the leading term (x/2)^order / order! exceeds 2^-small
    small = lead.bit_length() - order * (p.bit_length() - 1 - s)
    bits = 64 + cancel + max(0, small)
    while True:
        term = (p ** order << bits) // (lead << s * order)
        total, k = term, 0
        while term or k * (k + order) <= stop:
            k += 1
            term = (term * p2 >> shift) // (k * (k + order))
            total += -term if sign < 0 and k & 1 else term
        err = (k + 2) ** 2 << cancel
        try:
            lo, hi = (total - err) / (1 << bits), (total + err) / (1 << bits)
        except OverflowError:  # I_order(x) beyond the largest double
            return inf
        if lo == hi:
            return lo
        bits *= 2


def _bessel_j(order: int, x: float) -> float:
    """J_order(x) for x >= 0, correctly rounded to double."""
    return _bessel_series(order, float(x), -1)


def _bessel_i(order: int, x: float) -> float:
    """I_order(x) for x >= 0, correctly rounded to double."""
    return _bessel_series(order, float(x), 1)


class CoefficientSum(NamedTuple):
    value: float
    tail_estimate: float


def _c_series(m: int, ns: Sequence[int], N: int, c_max: int, term):
    """Sum term(i, c, K(m, ns[i]; c)) over c = N, 2N, ... <= c_max for every i.

    Returns (totals, tails); a tail is the accumulated magnitude of the terms of
    the last decade, c > 0.9 c_max.  The Kloosterman tables are shared by the moduli
    of this call and dropped when it returns.
    """
    if N < 1:
        raise ValueError("level must be positive")
    rows = np.asarray(ns, dtype=np.int64)
    totals = [0.0] * len(ns)
    tails = [0.0] * len(ns)
    tables = {}
    for c in range(N, c_max + 1, N):
        for i, kl in enumerate(kloosterman_row(m, rows, c, tables).tolist()):
            t = term(i, c, kl)
            totals[i] += t
            if c > 0.9 * c_max:
                tails[i] += abs(t)
    return totals, tails


def bp_coefficient(m: int, k: int, N: int, ns: Sequence[int], c_max: int) -> list[CoefficientSum]:
    """Fourier coefficients b_P(m, k, N; n), n in `ns`, of the weight-k index-m Poincare series.

    (n/m)^{(k-1)/2} (delta_{mn} + 2 pi i^{-k} sum_{N | c <= c_max}
                     J_{k-1}(4 pi sqrt(mn)/c) K(m,n;c)/c)

    in the classical Petersson normalization, one entry per index.  Each modulus c
    is visited once for all n.  The tail estimate is the accumulated magnitude of
    the last decade of c-terms.
    """
    if k < 2 or k % 2:
        raise ValueError("weight must be a positive even integer")
    if m < 1 or any(n < 1 for n in ns):
        raise ValueError("indices must be positive")
    sign = (-1) ** (k // 2)  # i^{-k}
    args = [4 * np.pi * np.sqrt(m * n) for n in ns]
    totals, tails = _c_series(m, ns, N, c_max,
                              lambda i, c, kl: _bessel_j(k - 1, args[i] / c) * kl / c)
    out = []
    for n, total, tail in zip(ns, totals, tails):
        front = (n / m) ** ((k - 1) / 2)
        value = front * ((1.0 if m == n else 0.0) + 2 * np.pi * sign * total)
        out.append(CoefficientSum(value, front * 2 * np.pi * tail))
    return out


def bq_coefficient(m: int, k: int, N: int, ns: Sequence[int], c_max: int) -> list[CoefficientSum]:
    """Fourier coefficients b_Q(-m, k, N; n), n in `ns`, of the index--m Maass-Poincare series.

    n >= 1:  -2 pi (-1)^(k/2) (m/n)^{(k-1)/2} sum_{N|c} K(-m, n; c)/c I_{k-1}(4 pi sqrt(mn)/c)
    n == 0:  -(2^k pi^k (-1)^(k/2) m^{k-1}/(k-1)!) sum_{N|c} K(-m, 0; c)/c^k

    One entry per index; each modulus c is visited once for all n.
    """
    if k < 2 or k % 2:
        raise ValueError("weight must be a positive even integer")
    if m < 1 or any(n < 0 for n in ns):
        raise ValueError("index must be positive and n nonnegative")
    sign = (-1) ** (k // 2)
    args = [4 * np.pi * np.sqrt(m * n) for n in ns]

    def term(i, c, kl):
        if ns[i] == 0:
            return kl / c ** k
        return kl / c * _bessel_i(k - 1, args[i] / c)

    totals, tails = _c_series(-m, ns, N, c_max, term)
    out = []
    for n, total, tail in zip(ns, totals, tails):
        if n == 0:
            front = -(2 ** k) * pi ** k * sign * m ** (k - 1) / factorial(k - 1)
        else:
            front = -2 * np.pi * sign * (m / n) ** ((k - 1) / 2)
        out.append(CoefficientSum(front * total, abs(front) * tail))
    return out
