"""Kloosterman sums and Bessel-series Fourier coefficients of Poincare series."""

from __future__ import annotations

from math import factorial, gcd, pi
from typing import NamedTuple, Sequence

import numpy as np
from mpmath import mp, mpf

_TWO_PI = 2 * np.pi


def kloosterman(m: int, n: int, c: int):
    """K(m, n; c) = sum over units d mod c of exp(2 pi i (m dbar + n d)/c).

    Exact-angle evaluation at the current mpmath precision; the result is real up to
    rounding (d <-> -d pairing) and symmetric in (m, n).
    """
    if c < 1:
        raise ValueError("modulus must be positive")
    if c == 1:
        return mp.mpf(1)
    total = mp.mpf(0)
    for d in range(1, c):
        if gcd(d, c) != 1:
            continue
        dbar = pow(d, -1, c)
        total += mp.cospi(mpf(2 * ((m * dbar + n * d) % c)) / c)
    return total


# -- float path for the c-sums: one visit per modulus for all n ----------------------

def _units(c: int):
    """(d, dbar) int64 arrays over the units d mod c, d ascending.

    dbar = d^(phi(c) - 1) mod c by square-and-multiply on the whole array; every
    product stays below c^2 < 2^63.
    """
    r = np.arange(c, dtype=np.int64)
    ds = r[np.gcd(r, c) == 1]
    dbars = np.ones_like(ds) % c  # 1 mod c, which is 0 when c = 1
    base, e = ds, len(ds) - 1
    while e:
        if e & 1:
            dbars = dbars * base % c
        base = base * base % c
        e >>= 1
    return ds, dbars


def kloosterman_row(m: int, ns: np.ndarray, c: int) -> np.ndarray:
    """Double-precision K(m, n; c) for every n in the int64 array `ns`.

    Each sum gathers from one table of cos(2 pi j/c), j mod c, and adds up along its
    row of the (len(ns) x phi(c)) array of residues m dbar + n d mod c.
    """
    ds, dbars = _units(c)
    cos = np.cos(np.arange(c) * (_TWO_PI / c))
    return cos[(m * dbars + ns[:, None] * ds) % c].sum(axis=1)


# Bessel values at 53 bits, whatever the ambient mp.dps, so the float sums repeat exactly
def _bessel_j(order: int, x: float) -> float:
    with mp.workprec(53):
        return float(mp.besselj(order, x))


def _bessel_i(order: int, x: float) -> float:
    with mp.workprec(53):
        return float(mp.besseli(order, x))


class CoefficientSum(NamedTuple):
    value: float
    tail_estimate: float


def _c_series(m: int, ns: Sequence[int], N: int, c_max: int, term):
    """Sum term(i, c, K(m, ns[i]; c)) over c = N, 2N, ... <= c_max for every i.

    Returns (totals, tails); a tail is the accumulated magnitude of the terms of
    the last decade, c > 0.9 c_max.
    """
    if N < 1:
        raise ValueError("level must be positive")
    rows = np.asarray(ns, dtype=np.int64)
    totals = [0.0] * len(ns)
    tails = [0.0] * len(ns)
    for c in range(N, c_max + 1, N):
        for i, kl in enumerate(kloosterman_row(m, rows, c).tolist()):
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
