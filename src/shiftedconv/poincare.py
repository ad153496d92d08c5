"""Kloosterman sums and Bessel-series Fourier coefficients of Poincare series."""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

import numpy as np
from mpmath import mp, mpf

from .config import memo

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


# -- fast float path for the c-sums -----------------------------------------

@memo
def _unit_tables(c: int):
    """(d, dbar) arrays over the units mod c, cached."""
    ds = np.array([d for d in range(1, c) if gcd(d, c) == 1], dtype=np.int64)
    dbars = np.array([pow(int(d), -1, c) for d in ds], dtype=np.int64)
    return ds, dbars


def kloosterman_float(m: int, n: int, c: int) -> float:
    """Double-precision K(m, n; c) for the series assembly."""
    if c == 1:
        return 1.0
    ds, dbars = _unit_tables(c)
    ang = ((m * dbars + n * ds) % c) * (_TWO_PI / c)
    return float(np.cos(ang).sum())


def _bessel_j(order: int, x: float) -> float:
    return float(mp.besselj(order, x))


def _bessel_i(order: int, x: float) -> float:
    return float(mp.besseli(order, x))


class CoefficientSum(NamedTuple):
    value: float
    tail_estimate: float


def bp_coefficient(m: int, k: int, N: int, n: int, c_max: int) -> CoefficientSum:
    """Fourier coefficient b_P(m, k, N; n) of the weight-k index-m Poincare series.

    (n/m)^{(k-1)/2} (delta_{mn} + 2 pi i^{-k} sum_{N | c <= c_max}
                     J_{k-1}(4 pi sqrt(mn)/c) K(m,n;c)/c)

    in the classical Petersson normalization.  The tail estimate is the accumulated
    magnitude of the last decade of c-terms.
    """
    if k < 2 or k % 2:
        raise ValueError("weight must be a positive even integer")
    if m < 1 or n < 1:
        raise ValueError("indices must be positive")
    front = (n / m) ** ((k - 1) / 2)
    sign = (-1) ** (k // 2)  # i^{-k}
    arg0 = 4 * np.pi * np.sqrt(m * n)
    total = 0.0
    tail = 0.0
    for c in range(N, c_max + 1, N):
        term = _bessel_j(k - 1, arg0 / c) * kloosterman_float(m, n, c) / c
        total += term
        if c > 0.9 * c_max:
            tail += abs(term)
    value = front * ((1.0 if m == n else 0.0) + 2 * np.pi * sign * total)
    return CoefficientSum(value, front * 2 * np.pi * tail)


def bq_coefficient(m: int, k: int, N: int, n: int, c_max: int) -> CoefficientSum:
    """Fourier coefficient b_Q(-m, k, N; n) of the index--m Maass-Poincare series.

    n >= 1:  -2 pi (-1)^(k/2) (m/n)^{(k-1)/2} sum_{N|c} K(-m, n; c)/c I_{k-1}(4 pi sqrt(mn)/c)
    n == 0:  -(2^k pi^k (-1)^(k/2) m^{k-1}/(k-1)!) sum_{N|c} K(-m, 0; c)/c^k
    """
    if k < 2 or k % 2:
        raise ValueError("weight must be a positive even integer")
    if m < 1 or n < 0:
        raise ValueError("index must be positive and n nonnegative")
    sign = (-1) ** (k // 2)
    total = 0.0
    tail = 0.0
    if n == 0:
        from math import factorial, pi
        front = -(2 ** k) * pi ** k * sign * m ** (k - 1) / factorial(k - 1)
        for c in range(N, c_max + 1, N):
            term = kloosterman_float(-m, 0, c) / c ** k
            total += term
            if c > 0.9 * c_max:
                tail += abs(term)
        return CoefficientSum(front * total, abs(front) * tail)
    front = -2 * np.pi * sign * (m / n) ** ((k - 1) / 2)
    arg0 = 4 * np.pi * np.sqrt(m * n)
    for c in range(N, c_max + 1, N):
        term = kloosterman_float(-m, n, c) / c * _bessel_i(k - 1, arg0 / c)
        total += term
        if c > 0.9 * c_max:
            tail += abs(term)
    return CoefficientSum(front * total, abs(front) * tail)
