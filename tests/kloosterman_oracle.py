"""Kloosterman sums and the per-n c-sums of the Poincare series, kept as test oracles.

`poincare.bp_coefficient` and `bq_coefficient` compute b_P(1, 2, N; n) and
b_Q(-1, 2, N; n), visiting each modulus once for all n and reading K(+-1, n; c) as
a product of DFT tables of K(1, t; q) over the prime powers q of c.  This module
sums K(m, n; c), for any m, directly over the units of c instead: `kloosterman` in
mpmath at the ambient precision, `kloosterman_float` in double precision from
units listed with `gcd` and `pow`.  `bp_per_n` and `bq_per_n` run one c-sum per n
with `kloosterman_float` and the scalar series `poincare._bessel_series` for J_1
and I_1.  The two paths add up different roundings, so they agree to a tolerance,
not bit for bit.  The listing starts at d = 0, which is a unit only for c = 1, so
K(m, n; 1) = 1 needs no special case.
"""

from functools import cache
from math import gcd, pi

import numpy as np
from mpmath import mp, mpf

from shiftedconv.poincare import CoefficientSum, _bessel_series

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


@cache
def units_listing(c: int):
    """(d, dbar) arrays over the units mod c."""
    ds = np.array([d for d in range(c) if gcd(d, c) == 1], dtype=np.int64)
    dbars = np.array([pow(int(d), -1, c) for d in ds], dtype=np.int64)
    return ds, dbars


def kloosterman_float(m: int, n: int, c: int) -> float:
    """Double-precision K(m, n; c) from its own array of angles."""
    ds, dbars = units_listing(c)
    ang = ((m * dbars + n * ds) % c) * (_TWO_PI / c)
    return float(np.cos(ang).sum())


def bp_per_n(N: int, n: int, c_max: int) -> CoefficientSum:
    """b_P(1, 2, N; n) as `poincare.bp_coefficient` defines it, one c-term at a time."""
    front = n ** 0.5
    arg0 = 4 * np.pi * np.sqrt(n)
    total = 0.0
    tail = 0.0
    for c in range(N, c_max + 1, N):
        term = _bessel_series(arg0 / c, -1) * kloosterman_float(1, n, c) / c
        total += term
        if c > 0.9 * c_max:
            tail += abs(term)
    value = front * ((1.0 if n == 1 else 0.0) - 2 * np.pi * total)
    return CoefficientSum(value, front * 2 * np.pi * tail)


def bq_per_n(N: int, n: int, c_max: int) -> CoefficientSum:
    """b_Q(-1, 2, N; n) as `poincare.bq_coefficient` defines it, one c-term at a time."""
    total = 0.0
    tail = 0.0
    if n == 0:
        front = 4 * pi ** 2
        for c in range(N, c_max + 1, N):
            term = kloosterman_float(-1, 0, c) / c ** 2
            total += term
            if c > 0.9 * c_max:
                tail += abs(term)
        return CoefficientSum(front * total, front * tail)
    front = 2 * np.pi * (1 / n) ** 0.5
    arg0 = 4 * np.pi * np.sqrt(n)
    for c in range(N, c_max + 1, N):
        term = kloosterman_float(-1, n, c) / c * _bessel_series(arg0 / c, 1)
        total += term
        if c > 0.9 * c_max:
            tail += abs(term)
    return CoefficientSum(front * total, front * tail)
