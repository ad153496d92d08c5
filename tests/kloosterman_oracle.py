"""Kloosterman sums and the per-n c-sums of the Poincare series, kept as test oracles.

`poincare.bp_coefficient` and `bq_coefficient` visit each modulus once for all n
and read K(m, n; c) as a product of DFT tables over the prime powers of c.  This
module sums K(m, n; c) directly over the units of c instead: `kloosterman` in
mpmath at the ambient precision, `kloosterman_float` in double precision from
units listed with `gcd` and `pow`.  `bp_per_n` and `bq_per_n` run one c-sum per n
with `kloosterman_float`.  The two paths add up different roundings, so they agree
to a tolerance, not bit for bit.  The listing starts at d = 0, which is a unit only
for c = 1, so K(m, n; 1) = 1 needs no special case.
"""

from functools import cache
from math import factorial, gcd, pi

import numpy as np
from mpmath import mp, mpf

from shiftedconv.poincare import CoefficientSum, _bessel_i, _bessel_j

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


def bp_per_n(m: int, k: int, N: int, n: int, c_max: int) -> CoefficientSum:
    front = (n / m) ** ((k - 1) / 2)
    sign = (-1) ** (k // 2)
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


def bq_per_n(m: int, k: int, N: int, n: int, c_max: int) -> CoefficientSum:
    sign = (-1) ** (k // 2)
    total = 0.0
    tail = 0.0
    if n == 0:
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
