"""Kloosterman sums and the per-n c-sums of the Poincare series, kept as test oracles.

`poincare.bp_coefficient` and `bq_coefficient` compute b_P(1, 2, N; n) and
b_Q(-1, 2, N; n), reading K(+-1, n; c) for all moduli at once from DFT tables of
K(1, t; q) over the prime powers q of c (`poincare.kloosterman_array`).
`kloosterman_row` is the same product one modulus at a time, each modulus factored
by trial division and each table built on its own (`_kloosterman_table`, `_units`);
the one-pass kernel must equal it bit for bit.

The rest of the module sums K(m, n; c), for any m, directly over the units of c:
`kloosterman` in mpmath at the ambient precision, `kloosterman_float` in double
precision from units listed with `gcd` and `pow`.  `bp_per_n` and `bq_per_n` run one
c-sum per n with `kloosterman_float` and the scalar series `poincare._bessel_series`
for J_1 and I_1.  These paths add up different roundings, so they agree with the
package to a tolerance, not bit for bit.  The listing starts at d = 0, which is a
unit only for c = 1, so K(m, n; 1) = 1 needs no special case.
"""

from functools import cache
from math import gcd, lcm, pi

import numpy as np
from mpmath import mp, mpf

from shiftedconv.newform import _factors
from shiftedconv.config import Estimate
from shiftedconv.poincare import _bessel_series

_TWO_PI = 2 * np.pi


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


def _kloosterman_table(q: int) -> np.ndarray:
    """K(1, t; q) for t = 0 .. q-1: the DFT of e(-dbar/q) over the units d mod q.

    K(1, t; q) is real, so it equals sum_d e(-(dbar + t d)/q), entry t of the DFT.
    """
    ds, dbars = _units(q)
    u = np.zeros(q, dtype=complex)
    u[ds] = np.exp(-1j * (_TWO_PI / q) * dbars)
    return np.fft.fft(u).real.copy()  # not a view that keeps the complex array alive


def kloosterman_row(m: int, ns: np.ndarray, c: int, tables: dict | None = None) -> np.ndarray:
    """Double-precision K(m, n; c), m = 1 or -1, for every n in the int64 array `ns`.

    K(m, n; c) is the product over the prime powers q || c of K(m rbar, n rbar; q),
    where rbar is the inverse of c/q mod q (twisted multiplicativity).  m rbar is a
    unit mod q, and substituting d -> m rbar d turns the factor into
    K(1, m rbar^2 n; q).  It is read from the table of K(1, t; q), t mod q, kept in
    `tables` under q and built on first use; a caller that passes one dict for many
    moduli builds each table once.
    """
    if m not in (1, -1):
        raise ValueError("index must be 1 or -1")
    if c < 1:
        raise ValueError("modulus must be positive")
    if tables is None:
        tables = {}
    out = np.ones(len(ns))
    for p, e in _factors(c):
        q = p ** e
        rbar = pow(c // q, -1, q)
        table = tables.get(q)
        if table is None:
            table = tables[q] = _kloosterman_table(q)
        out *= table[m * rbar * rbar % q * ns % q]
    return out


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


def bp_per_n(N: int, n: int, c_max: int) -> Estimate:
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
    return Estimate(value, front * 2 * np.pi * tail)


def bq_per_n(N: int, n: int, c_max: int) -> Estimate:
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
        return Estimate(front * total, front * tail)
    front = 2 * np.pi * (1 / n) ** 0.5
    arg0 = 4 * np.pi * np.sqrt(n)
    for c in range(N, c_max + 1, N):
        term = kloosterman_float(-1, n, c) / c * _bessel_series(arg0 / c, 1)
        total += term
        if c > 0.9 * c_max:
            tail += abs(term)
    return Estimate(front * total, front * tail)
