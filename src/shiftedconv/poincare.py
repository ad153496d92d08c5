"""Kloosterman sums and Bessel-series Fourier coefficients of Poincare series."""

from __future__ import annotations

from math import inf, pi
from typing import Sequence

import numpy as np

from .config import Estimate
from .curves import SUPPORTED_CONDUCTORS
from .newform import _smallest_prime_factors

_TWO_PI = 2 * np.pi
_BATCH = 4096  # table entries whose units, inverses and phases are built together
_BLOCK = 1 << 18  # (moduli x n) entries a column block of the c-sums works on at once


def _column_blocks(n_rows: int, n_cols: int) -> list:
    """Slices cutting n_cols columns into blocks of at most _BLOCK entries of n_rows rows
    (at least one column each)."""
    width = max(1, _BLOCK // max(n_rows, 1))
    return [slice(lo, lo + width) for lo in range(0, n_cols, width)]


def _power_mod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base^exp mod `mod` elementwise on int64 arrays, mod >= 2, by square-and-multiply;
    every product stays below mod^2 < 2^63.  A bit set in every exponent, or in none,
    costs no select."""
    out = np.ones_like(base)
    base = base % mod
    for bit in range(int(exp.max(initial=0)).bit_length()):
        odd = exp >> bit & 1
        if odd.all():
            out = out * base % mod
        elif odd.any():
            out = np.where(odd, out * base % mod, out)
        base = base * base % mod
    return out


def _carmichael(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Carmichael's lambda(q) of the prime powers q = p^e, elementwise."""
    return np.where((p == 2) & (q >= 8), q // 4, q // p * (p - 1))


def _factor_ranks(cs: np.ndarray, spf: np.ndarray) -> list:
    """The prime powers exactly dividing each modulus, by rank: entry k holds (rows, q)
    for the moduli cs[rows] with more than k prime factors, q the k-th of their prime
    powers, primes ascending.  spf is the smallest-prime-factor sieve to max(cs)."""
    ranks, rest = [], cs.copy()
    rows = np.flatnonzero(rest > 1)
    while rows.size:
        r = rest[rows]
        p = spf[r]
        q = p.copy()
        r //= p
        more = r % p == 0
        while more.any():
            q[more] *= p[more]
            r[more] //= p[more]
            more = r % p == 0
        rest[rows] = r
        ranks.append((rows, q))
        rows = rows[r > 1]
    return ranks


def _distinct_by_prime(q: np.ndarray, spf: np.ndarray) -> np.ndarray:
    """The distinct prime powers of q, ordered by prime and then by exponent.

    Built without sorting: a process's first numpy sort maps the sort kernels, 0.1 to
    0.8 MB of resident code, which would show in the peak RSS of every `poincare` run.
    """
    top = int(q.max())
    seen = np.zeros(top + 2, dtype=bool)
    seen[q] = True
    primes = np.flatnonzero(np.bincount(spf[q]))
    powers = [primes]
    while powers[-1].min() <= top:
        powers.append(np.minimum(powers[-1] * primes, top + 1))
    grid = np.stack(powers, axis=1).ravel()  # row i: the powers of the i-th prime
    return grid[seen[grid]]


def _kloosterman_tables(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """K(1, t; q) for t = 0 .. q-1 at each prime power q = p^e of `qs`, concatenated.

    Each table is the DFT of e(-dbar/q) over the units d mod q: K(1, t; q) is real, so
    it equals sum_d e(-(dbar + t d)/q), entry t of the DFT.  The units are the d prime
    to p.  For d <= q/2, dbar = d^(lambda(q) - 1) mod q, lambda Carmichael's function,
    and the inverse of q - d is q - dbar.  The units, inverses and phases of all the
    tables are built together, the DFTs one table at a time.
    """
    halves = qs // 2
    d = np.arange(int(halves.sum()) + len(qs))
    d -= np.repeat(np.cumsum(halves + 1) - halves - 1, halves + 1)  # 0 .. q/2 per table
    d = d[d % np.repeat(ps, halves + 1) != 0]  # the units 0 < d <= q/2
    count = halves - halves // ps
    q = np.repeat(qs, count)
    start = np.repeat(np.cumsum(qs) - qs, count)
    dbars = _power_mod(d, np.repeat(_carmichael(ps, qs) - 1, count), q)
    length = int(qs.sum())
    u = np.zeros(length, dtype=complex)
    phase = -1j * (_TWO_PI / q)
    u[start + d] = np.exp(phase * dbars)
    u[start + q - d] = np.exp(phase * (q - dbars))
    tables = np.empty(length)
    start = 0
    for size in qs.tolist():
        tables[start:start + size] = np.fft.fft(u[start:start + size]).real
        start += size
    return tables


def kloosterman_array(m: int, ns: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Double-precision K(m, n; c), m = 1 or -1, at every modulus c of the int64 array `cs`
    and every n of the int64 array `ns`, as a (len(cs), len(ns)) array.

    K(m, n; c) is the product over the prime powers q || c of K(m rbar, n rbar; q),
    where rbar is the inverse of c/q mod q (twisted multiplicativity).  m rbar is a
    unit mod q, and substituting d -> m rbar d turns the factor into
    K(1, m rbar^2 n; q), entry m rbar^2 n mod q of the table of K(1, t; q).

    The moduli are factored once, by the smallest-prime-factor sieve.  Their prime
    powers are taken by ascending prime and cut into batches of about `_BATCH` table
    entries; each batch's tables are built once, read and dropped before the next
    batch is built.  A batch's factors are gathered for all moduli of one factor rank
    at a time, one column block of `_column_blocks` after another, so every entry
    multiplies its factors in ascending prime order, starting from 1.
    """
    if m not in (1, -1):
        raise ValueError("index must be 1 or -1")
    if len(cs) and cs.min() < 1:
        raise ValueError("moduli must be positive")
    out = np.ones((len(cs), len(ns)))
    if not len(cs):
        return out
    spf = _smallest_prime_factors(int(cs.max()))
    ranks = _factor_ranks(cs, spf)
    qs = _distinct_by_prime(np.concatenate([q for _, q in ranks]), spf)
    place = np.zeros(qs.max() + 1, dtype=np.int64)
    place[qs] = np.arange(len(qs))
    starts = np.cumsum(qs) - qs
    batch = starts // _BATCH
    # per rank: the rows, their prime powers q, m rbar^2 mod q, and where q's table lies
    factors = []
    for rows, q in ranks:
        rbar = _power_mod(cs[rows] // q, _carmichael(spf[q], q) - 1, q)
        at = place[q]
        factors.append((rows, q, m * rbar * rbar % q, starts[at], batch[at]))
    lo = 0
    for hi in [*np.flatnonzero(np.diff(batch)) + 1, len(qs)]:
        tables = None  # drop the last batch before building this one
        tables = _kloosterman_tables(spf[qs[lo:hi]], qs[lo:hi])
        for rows, q, t, start, in_batch in factors:
            sel = in_batch == batch[lo]
            at, base = rows[sel], (start[sel] - starts[lo])[:, None]
            for cols in _column_blocks(len(at), len(ns)):
                out[at, cols] *= tables[base + t[sel, None] * ns[cols] % q[sel, None]]
        lo = hi
    return out


def _bessel_series(x: float, sign: int) -> float:
    """sum_k sign^k (x/2)^(2k+1) / (k! (k+1)!) for x >= 0, J_1 (sign -1) or I_1 (sign 1),
    correctly rounded.

    The terms are Python integers scaled by 2^B.  Each is the floor of the last one
    times the exact ratio (x/2)^2 / (k (k+1)), so it falls short of the true term
    by less than (k+1) max(1, P_k) <= (k+1) e^x units, P_k being the ratio of term k
    to term 0.  The sum stops at the first zero term K past which every ratio is below
    1/2, so the terms left out add up to at most the shortfall of term K, and the sum
    is within (K+2)^2 e^x units of the series.  B starts at 64 bits plus what the
    cancellation (e^x) and a small leading term x/2 cost, and doubles until both ends
    of that error interval round to the same double (Ziv's strategy), which is then
    the correctly rounded value.  No mpmath precision enters.
    """
    if x == 0:
        return 0.0
    p, q = x.as_integer_ratio()
    s = q.bit_length()  # x/2 = p / 2^s, as q is a power of two
    p2, shift = p * p, 2 * s  # (x/2)^2 = p2 / 2^shift
    stop = 2 * p2 >> shift  # past k (k+1) > 2 (x/2)^2 every ratio is below 1/2
    cancel = int(x * 1.4426950408889634) + 2  # e^x < 2^cancel
    small = s + 2 - p.bit_length()  # the leading term x/2 exceeds 2^-small
    bits = 64 + cancel + max(0, small)
    while True:
        term = (p << bits) >> s
        total, k = term, 0
        while term or k * (k + 1) <= stop:
            k += 1
            term = (term * p2 >> shift) // (k * (k + 1))
            total += -term if sign < 0 and k & 1 else term
        err = (k + 2) ** 2 << cancel
        try:
            lo, hi = (total - err) / (1 << bits), (total + err) / (1 << bits)
        except OverflowError:  # I_1(x) beyond the largest double
            return inf
        if lo == hi:
            return lo
        bits *= 2


_U = 2.0 ** -53  # unit roundoff of float64
_PASS_X_MAX = 4.0  # the array pass covers 0 <= x <= 4, z = (x/2)^2 <= 4
_PASS_ULPS = 4  # a pass value is kept when its error bound is at most this many ulps


def _bessel_pass(x: np.ndarray, sign: int):
    """The series of `_bessel_series` at every entry of the float64 array x, with error bounds.

    Returns (values, bounds) with |value - series(x)| <= bound, to first order in the
    unit roundoff u = 2^-53; bound is inf where x > 4, which the pass does not cover.
    With z = (x/2)^2, w_k = sign z / (k (k+1)) and r_(k-1) = 1 + w_k r_k, the series
    is (x/2) r_0.  Horner's scheme runs k = K .. 1 from r_K = 1 for all entries at
    once, with K the first index with w_(K+1) <= 1/2 and w_1 ... w_(K+1) < 2^-60 at
    z = 4.

    Running error bound (Higham, Accuracy and Stability of Numerical Algorithms, 5.1).
    The computed z^ = z (1 + d) and w^_k = w_k (1 + d)(1 + d_k); then p^_k = fl(w^_k r^_k)
    and r^_(k-1) = fl(1 + p^_k), every |d| <= u.  In

        r^_(k-1) - r_(k-1) = (r^_(k-1) - 1 - p^_k) + (p^_k - w^_k r^_k)
                             + (w^_k - w_k) r^_k + w_k (r^_k - r_k)

    the four parts are at most u |r^_(k-1)|, u |p^_k|, 2u |p^_k| and |w_k| e_k, so

        e_(k-1) = u (|r^_(k-1)| + 3 |p^_k|) + |w^_k| e_k

    bounds the error of r^_(k-1).  It starts from e_K = 2 |w^_(K+1)|, which bounds the
    omitted tail r_K - 1 = w_(K+1) (1 + w_(K+2) (1 + ...)), as the |w_j| decrease from
    at most 1/2.  The leading factor x/2 is exact, and the product (x/2) r^_0 rounds
    once more.  In all,

        bound = u |value| + (x/2) e_0.

    Where J_1's series cancels, e_0 is large against r^_0 and so is the bound.
    """
    inside = x <= _PASS_X_MAX
    h = np.where(inside, x, 0.0) * 0.5  # exact
    z = h * h
    big = (_PASS_X_MAX / 2) ** 2
    terms, ratio = 0, 1.0
    while True:
        w_next = big / ((terms + 1) * (terms + 2))
        ratio *= w_next
        if w_next <= 0.5 and ratio < 2.0 ** -60:
            break
        terms += 1
    sz = sign * z
    r = np.ones_like(z)
    err = 2 * np.abs(sz / ((terms + 1) * (terms + 2)))
    for k in range(terms, 0, -1):
        w = sz / (k * (k + 1))
        p = w * r
        r = 1 + p
        err = _U * (np.abs(r) + 3 * np.abs(p)) + np.abs(w) * err
    values = h * r
    bounds = _U * np.abs(values) + np.abs(h) * err
    bounds[~inside] = inf
    return values, bounds


def _bessel_array(x: np.ndarray, sign: int) -> np.ndarray:
    """`_bessel_series` at every entry of x: the array pass where its bound is at most
    4 ulps of its value, the correctly rounded scalar series everywhere else."""
    values, bounds = _bessel_pass(x, sign)
    slow = ~(bounds <= _PASS_ULPS * np.spacing(np.abs(values)))
    values[slow] = [_bessel_series(v, sign) for v in x[slow].tolist()]
    return values


def _c_series(ns: Sequence[int], N: int, c_max: int, sign: int):
    """Sum the c-terms of b_P (sign -1) or b_Q (sign 1) over c = N, 2N, ... <= c_max.

    The term at (c, n) is K(-sign, n; c)/c times J_1 (sign -1) or I_1 (sign 1) at
    4 pi sqrt(n)/c, and K(-sign, 0; c)/c^2 at n = 0.  The rows K(-sign, ns; c) of all
    moduli come from one `kloosterman_array` call.  Their Bessel factors, the terms and
    the sums are taken one column block of `_column_blocks` at a time, which bounds the
    temporaries of a long call and leaves every column's arithmetic as it is.  Returns
    (totals, tails) as lists, each total summed in c order; a tail is the accumulated
    magnitude of the terms of the last decade, c > 0.9 c_max.
    """
    if N not in SUPPORTED_CONDUCTORS:
        raise ValueError(f"level must be one of {SUPPORTED_CONDUCTORS}, got {N}")
    rows = np.asarray(ns, dtype=np.int64)
    cs = np.arange(N, c_max + 1, N)
    kl = kloosterman_array(-sign, rows, cs)
    col = cs[:, None].astype(float)
    last = cs > 0.9 * c_max
    totals, tails = np.empty(len(rows)), np.empty(len(rows))
    for cols in _column_blocks(len(cs), len(rows)):
        n, k = rows[cols], kl[:, cols]
        zero = n == 0
        args = 4 * np.pi * np.sqrt(n[~zero].astype(float))
        terms = np.empty_like(k)
        terms[:, ~zero] = k[:, ~zero] * _bessel_array(args / col, sign) / col
        if zero.any():
            terms[:, zero] = k[:, zero] / np.array([float(c ** 2) for c in cs.tolist()])[:, None]
        totals[cols], tails[cols] = _sum_in_order(terms), _sum_in_order(np.abs(terms[last]))
    return totals.tolist(), tails.tolist()


def _sum_in_order(a: np.ndarray) -> np.ndarray:
    """Column sums of a, each adding the rows in order (np.sum adds one column pairwise)."""
    return np.cumsum(a, axis=0)[-1] if len(a) else np.zeros(a.shape[1])


def bp_coefficient(N: int, ns: Sequence[int], c_max: int) -> list[Estimate]:
    """Fourier coefficients b_P(1, 2, N; n), n in `ns`, of the weight-2 Poincare series of index 1.

    sqrt(n) (delta_{1n} - 2 pi sum_{N | c <= c_max} J_1(4 pi sqrt(n)/c) K(1,n;c)/c)

    in the classical Petersson normalization, one entry per index; N is one of the
    ten levels.  Each modulus c is visited once for all n.  The error is the
    accumulated magnitude of the last decade of c-terms.
    """
    if any(n < 1 for n in ns):
        raise ValueError("indices must be positive")
    totals, tails = _c_series(ns, N, c_max, -1)
    out = []
    for n, total, tail in zip(ns, totals, tails):
        front = n ** 0.5
        value = front * ((1.0 if n == 1 else 0.0) - 2 * np.pi * total)
        out.append(Estimate(value, front * 2 * np.pi * tail))
    return out


def bq_coefficient(N: int, ns: Sequence[int], c_max: int) -> list[Estimate]:
    """Fourier coefficients b_Q(-1, 2, N; n), n in `ns`, of the weight-2 Maass-Poincare series
    of index -1.

    n >= 1:  2 pi n^{-1/2} sum_{N|c} K(-1, n; c)/c I_1(4 pi sqrt(n)/c)
    n == 0:  4 pi^2 sum_{N|c} K(-1, 0; c)/c^2

    One entry per index, N one of the ten levels; each modulus c is visited once for all n.
    The error is taken as in `bp_coefficient`.
    """
    if any(n < 0 for n in ns):
        raise ValueError("indices must be nonnegative")
    totals, tails = _c_series(ns, N, c_max, 1)
    out = []
    for n, total, tail in zip(ns, totals, tails):
        front = 4 * pi ** 2 if n == 0 else 2 * np.pi * (1 / n) ** 0.5
        out.append(Estimate(front * total, front * tail))
    return out
