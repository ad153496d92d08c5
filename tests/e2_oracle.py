"""The textbook weight-2 Eisenstein spanning set, kept as a test oracle.

{E2(z)} u {E2(z) - d E2(dz) : d | N, d > 1} with exact q-expansions, and the
numerical cusp limits of completed E2-combinations.  The package builds only the
infinity indicator from E2(dz) (`eisenstein.infinity_indicator`, with its own
sigma_1 sieve); this span cannot separate same-denominator cusps at the
non-squarefree levels, so the other indicators come from vector Eisenstein
orbits, and these forms check both constructions independently.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from mpmath import mp, mpf, mpc

from shiftedconv.eisenstein import Cusp, _scaling_matrix
from shiftedconv.series import FourierSeries


@lru_cache(maxsize=4096)
def _sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def e2_series(d: int, n_max: int) -> FourierSeries:
    """E2(d z) = 1 - 24 sum sigma_1(n) q^{dn}, exact coefficients, O(q^{n_max+1})."""
    coeffs = {0: 1}
    for n in range(1, n_max // d + 1):
        coeffs[d * n] = -24 * _sigma1(n)
    return FourierSeries(coeffs, n_max + 1)


@dataclass
class RawForm:
    """A spanning form: E2(z) itself or E2(z) - d E2(dz), with its V-weights."""

    name: str
    weights: dict          # {d: coefficient} meaning sum coeff * E2(d z)
    qexp: FourierSeries


def raw_basis(N: int, n_max: int):
    """{E2(z)} u {E2(z) - d E2(dz) : d | N, d > 1} with q-expansions."""
    rows = [RawForm("E2", {1: Fraction(1)}, e2_series(1, n_max))]
    for d in range(2, N + 1):
        if N % d == 0:
            rows.append(RawForm(
                f"E2 - {d} E2({d}z)",
                {1: Fraction(1), d: Fraction(-d)},
                e2_series(1, n_max) - d * e2_series(d, n_max)))
    return rows


def _e2_star_value(w):
    """E2*(w) = 1 - 24 sum sigma_1(n) e^{2 pi i n w} - 3/(pi Im w)."""
    q = mp.expjpi(2 * w)
    tol = mpf(10) ** (-(mp.dps + 3))
    total = mp.mpc(0)
    qn = q
    n = 1
    while abs(qn) * (n * n) > tol and n < 100000:
        total += _sigma1(n) * qn
        qn *= q
        n += 1
    return 1 - 24 * total - 3 / (mp.pi * w.imag)


def _ext_gcd(a: int, b: int):
    """(g, (x, y)) with a x + b y = g = gcd(a, b)."""
    if b == 0:
        return (abs(a), (1 if a >= 0 else -1, 0))
    g, (x, y) = _ext_gcd(b, a % b)
    return g, (y, x - (a // b) * y)


def _hnf_triple(m11: int, m12: int, m21: int, m22: int):
    """(A,B,D) with [[m11,m12],[m21,m22]] = gamma [[A,B],[0,D]], gamma in SL2(Z)."""
    g = gcd(m11, m21)
    r, s = -m21 // g, m11 // g
    _, (u, v) = _ext_gcd(s, r)          # u s + v r = 1
    p, q = u, -v
    a = p * m11 + q * m21
    b = p * m12 + q * m22
    d = r * m12 + s * m22
    if a < 0:
        a, b, d = -a, -b, -d
    b %= d
    return a, b, d


def cusp_constant(weights: dict, cusp: Cusp, digits: int = None):
    """Numerical limit of a completed E2-combination slashed to a cusp.

    `weights` maps d -> coefficient for sum coeff * E2*(d z).  Each E2*(d z) slashed
    by the cusp's scaling matrix is an exact rescaling of E2* at a transported point
    (column Hermite reduction), evaluated up a Y-ladder and Richardson-extrapolated.
    """
    digits = digits or mp.dps
    sigma = _scaling_matrix(cusp)
    a, b, c, dd = sigma
    with mp.workdps(digits + 10):
        dmax = max(weights)
        y0 = mpf(dmax) * (digits * 2.303 / 6.283 + 4)
        vals = []
        for k in (1, 2, 4):
            y = y0 * k
            tot = mp.mpc(0)
            for d, coeff in weights.items():
                A2, B2, D2 = _hnf_triple(d * a, d * b, c, dd)
                cf = mpf(coeff.numerator) / coeff.denominator if isinstance(coeff, Fraction) else coeff
                # (E2* o (d .)) |_2 sigma = D2^{-2} E2*((A2 z + B2)/D2) with A2 D2 = d
                tot += cf * _e2_star_value((mpc(B2, A2 * y)) / D2) / (D2 * D2)
            vals.append(tot)
        r1 = 2 * vals[1] - vals[0]
        r2 = 2 * vals[2] - vals[1]
        if abs(r2 - r1) > mpf(10) ** (-(digits - 8)) * (1 + abs(r2)):
            raise ArithmeticError(f"cusp-limit extrapolation disagreement at {cusp}")
        return r2
