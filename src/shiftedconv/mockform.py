"""The Weierstrass mock modular form q-expansion and an eta-quotient engine."""

from __future__ import annotations

from mpmath import mp, mpf

from .config import memo
from .curves import EllipticCurveModel
from .lattice import build_lattice, g_numbers
from .newform import an_coefficients, eichler_integral
from .series import FourierSeries


def _real_part(x, digits):
    if abs(getattr(x, "imag", 0)) > mpf(10) ** (-(digits - 10)) * (1 + abs(x)):
        raise ArithmeticError(f"unexpected imaginary part in lattice constant: {x}")
    return x.real if hasattr(x, "imag") else x


@memo
def zhat_plus(model: EllipticCurveModel, n_max: int, precision: int) -> FourierSeries:
    """q-expansion q^-1 + c0 + c1 q + ... of the mock modular form, truncated past q^{n_max}.

    Assembled as 1/E - sum_{k>=1} G_{2k+2}(L) E^{2k+1} - S(L) E with E the Eichler
    integral and the G_{2k+2} exact over Q (g_numbers); modular degree 1 keeps the
    result pole-free so no meromorphic correction enters.  Odd powers of E are
    accumulated Horner-style.
    """
    lat = build_lattice(model, precision)
    with mp.workdps(precision + 10):
        f = an_coefficients(model, n_max + 2)
        eich = eichler_integral(f).to_mp()          # truncation n_max + 3
        s_val = _real_part(lat.s_lambda, precision)
        acc = eich.invert() - eich * s_val          # known below n_max + 1
        k_top = (n_max - 1) // 2
        if k_top >= 1:
            gs = [mpf(g.numerator) / g.denominator for g in g_numbers(model, 2 * k_top + 2)]
            esq = eich * eich
            power = eich
            for k in range(1, k_top + 1):
                power = power * esq                 # E^{2k+1}
                acc = acc - gs[k - 1] * power
        return acc.truncate(n_max + 1)


def eta_unit(m: int, rel_truncation) -> FourierSeries:
    """prod_{n>=1} (1 - q^{mn}) by the pentagonal number theorem, exact coefficients."""
    if m < 1:
        raise ValueError("eta multiplier must be a positive integer")
    t = rel_truncation
    coeffs = {0: 1}
    k = 1
    while True:
        p1 = m * k * (3 * k - 1) // 2
        p2 = m * k * (3 * k + 1) // 2
        if p1 >= t and p2 >= t:
            break
        sign = -1 if k % 2 else 1
        if p1 < t:
            coeffs[p1] = sign
        if p2 < t:
            coeffs[p2] = sign
        k += 1
    return FourierSeries(coeffs, t)


def eta_quotient(spec, n_max) -> FourierSeries:
    """Product of eta(m tau)^r factors, with leading exponent sum(m r)/24.

    `spec` is a list of (multiplier, exponent) pairs.  Series exponents are integers,
    so sum(m r) must be divisible by 24 (an eta-quotient on Gamma0(N) has integral
    order at infinity) or ValueError is raised.  Coefficients are exact and the
    returned series is known for exponents strictly below n_max.
    """
    spec = [(int(m), int(r)) for m, r in spec]
    order = sum(m * r for m, r in spec)
    lead, rest = divmod(order, 24)
    if rest:
        raise ValueError(f"eta quotient {spec} has non-integer order {order}/24 at infinity")
    rel = n_max - lead
    if rel <= 0:
        return FourierSeries.zero(n_max)
    prod = FourierSeries.one(rel)
    for m, r in spec:
        u = eta_unit(m, rel)
        if r < 0:
            u = u.invert()
            r = -r
        for _ in range(r):
            prod = prod * u
    return prod.truncate(rel).shift(lead)


# eta-quotient expressions for q d/dq of the mock form at the three rational-CM levels;
# the N=36 entry carries eta(18 tau)^3, the unique choice with leading exponent -1 and
# weight 2 (verified against the mock form to 60 coefficients)
ETA_DERIVATIVE_TABLE = {
    27: (-1, [(3, 1), (9, 6), (27, -3)]),
    32: (-1, [(4, 2), (16, 6), (32, -4)]),
    36: (-1, [(6, 3), (12, 1), (18, 3), (36, -3)]),
}


def eta_derivative_series(conductor: int, n_max) -> FourierSeries:
    """The tabulated eta-quotient equal to q d/dq of the mock form (N = 27, 32, 36)."""
    if conductor not in ETA_DERIVATIVE_TABLE:
        raise KeyError(f"no eta-quotient tabulated for conductor {conductor}")
    sign, spec = ETA_DERIVATIVE_TABLE[conductor]
    return eta_quotient(spec, n_max) * sign


def eta_derivative_deviation(model: EllipticCurveModel, n_max: int, digits: int):
    """max |(q d/dq Zhat^+)[e] - eta[e]| over e = -1 .. n_max, at `digits` working digits."""
    eta = eta_derivative_series(model.conductor, n_max + 1)
    with mp.workdps(digits):
        dz = zhat_plus(model, n_max, digits).q_derivative()
        return max(abs(dz[e] - mpf(eta[e].numerator) / eta[e].denominator)
                   for e in range(-1, n_max + 1))
