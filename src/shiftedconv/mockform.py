"""The Weierstrass mock modular form q-expansion and an eta-quotient engine."""

from __future__ import annotations

from math import lcm

from mpmath import mp, mpf

from .config import memo
from .curves import EllipticCurveModel
from .lattice import build_lattice, g_numbers
from .newform import an_coefficients, eichler_integral
from .series import FourierSeries


@memo
def mock_parts(model: EllipticCurveModel, n_max: int) -> tuple:
    """(R, E), exact through q^{n_max}, with Zhat^+ = R - S E and E the Eichler integral.

    R = 1/E - sum_{k>=1} G_{2k+2} E^{2k+1} (G_2k: g_numbers) is pole-free as the modular
    degree is 1.  The powers are taken of the integer series L E, L = lcm(1 .. n_max + 2),
    and scaled by G_{2k+2}/L^{2k+1}.
    """
    t = n_max + 1
    eich = eichler_integral(an_coefficients(model, n_max + 2))    # known below n_max + 3
    scale = lcm(*range(1, n_max + 3))
    power = (eich * scale).truncate(t)
    square = power * power
    r = eich.invert()                                             # known below n_max + 1
    for k, g in enumerate(g_numbers(model, 2 * ((n_max - 1) // 2) + 2), start=1):
        power = (power * square).truncate(t)                      # (L E)^{2k+1}
        r = r - power * (g / scale ** (2 * k + 1))
    return r, eich.truncate(t)


def s_value(model: EllipticCurveModel, digits: int):
    """S(Lambda) in Zhat^+ = R - S E: Re S of the lattice, or R[1] at the CM levels, where
    Zhat^+ has no q^1 term and E = q + ... (R[1] = 0, 0, 0, 1/4 at N = 27, 32, 36, 49).
    A lattice S farther than 10^-digits from it raises ArithmeticError.

    Zhat^+[1] = b_Q(-1, 2, N; 1) is a sum of K(-1, 1; c) over N | c.  At 27, 36 and 49
    every such c has a factor p^a, a >= 2, with p = 3 or 7, and K(-1, 1; c) has the
    factor K(1, -rbar^2; p^a), rbar prime to p.  For odd p and a >= 2, K(m, n; p^a)
    vanishes unless mn is a square mod p (the evaluation of Kloosterman sums to
    prime-power moduli, Iwaniec-Kowalski, Analytic Number Theory), and -1 is not a
    square mod 3 or 7, so every term is 0.  At 32 (factor 2^a, a >= 5) the vanishing
    of K(-1, 1; c) rests on a test alone (`tests/test_poincare.py`, c <= 10^4)."""
    lattice_s = build_lattice(model, digits).s_lambda
    s = mock_parts(model, 1)[0][1] if model.has_cm else lattice_s.real
    with mp.workdps(digits + 10):
        if abs(lattice_s - s) > mpf(10) ** -digits:
            raise ArithmeticError(f"{model.label}: lattice S = {lattice_s} differs from S = {s}")
    return s


@memo
def zhat_plus(model: EllipticCurveModel, n_max: int, precision: int) -> FourierSeries:
    """q-expansion q^-1 + c0 + c1 q + ... of the mock modular form, truncated past q^{n_max}."""
    r, e = mock_parts(model, n_max)
    with mp.workdps(precision + 10):
        return r.to_mp() - e.to_mp() * s_value(model, precision)


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
    """max |(q d/dq Zhat^+)[e] - eta[e]| over e = -1 .. n_max, exact as S is at these levels."""
    eta = eta_derivative_series(model.conductor, n_max + 1)
    r, e = mock_parts(model, n_max)
    dz = (r - e * s_value(model, digits)).q_derivative()
    return max(abs(dz[k] - eta[k]) for k in range(-1, n_max + 1))
