"""The Weierstrass mock modular form q-expansion and an eta-quotient engine."""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

from .config import memo
from .curves import EllipticCurveModel
from .lattice import build_lattice
from .newform import an_coefficients, eichler_integral
from .series import FourierSeries


def parametrization_x(model: EllipticCurveModel, a: list) -> list:
    """[X_0, X_1, ...] with x(q) = q^-2 sum X_i q^i the x-coordinate of the modular
    parametrization, from a = [a(0) = 0, a(1), ..., a(n)]: n coefficients, all integers.

    x = wp(E) - b2/12 and q dE/dq = f = sum a(n) q^n, so x solves
    (q dx/dq)^2 = f^2 (4x^3 + b2 x^2 + 2b4 x + b6) (Silverman, The Arithmetic of Elliptic
    Curves, III.1 and VI.3).  With D = q^2 (q dx/dq) = sum (i - 2) X_i q^i, F = f/q and
    X = q^2 x this reads D^2 = F^2 (4X^3 + b2 q^2 X^2 + 2b4 q^4 X + b6 q^6).  X_0 = 1, and at
    q^m the unknown X_m enters only as -(4m + 4) X_m, so each step is one exact division;
    running coefficients of X^2 and of the cubic in parentheses keep the whole at O(n^2).

    A division that leaves a remainder raises ArithmeticError: the a(n) are not those of
    the curve.  The guard cannot see a wrong model inside the isogeny class, though: the
    11a2 and 11a3 models with the a(n) of 11a1 pass it.
    """
    b2, b4, b6 = model.b2, model.b4, model.b6
    n = len(a) - 1
    f = a[1:]
    f2 = [sum(f[j] * f[m - j] for j in range(m + 1)) for m in range(n)]   # F^2
    x, x2, cubic = [1], [1], [4]                                         # X, X^2, 4X^3 + ...
    for m in range(1, n):
        sq = sum(x[i] * x[m - i] for i in range(1, m))
        cube = sq + sum(x[i] * x2[m - i] for i in range(1, m))
        c = (4 * cube + (b2 * x2[m - 2] if m >= 2 else 0) + (2 * b4 * x[m - 4] if m >= 4 else 0)
             + (b6 if m == 6 else 0))
        known = (sum((i - 2) * (m - i - 2) * x[i] * x[m - i] for i in range(1, m))
                 - c - sum(f2[j] * cubic[m - j] for j in range(1, m + 1)))
        xm, rest = divmod(known, 4 * m + 4)
        if rest:
            raise ArithmeticError(f"{model.label}: the coefficient of x(q) at q^{m - 2} is not an "
                                  "integer; these a(n) are not the curve's")
        x.append(xm)
        x2.append(sq + 2 * xm)
        cubic.append(c + 12 * xm)
    return x


@memo
def mock_parts(model: EllipticCurveModel, n_max: int) -> tuple:
    """(R, E), exact through q^{n_max}, with Zhat^+ = R - S E and E the Eichler integral.

    R = zeta(E), so q dR/dq = -wp(E) f with wp(E) = x + b2/12 (`parametrization_x`):
    R = q^-1 - a(2)/2 - sum_{n>=1} (f (x + b2/12))[n]/n q^n.  It needs a(n) through
    n_max + 2 and x through q^(n_max - 1).
    """
    f = an_coefficients(model, n_max + 2)
    a = [f[n] for n in range(n_max + 3)]
    x = parametrization_x(model, a)                                   # x[i] at q^(i - 2)
    r = {-1: 1, 0: Fraction(-a[2], 2)}
    for n in range(1, n_max + 1):
        fx = sum(a[j] * x[n - j + 2] for j in range(1, n + 3))
        r[n] = Fraction(-(12 * fx + model.b2 * a[n]), 12 * n)
    return FourierSeries(r, n_max + 1), eichler_integral(f).truncate(n_max + 1)


def s_value(model: EllipticCurveModel, digits: int):
    """S(Lambda) in Zhat^+ = R - S E: Re S of the lattice, or R[1] at the CM levels, where
    Zhat^+ has no q^1 term and E = q + ... (R[1] = 0, 0, 0, 1/4 at N = 27, 32, 36, 49).
    A lattice S farther than 10^-digits from it raises ArithmeticError.

    At 27, 32 and 36, S = 0.  From `Lattice.s_lambda`, S = (pi^2/3) E2*(tau)/omega1^2 with
    E2*(tau) = E2(tau) - 3/(pi Im tau), which has weight 2 under SL2(Z).  So E2* vanishes
    at the fixed points i (E2*(-1/i) = i^2 E2*(i)) and rho = e^(2 pi i/3), and on their
    orbits.  j = c4^3/Delta is 1728 at 32a1 and 0 at 27a1 and 36a1, so tau lies on one.
    At 49 (j = -3375), Zhat^+[1] = b_Q(-1, 2, N; 1) is a sum of K(-1, 1; c) over 49 | c,
    and K(-1, 1; c) has the factor K(1, -rbar^2; 7^a), a >= 2, rbar prime to 7.  For odd
    p and a >= 2, K(m, n; p^a) vanishes unless mn is a square mod p (the evaluation of
    Kloosterman sums to prime-power moduli, Iwaniec-Kowalski, Analytic Number Theory),
    and -1 is not a square mod 7, so every term is 0."""
    lattice_s = build_lattice(model, digits).s_lambda
    s = mock_parts(model, 1)[0][1] if model.has_cm else lattice_s.real
    with mp.workdps(digits + 10):
        if abs(lattice_s - s) > mpf(10) ** -digits:
            raise ArithmeticError(f"{model.label}: lattice S = {lattice_s} differs from S = {s}")
    return s


@memo
def zhat_plus(model: EllipticCurveModel, n_max: int, digits: int) -> FourierSeries:
    """q-expansion q^-1 + c0 + c1 q + ... of the mock modular form, truncated past q^{n_max}."""
    r, e = mock_parts(model, n_max)
    with mp.workdps(digits + 10):
        return r.to_mp() - e.to_mp() * s_value(model, digits)


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
