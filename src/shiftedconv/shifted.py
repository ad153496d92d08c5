"""Shifted convolution L-values: direct summation and the closed-form assembly."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpf

from .curves import EllipticCurveModel
from .eisenstein import infinity_indicator, basis_for_level
from .lattice import build_lattice
from .mockform import zhat_plus
from .newform import an_array, an_coefficients
from .series import FourierSeries


def support_modulus(N: int):
    """n0 with a_E(n) supported at 1 mod n0 and D(h;1) at 0 mod n0; None if no such n0."""
    return {27: 3, 32: 4, 36: 6}.get(N)


@dataclass
class DirectValue:
    value: float           # Cesaro average of the last decade of partial sums
    raw_partial: float     # plain partial sum at n_terms
    error_estimate: float  # spread of the averaging window
    n_terms: int


@dataclass
class ShiftedConvolutionTable:
    label: str
    method: str                      # "direct" | "closed-form"
    entries: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


def d_direct(model: EllipticCurveModel, h: int, n_terms: int) -> DirectValue:
    """Partial sums of the shifted convolution sum, Cesaro-smoothed.

    Terms are a(n+h) a(n) (1/n - 1/(n+h)); this weight ordering is the one
    consistent with the closed-form identity and with the reference values (the
    opposite ordering appears in some displays of the series but contradicts them).

    The series converges only conditionally, so the reported value averages the
    partial sums over the last decade [n_terms/10, n_terms]; the raw partial sum is
    kept alongside.  When the two coefficient supports are incompatible every term
    vanishes and the result is exactly zero.
    """
    if h < 1:
        raise ValueError("shift must be positive")
    if n_terms < 10:
        raise ValueError("n_terms must be >= 10, or the last decade holds one partial sum")
    # bucketed by 4096 so an h-sweep, and a later read of n_terms + 4096 entries,
    # find the a(n) prefix already built
    table_len = n_terms + 4096 * (1 + (h - 1) // 4096)
    a = an_array(model, table_len)
    n = np.arange(1, n_terms + 1, dtype=np.int64)
    prod = a[n + h] * a[n]
    if not prod.any():
        return DirectValue(0.0, 0.0, 0.0, n_terms)
    terms = prod * (1.0 / n - 1.0 / (n + h))
    partials = np.cumsum(terms)
    window = partials[n_terms // 10 - 1:]
    value = float(window.mean())
    err = float((window.max() - window.min()) / 2)
    return DirectValue(value, float(partials[-1]), err, n_terms)


def d_direct_table(model: EllipticCurveModel, h_max: int, n_terms: int) -> ShiftedConvolutionTable:
    tab = ShiftedConvolutionTable(model.label, "direct",
                                  metadata={"n_terms": n_terms, "smoothing": "cesaro-last-decade"})
    for h in range(1, h_max + 1):
        dv = d_direct(model, h, n_terms)
        tab.entries[h] = dv.value
        tab.errors[h] = dv.error_estimate
    return tab


def f_zhat_product(model: EllipticCurveModel, h_max: int, digits: int) -> FourierSeries:
    """f_E * Zhat^+ as a q-expansion with coefficients through q^{h_max}."""
    with mp.workdps(digits + 10):
        f = an_coefficients(model, h_max + 1).to_mp()
        z = zhat_plus(model, h_max + 1, digits)
        return (f * z).truncate(h_max + 1)


def alpha_constant(model: EllipticCurveModel, n_terms_for_d: int, digits: int):
    """The constant multiplying f_E in the closed form.

    Squarefree levels: `alpha_fitted`.  CM levels: exactly 0 by the support argument.
    """
    if model.has_cm:
        return mpf(0)
    return alpha_fitted(model, n_terms_for_d, digits)


def alpha_fitted(model: EllipticCurveModel, n_terms_for_d: int, digits: int):
    """(f Zhat)[1] - (pi/vol) D(1;1) - F^inf[1], regardless of CM (N = 49 experiment).

    D(1;1) comes from the smoothed direct sum; the formula defines alpha through
    that value.
    """
    with mp.workdps(digits + 10):
        lat = build_lattice(model, digits)
        fz1 = f_zhat_product(model, 2, digits)[1]
        finf1 = infinity_indicator(model.conductor, 2).to_mp()[1]
        d11 = d_direct(model, 1, n_terms_for_d).value
        return fz1 - (mp.pi / lat.volume) * d11 - finf1


def hol_projection_hat(model: EllipticCurveModel, h_max: int, digits: int,
                       n_terms_for_d: int = 100000, alpha=None) -> FourierSeries:
    """The rescaled holomorphic projection assembled in closed form: alpha f + F^inf."""
    with mp.workdps(digits + 10):
        if alpha is None:
            alpha = alpha_constant(model, n_terms_for_d, digits)
        f = an_coefficients(model, h_max).to_mp()
        finf = infinity_indicator(model.conductor, h_max).to_mp()
        return (f * alpha + finf).truncate(h_max + 1)


def l_series_closed_form(model: EllipticCurveModel, h_max: int, digits: int,
                         n_terms_for_d: int = 100000, alpha=None) -> ShiftedConvolutionTable:
    """Coefficients of (vol/pi) (f Zhat^+ - alpha f - F^inf) as the h-table.

    The q^0 coefficient of the combination must vanish (the q^{-1} one is absent by
    construction); failure signals an upstream inconsistency.
    """
    with mp.workdps(digits + 10):
        lat = build_lattice(model, digits)
        if alpha is None:
            alpha = alpha_constant(model, n_terms_for_d, digits)
        combo = (f_zhat_product(model, h_max, digits)
                 - hol_projection_hat(model, h_max, digits, alpha=alpha))
        if combo.leading_exponent < 0:
            raise ArithmeticError("assembly produced negative powers")
        if abs(combo[0]) > mpf(10) ** (-10):
            raise ArithmeticError(f"q^0 coefficient fails to cancel: {combo[0]}")
        scale = lat.volume / mp.pi
        tab = ShiftedConvolutionTable(
            model.label, "closed-form",
            metadata={"alpha": alpha, "h_max": h_max, "digits": digits})
        for h in range(1, h_max + 1):
            v = combo[h] * scale
            tab.entries[h] = v
            tab.errors[h] = mpf(0)
        return tab


def beta_fit(model: EllipticCurveModel, h_max: int, digits: int,
             target: FourierSeries = None, n_terms_for_d: int = 100000):
    """Least-squares decomposition of the projection over {f} u {indicator basis}.

    Returns (alpha_hat, {cusp: beta}).  With `target` omitted the closed-form
    projection is decomposed; the non-infinite betas should be numerically zero and
    beta at infinity 1.
    """
    N = model.conductor
    with mp.workdps(digits + 10):
        eb = basis_for_level(N, digits)
        inds = eb.indicator_qexps(h_max)
        if target is None:
            target = hol_projection_hat(model, h_max, digits, n_terms_for_d)
        f = an_coefficients(model, h_max).to_mp()
        cols = [f] + inds
        A = mp.matrix(h_max + 1, len(cols))
        b = mp.matrix(h_max + 1, 1)
        for r in range(h_max + 1):
            for j, col in enumerate(cols):
                A[r, j] = col[r]
            b[r] = target[r]
        # normal equations with the conjugate transpose (indicator columns can be complex)
        ah = mp.matrix(len(cols), h_max + 1)
        for r in range(h_max + 1):
            for j in range(len(cols)):
                ah[j, r] = mp.conj(A[r, j])
        x = mp.lu_solve(ah * A, ah * b)
        alpha_hat = x[0]
        betas = {cusp: x[1 + j] for j, cusp in enumerate(eb.cusps)}
        return alpha_hat, betas
