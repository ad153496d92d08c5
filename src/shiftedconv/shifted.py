"""Shifted convolution L-values: direct summation and the closed-form assembly."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpf

from .config import Estimate, memo
from .curves import EllipticCurveModel
from .eisenstein import indicator_basis, infinity_indicator
from .lattice import build_lattice
from .mockform import mock_parts, s_value
from .newform import an_array, an_coefficients
from .series import FourierSeries


@dataclass
class ShiftedConvolutionTable:
    label: str
    method: str                      # "direct" | "closed-form"
    entries: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


def d_direct(model: EllipticCurveModel, h: int, n_terms: int) -> Estimate:
    """Partial sums of the shifted convolution sum, Cesaro-smoothed.

    Terms are a(n+h) a(n) (1/n - 1/(n+h)); this weight ordering is the one
    consistent with the closed-form identity and with the reference values (the
    opposite ordering appears in some displays of the series but contradicts them).

    The series converges only conditionally, so the value is the mean of the partial
    sums over the last decade [n_terms/10, n_terms] and the error half their spread.
    When the two coefficient supports are incompatible every term vanishes and the
    result is exactly zero.
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
        return Estimate(0.0, 0.0)
    window = np.cumsum(prod * (1.0 / n - 1.0 / (n + h)))[n_terms // 10 - 1:]
    return Estimate(float(window.mean()), float((window.max() - window.min()) / 2))


def d_direct_table(model: EllipticCurveModel, h_max: int, n_terms: int) -> ShiftedConvolutionTable:
    tab = ShiftedConvolutionTable(model.label, "direct",
                                  metadata={"n_terms": n_terms, "smoothing": "cesaro-last-decade"})
    for h in range(1, h_max + 1):
        est = d_direct(model, h, n_terms)
        tab.entries[h], tab.errors[h] = est.value, est.err
    return tab


def alpha_constant(model: EllipticCurveModel, n_terms_for_d: int, digits: int):
    """The constant multiplying f_E in the closed form.

    Squarefree levels: `alpha_fitted`.  CM levels: exactly 0 by the support argument.
    """
    if model.has_cm:
        return mpf(0)
    return alpha_fitted(model, n_terms_for_d, digits)


def alpha_fitted(model: EllipticCurveModel, n_terms_for_d: int, digits: int):
    """A_1 - S B_1 - (pi/vol) D(1;1) = A_1 - (pi/vol) D(1;1), as B = f E starts at q^2.

    Regardless of CM (N = 49 experiment).  D(1;1) comes from the smoothed direct sum;
    the formula defines alpha through that value.
    """
    a_part, _ = affine_parts(model, 1)
    d11 = d_direct(model, 1, n_terms_for_d).value
    with mp.workdps(digits + 10):
        return a_part.to_mp()[1] - (mp.pi / build_lattice(model, digits).volume) * d11


def hol_projection_hat(model: EllipticCurveModel, h_max: int, digits: int,
                       n_terms_for_d: int = 100000) -> FourierSeries:
    """The rescaled holomorphic projection alpha f + F^inf, `beta_fit`'s default target."""
    with mp.workdps(digits + 10):
        alpha = alpha_constant(model, n_terms_for_d, digits)
        return (an_coefficients(model, h_max).to_mp() * alpha
                + infinity_indicator(model.conductor, h_max).to_mp())


@memo
def affine_parts(model: EllipticCurveModel, h_max: int) -> tuple:
    """The exact tables A = f R - F^inf and B = f E through q^{h_max} (R, E: `mock_parts`),
    so that f Zhat^+ - alpha f - F^inf = A - S B - alpha f.  A_0 = B_0 = 0 and A has no
    negative power, or ArithmeticError is raised: an upstream inconsistency."""
    r, e = mock_parts(model, h_max)
    f = an_coefficients(model, h_max + 1)
    a_part = (f * r - infinity_indicator(model.conductor, h_max)).truncate(h_max + 1)
    b_part = (f * e).truncate(h_max + 1)
    if a_part.leading_exponent < 0 or a_part[0] != 0 or b_part[0] != 0:
        raise ArithmeticError(f"{model.label}: f Zhat^+ - F^inf fails to cancel: A = {a_part}")
    return a_part, b_part


def l_series_closed_form(model: EllipticCurveModel, h_max: int, digits: int,
                         n_terms_for_d: int = 100000, alpha=None) -> ShiftedConvolutionTable:
    """D(h; 1) = (vol/pi) (A_h - S B_h - alpha a(h)) for h = 1 .. h_max, with A and B exact
    (`affine_parts`) and S exact at the CM levels (`s_value`)."""
    a_part, b_part = affine_parts(model, h_max)
    if alpha is None:
        alpha = alpha_constant(model, n_terms_for_d, digits)
    s = s_value(model, digits)
    with mp.workdps(digits + 10):
        combo = (a_part.to_mp() - b_part.to_mp() * s
                 - an_coefficients(model, h_max).to_mp() * alpha)
        scale = build_lattice(model, digits).volume / mp.pi
        return ShiftedConvolutionTable(
            model.label, "closed-form", {h: combo[h] * scale for h in range(1, h_max + 1)},
            dict.fromkeys(range(1, h_max + 1), mpf(0)),
            {"alpha": alpha, "h_max": h_max, "digits": digits})


def beta_fit(model: EllipticCurveModel, h_max: int, digits: int,
             target: FourierSeries = None, n_terms_for_d: int = 100000):
    """Least-squares decomposition of the projection over {f} u {indicator basis}.

    Returns (alpha_hat, {cusp: beta}).  With `target` omitted the closed-form
    projection is decomposed; the non-infinite betas should be numerically zero and
    beta at infinity 1.
    """
    with mp.workdps(digits + 10):
        basis = indicator_basis(model.conductor, h_max, digits)
        if target is None:
            target = hol_projection_hat(model, h_max, digits, n_terms_for_d)
        cols = [an_coefficients(model, h_max).to_mp()] + list(basis.values())
        A = mp.matrix([[col[r] for col in cols] for r in range(h_max + 1)])
        b = mp.matrix([target[r] for r in range(h_max + 1)])
        # normal equations with the conjugate transpose (indicator columns can be complex)
        x = mp.lu_solve(A.H * A, A.H * b)
        return x[0], {cusp: x[1 + j] for j, cusp in enumerate(basis)}
