from fractions import Fraction

import pytest
from mpmath import mp, mpf

from shiftedconv.config import Estimate
from shiftedconv.curves import LABELS, get_curve
from shiftedconv.shifted import (affine_parts, alpha_constant, beta_fit, d_direct, d_direct_table,
                                 hol_projection_hat, l_series_closed_form)

N_TERMS = 100_000


@pytest.fixture(scope="module", autouse=True)
def _dps():
    with mp.workdps(64):
        yield


def test_direct_11a1_reference_values():
    dv1 = d_direct(get_curve("11a1"), 1, N_TERMS)
    assert abs(dv1.value - (-0.7063)) < 0.01
    dv5 = d_direct(get_curve("11a1"), 5, N_TERMS)
    assert abs(dv5.value - 2.026) < 0.02
    assert dv1.err > 0


def test_direct_cm_exact_zero():
    for h in (1, 2, 4, 5, 7, 8):
        assert d_direct(get_curve("27a1"), h, 5000) == Estimate(0.0, 0.0)


def test_direct_table_shape():
    tab = d_direct_table(get_curve("27a1"), 6, 2000)
    assert tab.method == "direct"
    assert sorted(tab.entries) == [1, 2, 3, 4, 5, 6]
    assert tab.entries[1] == 0.0
    assert tab.entries[3] != 0.0


def test_alpha_cm_is_zero():
    for label in ("27a1", "32a1", "36a1", "49a1"):
        assert alpha_constant(get_curve(label), 100, 48) == 0


def test_alpha_11a1_window():
    alpha = alpha_constant(get_curve("11a1"), N_TERMS, 64)
    assert abs(alpha - mpf("0.00159")) < mpf("2e-3")


def test_hol_projection_27_is_the_indicator():
    proj = hol_projection_hat(get_curve("27a1"), 28, 64)
    assert abs(proj[0] - 1) < mpf("1e-30")
    assert abs(proj[9] - 3) < mpf("1e-30")
    assert abs(proj[18] - 9) < mpf("1e-30")
    for e in range(1, 28):
        if e % 3:
            assert abs(proj[e]) < mpf("1e-30"), e


def test_hol_projection_constant_term_is_one_every_level():
    for label in ("11a1", "14a1", "27a1", "49a1"):
        proj = hol_projection_hat(get_curve(label), 4, 48, n_terms_for_d=20_000)
        assert abs(proj[0] - 1) < mpf("1e-20"), label


def test_closed_form_assembly_cancellation():
    tab = l_series_closed_form(get_curve("11a1"), 6, 64, N_TERMS)
    assert tab.method == "closed-form"
    assert tab.metadata["h_max"] == 6


def test_closed_vs_direct_11a1():
    tab = l_series_closed_form(get_curve("11a1"), 5, 64, N_TERMS)
    for h in range(1, 6):
        dv = d_direct(get_curve("11a1"), h, N_TERMS)
        assert abs(float(tab.entries[h]) - dv.value) <= 0.02, h


def test_closed_27a1_vanishing_and_match():
    tab = l_series_closed_form(get_curve("27a1"), 12, 64)
    for h in range(1, 13):
        if h % 3:
            assert tab.entries[h] == 0, h
    for h in (3, 6, 9, 12):
        dv = d_direct(get_curve("27a1"), h, N_TERMS)
        assert abs(float(tab.entries[h]) - dv.value) <= 0.02, h


@pytest.mark.parametrize("label", LABELS)
def test_closed_form_is_exact_affine_and_stable_in_digits(label):
    """A and B are exact with A_0 = B_0 = 0; 64 and 80 digits agree to 10^-64 (1 + |x|)."""
    model = get_curve(label)
    a_part, b_part = affine_parts(model, 30)
    assert all(isinstance(c, (int, Fraction))
               for c in (*a_part.coeffs.values(), *b_part.coeffs.values()))
    assert a_part[0] == b_part[0] == 0 and a_part.leading_exponent > 0
    # a short direct sum fixes alpha; it is a float, the same at both precisions
    lo, hi = (l_series_closed_form(model, 30, d, 5_000) for d in (64, 80))
    with mp.workdps(90):
        for h, x in hi.entries.items():
            assert abs(lo.entries[h] - x) <= mpf(10) ** -64 * (1 + abs(x)), h


def test_beta_fit_11a1():
    alpha_hat, betas = beta_fit(get_curve("11a1"), 30, 64, n_terms_for_d=N_TERMS)
    for cusp, b in betas.items():
        if cusp.is_infinity:
            assert abs(b - 1) < mpf("1e-6")
        else:
            assert abs(b) < mpf("1e-6")


def test_shift_must_be_positive():
    with pytest.raises(ValueError):
        d_direct(get_curve("11a1"), 0, 100)
    with pytest.raises(ValueError, match=">= 10"):
        d_direct(get_curve("11a1"), 1, 9)        # a window of one partial sum
    assert d_direct(get_curve("11a1"), 1, 10).err >= 0      # ten terms are enough
