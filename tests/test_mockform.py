from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath import mp, mpc, mpf

from shiftedconv.curves import LABELS, get_curve
from shiftedconv.newform import an_coefficients, eichler_integral
from shiftedconv.mockform import (eta_derivative_deviation, eta_derivative_series, eta_quotient,
                                  eta_unit, mock_parts, parametrization_x, s_value, zhat_plus)

from g_oracle import zeta_composition


@pytest.fixture(scope="module", autouse=True)
def _dps():
    with mp.workdps(64):
        yield


REF_ZHAT11 = {0: "1", 1: "0.9520", 2: "1.547", 3: "0.3493", 4: "1.976", 5: "-2.609"}


def test_zhat_11a1_reference_values():
    z = zhat_plus(get_curve("11a1"), 8, 64)
    assert z[-1] == 1 or abs(z[-1] - 1) < mpf(10) ** -50
    for n, s in REF_ZHAT11.items():
        assert abs(z[n] - mpf(s)) < mpf("1e-3"), n


CM_ANCHORS = {
    "27a1": [(2, Fraction(1, 2)), (5, Fraction(1, 5)), (8, Fraction(3, 4)),
             (11, Fraction(-6, 11)), (14, Fraction(-1, 2))],
    "32a1": [(3, Fraction(2, 3)), (7, Fraction(1, 7)), (11, Fraction(-2, 11))],
    "36a1": [(5, Fraction(3, 5)), (11, Fraction(1, 11))],
}


@pytest.mark.parametrize("label", sorted(CM_ANCHORS))
def test_zhat_cm_rationals(label):
    """S = 0 at these levels, so Zhat^+ is the exact R."""
    assert s_value(get_curve(label), 64) == 0
    r, _ = mock_parts(get_curve(label), 16)
    for n, w in CM_ANCHORS[label]:
        assert r[n] == w, (label, n)


SUPPORT_MOD = {"27a1": 3, "32a1": 4, "36a1": 6}


@pytest.mark.parametrize("label", sorted(SUPPORT_MOD))
def test_zhat_support(label):
    n0 = SUPPORT_MOD[label]
    z = zhat_plus(get_curve(label), 40, 64)
    assert all(e % n0 == n0 - 1 for e in z.coeffs if z[e] != 0), label


@pytest.mark.parametrize("label", LABELS)
def test_mock_parts_match_zeta_composition(label):
    """R from the modular parametrization is the R of zeta(E) by G_2k, bit for bit, to q^60."""
    model = get_curve(label)
    r, e = mock_parts(model, 60)
    assert r == zeta_composition(model, 60) and r.leading_exponent == -1
    assert e == eichler_integral(an_coefficients(model, 62)).truncate(61)
    assert all(isinstance(c, (int, Fraction)) for c in (*r.coeffs.values(), *e.coeffs.values()))


@pytest.mark.parametrize("p, k", [(2, 0), (3, 0), (97, 94)])
def test_parametrization_rejects_a_wrong_coefficient(p, k):
    """a(p) + 1 leaves a remainder in the x(q) recursion at q^k (11a1, a(n) to n = 102)."""
    model = get_curve("11a1")
    f = an_coefficients(model, 102)
    a = [f[n] for n in range(103)]
    assert parametrization_x(model, a)[:8] == [1, 2, 4, 5, 8, 1, 7, -11]
    a[p] += 1
    with pytest.raises(ArithmeticError, match=rf"at q\^{k} is not an integer"):
        parametrization_x(model, a)


@pytest.mark.parametrize("label, j", [("32a1", 1728), ("27a1", 0), ("36a1", 0), ("49a1", -3375)])
def test_j_invariants_of_the_cm_models(label, j):
    """j = c4^3/Delta, exactly: at j = 1728 and 0, E2* and so S vanish (`s_value`)."""
    model = get_curve(label)
    c4 = model.b2 ** 2 - 24 * model.b4
    assert Fraction(c4 ** 3, model.discriminant) == j


def test_s_value_rejects_a_lattice_s_off_r1_or_off_the_real_line(monkeypatch):
    import shiftedconv.mockform as M
    lattice = SimpleNamespace(s_lambda=mpf("1e-50"))
    monkeypatch.setattr(M, "build_lattice", lambda model, digits: lattice)
    assert s_value(get_curve("11a1"), 64) == mpf("1e-50")
    with pytest.raises(ArithmeticError, match="differs from S = 0"):
        s_value(get_curve("27a1"), 64)
    lattice.s_lambda = mpc("0.38", "1e-50")
    with pytest.raises(ArithmeticError, match="lattice S"):
        s_value(get_curve("11a1"), 64)


def test_zhat_precision_doubling():
    za = zhat_plus(get_curve("11a1"), 20, 32)
    zb = zhat_plus(get_curve("11a1"), 20, 64)
    worst = max(abs(za[n] - zb[n]) for n in range(-1, 21))
    assert worst < mpf(10) ** -16


def test_eta_unit_pentagonal():
    u = eta_unit(1, 30)
    # 1 - q - q^2 + q^5 + q^7 - q^12 - q^15 + q^22 + q^26
    want = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1}
    assert u.coeffs == want


def test_eta_quotient_leading_exponent():
    f = eta_quotient([(3, 1), (9, 6), (27, -3)], 10)
    assert f.leading_exponent == -1
    # eta(z) and eta(2z)^-3 have orders 1/24 and -1/4 at infinity
    for spec in ([(1, 1)], [(2, -3)]):
        with pytest.raises(ValueError):
            eta_quotient(spec, 3)


def test_eta_quotient_inverse_has_integer_coefficients():
    f = eta_quotient([(2, -12)], 4)     # order -1 at infinity
    assert f.leading_exponent == -1
    for e in sorted(f.coeffs):
        c = f[e]
        assert isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)


@pytest.mark.parametrize("N", (27, 32, 36))
def test_eta_derivative_identity(N):
    r, _ = mock_parts(get_curve(N), 40)
    assert r.q_derivative() == eta_derivative_series(N, 41)
    assert eta_derivative_deviation(get_curve(N), 40, 64) == 0


def test_eta_table_row_27_effectively():
    # coefficient of q^2 in -eta(3t) eta(9t)^6 / eta(27t)^3 equals 2 * (1/2) = 1
    eta = eta_derivative_series(27, 5)
    assert eta[2] == 1


def test_q_derivative_examples():
    from shiftedconv.series import FourierSeries
    f = FourierSeries({-1: 1, 0: 7, 2: Fraction(1, 2)}, 4)
    d = f.q_derivative()
    assert d[-1] == -1
    assert d[0] == 0
    assert d[2] == 1


def test_zhat_truncation_contract():
    z = zhat_plus(get_curve("11a1"), 12, 48)
    assert z.truncation == 13
    assert z.leading_exponent == -1
