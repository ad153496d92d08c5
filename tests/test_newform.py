from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from shiftedconv.curves import get_curve, load_registry
from shiftedconv.newform import (an_array, an_coefficients, ap_point_count,
                                 eichler_integral)


def brute_force_count(model, p):
    """Independent oracle: enumerate all (x, y) in F_p^2 plus infinity."""
    a1, a2, a3, a4, a6 = (a % p for a in model.ainvs)
    count = 1
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0:
                count += 1
    return count


# frozen from the brute-force oracle
ORACLE_AP = {
    ("11a1", 2): -2, ("11a1", 3): -1, ("11a1", 5): 1, ("11a1", 7): -2, ("11a1", 13): 4,
    ("27a1", 2): 0, ("27a1", 7): -1, ("27a1", 13): 5,
    ("49a1", 2): 1, ("49a1", 11): 4,
    # bad primes: 1, -1, 0 at split, nonsplit and additive reduction
    ("11a1", 11): 1, ("14a1", 2): -1, ("14a1", 7): 1, ("15a1", 3): -1, ("15a1", 5): 1,
    ("17a1", 17): 1, ("19a1", 19): 1, ("21a1", 3): 1, ("21a1", 7): -1, ("27a1", 3): 0,
    ("32a1", 2): 0, ("36a1", 2): 0, ("36a1", 3): 0, ("49a1", 7): 0,
}


@pytest.mark.parametrize("label,p", sorted({k for k in ORACLE_AP}))
def test_ap_against_frozen_oracle(label, p):
    model = get_curve(label)
    assert ap_point_count(model, p) == ORACLE_AP[(label, p)]
    assert p + 1 - brute_force_count(model, p) == ORACLE_AP[(label, p)]


@pytest.mark.parametrize("label", [m.label for m in load_registry()])
def test_ap_matches_brute_force_small_primes(label):
    model = get_curve(label)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if model.conductor % p == 0:
            continue
        assert ap_point_count(model, p) == p + 1 - brute_force_count(model, p), (label, p)


def test_bad_prime_codes():
    # p + 1 - #E(F_p) gives the split/nonsplit/additive trace in {1,-1,0}
    for label in ("11a1", "14a1", "15a1", "27a1", "49a1"):
        model = get_curve(label)
        for p in (2, 3, 5, 7, 11, 17, 19):
            if model.conductor % p == 0:
                assert ap_point_count(model, p) in (-1, 0, 1), (label, p)
    assert ap_point_count(get_curve("27a1"), 3) == 0      # additive
    assert ap_point_count(get_curve("11a1"), 11) == 1     # split multiplicative


def test_reference_expansion_27a1():
    f = an_coefficients(get_curve("27a1"), 20)
    assert {n: f[n] for n in range(1, 21) if f[n]} == {1: 1, 4: -2, 7: -1, 13: 5, 16: 4, 19: -7}


def test_hecke_prime_power_recursion():
    # a(4) = a(2)^2 - 2 a(1) for good 2
    f27 = an_array(get_curve("27a1"), 20)
    assert f27[4] == f27[2] ** 2 - 2
    f11 = an_array(get_curve("11a1"), 130)
    # good prime powers: a(p^2) = a(p)^2 - p, a(p^3) = a(p) a(p^2) - p a(p)
    assert f11[4] == f11[2] ** 2 - 2
    assert f11[8] == f11[2] * f11[4] - 2 * f11[2]
    # bad prime: a(11^2) = a(11)^2
    assert f11[121] == f11[11] ** 2


def test_normalization():
    for m in load_registry():
        assert an_array(m, 2)[1] == 1


@given(st.integers(min_value=2, max_value=99), st.integers(min_value=2, max_value=99))
@settings(max_examples=80, deadline=None)
def test_multiplicativity_random(m, n):
    if gcd(m, n) != 1:
        return
    a = an_array(get_curve("11a1"), m * n)
    assert a[m * n] == a[m] * a[n]


@pytest.mark.parametrize("label", [m.label for m in load_registry()])
def test_hasse_bound_sample(label):
    model = get_curve(label)
    for p in (101, 211, 401, 809, 1009):
        if model.conductor % p == 0:
            continue
        ap = ap_point_count(model, p)
        assert ap * ap <= 4 * p


CM_SUPPORT = {"27a1": 3, "32a1": 4, "36a1": 6}


@pytest.mark.parametrize("label,n0", sorted(CM_SUPPORT.items()))
def test_cm_vanishing(label, n0):
    a = an_array(get_curve(label), 1000)
    assert all(a[n] == 0 for n in range(1, 1001) if n % n0 != 1)
    assert any(a[n] != 0 for n in range(1, 1001) if n % n0 == 1)


def test_49_support():
    a = an_array(get_curve("49a1"), 1000)
    assert all(a[n] == 0 for n in range(1, 1001) if n % 7 not in (1, 2, 4))
    assert any(a[n] != 0 for n in range(1, 1001) if n % 7 == 2)


def test_eichler_integral_values():
    f = an_coefficients(get_curve("27a1"), 14)
    e = eichler_integral(f)
    assert e[1] == 1
    assert e[4] == Fraction(-1, 2)
    assert e[13] == Fraction(5, 13)
    assert all(isinstance(c, (int, Fraction)) for c in e.coeffs.values())


def test_eichler_requires_cusp_form():
    from shiftedconv.series import FourierSeries
    with pytest.raises(ValueError):
        eichler_integral(FourierSeries({0: 1}, 5))
