from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from mpmath import mp, mpf

from shiftedconv.series import FourierSeries, TruncationError


def S(coeffs, trunc):
    return FourierSeries(coeffs, trunc)


def test_coefficient_access_and_truncation():
    f = S({-1: 1, 2: Fraction(1, 2)}, 5)
    assert f[-1] == 1
    assert f[2] == Fraction(1, 2)
    assert f[4] == 0
    with pytest.raises(TruncationError):
        f[5]
    assert f.leading_exponent == -1
    assert all(isinstance(c, (int, Fraction)) for c in f.coeffs.values())


def test_non_integer_exponents_are_rejected():
    with pytest.raises(TypeError):
        S({Fraction(1, 2): 1}, 3)
    with pytest.raises(TypeError):
        S({1: 1}, 2.5)
    with pytest.raises(TypeError):
        S({0: 1}, 3)[Fraction(1, 2)]


def test_constructor_rejects_out_of_range():
    with pytest.raises(TruncationError):
        S({7: 1}, 5)


def test_add_mul_truncation_propagation():
    f = S({1: 1}, 10)          # q + O(q^10)
    g = S({2: 3}, 4)           # 3q^2 + O(q^4)
    assert (f + g).truncation == 4
    prod = f * g
    # product known below min(10+2, 4+1) = 5
    assert prod.truncation == 5
    assert prod[3] == 3


def test_invert_unit_and_laurent():
    f = S({0: 1, 1: -1}, 8)    # 1 - q
    inv = f.invert()
    assert inv.truncation == 8
    for n in range(8):
        assert inv[n] == 1      # geometric series
    g = S({2: 2, 3: 2}, 9)     # 2q^2 (1 + q)
    ginv = g.invert()
    assert ginv.truncation == 9 - 4
    assert ginv[-2] == Fraction(1, 2)
    assert ginv[-1] == Fraction(-1, 2)


def test_q_derivative():
    f = S({-1: 1, 0: 5, 2: Fraction(1, 2)}, 6)
    d = f.q_derivative()
    assert d[-1] == -1
    assert d[0] == 0
    assert d[2] == 1


def test_shift():
    f = S({0: 1, 1: 1}, 3)
    g = f.shift(-1)
    assert g[-1] == 1 and g[0] == 1
    assert g.truncation == 2


def test_to_mp_exactness():
    with mp.workdps(40):
        f = S({1: Fraction(1, 3)}, 3).to_mp()
        assert abs(f[1] - mpf(1) / 3) < mpf(10) ** -38


small_series = st.builds(
    lambda d: FourierSeries({k: v for k, v in d.items()}, 9),
    st.dictionaries(st.integers(min_value=0, max_value=8),
                    st.integers(min_value=-9, max_value=9), max_size=5))


@given(small_series, small_series)
@settings(max_examples=60, deadline=None)
def test_mul_commutes(f, g):
    assert f * g == g * f


@given(small_series, small_series, small_series)
@settings(max_examples=60, deadline=None)
def test_mul_distributes(f, g, h):
    lhs = f * (g + h)
    rhs = f * g + f * h
    t = min(lhs.truncation, rhs.truncation)
    assert lhs.truncate(t) == rhs.truncate(t)


@given(small_series)
@settings(max_examples=40, deadline=None)
def test_invert_roundtrip(f):
    if not f.coeffs:
        return
    prod = f * f.invert()
    assert prod[prod.leading_exponent] == 1
    for e in sorted(prod.coeffs):
        if e != prod.leading_exponent:
            assert prod[e] == 0


@given(small_series, small_series)
@settings(max_examples=40, deadline=None)
def test_derivative_product_rule(f, g):
    lhs = (f * g).q_derivative()
    rhs = f.q_derivative() * g + f * g.q_derivative()
    t = min(lhs.truncation, rhs.truncation)
    assert lhs.truncate(t) == rhs.truncate(t)

