import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
import numpy as np
from mpmath import mp, mpf

from shiftedconv import poincare
from shiftedconv.poincare import (_PASS_ULPS, _bessel_array, _bessel_pass, _bessel_series,
                                  bp_coefficient, bq_coefficient, kloosterman_array)

from kloosterman_oracle import (_units, bp_per_n, bq_per_n, kloosterman, kloosterman_float,
                                kloosterman_row, units_listing)


@pytest.fixture(scope="module", autouse=True)
def _dps():
    with mp.workdps(30):
        yield


def test_trivial_modulus():
    assert kloosterman(5, 7, 1) == 1


def test_k113_enumeration():
    # d in {1,2}: e(2 pi i 2/3) + e(2 pi i 4/3) = 2 cos(2 pi/3) = -1
    assert abs(kloosterman(1, 1, 3) + 1) < mpf("1e-25")


def test_symmetry_and_realness_specific():
    assert abs(kloosterman(2, 5, 7) - kloosterman(5, 2, 7)) < mpf("1e-25")


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_kloosterman_symmetry_property(m, n, c):
    with mp.workdps(30):
        assert abs(kloosterman(m, n, c) - kloosterman(n, m, c)) < mpf("1e-20")


def test_realness_contract():
    with mp.workdps(30):
        for (m, n, c) in [(1, 1, 12), (2, 3, 25), (1, 4, 33), (3, 3, 49)]:
            v = kloosterman(m, n, c)
            assert abs(getattr(v, "imag", 0)) < mpf("1e-20")


def test_weil_magnitude_sanity():
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    for p in primes:
        assert abs(kloosterman(1, 1, p)) <= 2 * mp.sqrt(p) + mpf("1e-18"), p


def test_float_path_matches_mp_path():
    for (m, n, c) in [(1, 1, 11), (1, 3, 22), (-1, 2, 27), (-1, -5, 36)]:
        with mp.workdps(25):
            precise = kloosterman(m, n, c)
        got = kloosterman_row(m, np.array([n]), c)[0]
        assert abs(got - float(precise)) < 1e-9, (m, n, c)


def test_units_match_gcd_listing():
    # 5^5, 3^8, 2^13 and 2^2 7^4 take each branch of the Carmichael exponent lambda(c)
    for c in [*range(1, 2001), 3125, 6561, 8192, 9604, 9999, 10000]:
        ds, dbars = _units(c)
        want_ds, want_dbars = units_listing(c)
        assert np.array_equal(ds, want_ds) and np.array_equal(dbars, want_dbars), c


# n = 0 gives Ramanujan sums; a negative n is read as K(-1, n; c) = K(1, -n; c)
_MS = (1, -1)
_NS = np.array([0, 1, 5, 12, -1, -6], dtype=np.int64)


def test_factored_kloosterman_matches_mp_path():
    # every c <= 60, the prime powers 2^9, 3^6, 7^3, and 4235 = 5 7 11^2, 2310 = 2 3 5 7 11
    with mp.workdps(20):
        for c in [*range(1, 61), 512, 729, 343, 4235, 2310]:
            for m in _MS:
                got = kloosterman_row(m, _NS, c)
                for n, kl in zip(_NS.tolist(), got.tolist()):
                    assert abs(kl - float(kloosterman(m, n, c))) < 1e-12, (m, n, c)


def test_factored_kloosterman_matches_listing():
    # n up to 10^6 checks that the int64 products t n stay in range
    ns = np.array([*_NS, 999_983, 10 ** 6, -10 ** 6], dtype=np.int64)
    for c in range(1, 2001):
        tables = {}
        for m in _MS:
            got = kloosterman_row(m, ns, c, tables)
            want = [kloosterman_float(m, n, c) for n in ns.tolist()]
            assert np.max(np.abs(got - want)) < 1e-12, (m, c)
        assert np.array_equal(kloosterman_row(-1, ns, c, tables), kloosterman_row(1, -ns, c, tables)), c


@pytest.mark.parametrize("N", [11, 49])
def test_one_pass_matches_per_n_oracle(N):
    # the two paths round K(m, n; c) differently, by about 1e-15 in b_P and b_Q
    def close(got, want):
        return all(abs(g.value - w.value) < 1e-12 and abs(g.err - w.err) < 1e-12
                   for g, w in zip(got, want, strict=True))
    ns = range(1, 11)
    assert close(bp_coefficient(N, ns, 2000), [bp_per_n(N, n, 2000) for n in ns])
    ns = range(0, 6)
    assert close(bq_coefficient(N, ns, 2000), [bq_per_n(N, n, 2000) for n in ns])


# I_1(4 pi sqrt(n)/c) at level 11 that round differently at dps 15 and dps 64, as (n, c)
_FRAGILE_I = [(2, 2266), (3, 3432), (5, 649), (8, 4532)]


def _correctly_rounded(f, x):
    with mp.workprec(300):
        return float(f(1, x))


def test_bessel_and_rows_independent_of_ambient_precision():
    def run():
        bessel = [_bessel_series(4 * np.pi * np.sqrt(n) / c, 1) for n, c in _FRAGILE_I]
        return (bessel, bp_coefficient(11, range(1, 11), 2000),
                bq_coefficient(11, [n for n, _ in _FRAGILE_I], 4600))
    with mp.workdps(15):
        low = run()
    with mp.workdps(64):
        high = run()
    assert low == high
    x = 4 * np.pi * np.sqrt(5) / 649
    assert low[0][2] == _correctly_rounded(mp.besseli, x)


# arguments 4 pi sqrt(n)/c of the level-N c-sums at which mpmath's 53-bit I_1 is 1 ulp off
_OFF_BY_ONE_I = [0.0041434594271484125, 0.006341955819000761, 0.006343448063785549,
                 0.0073294666750418035, 0.007842688328611415, 0.008089413997144605,
                 0.0098123664349499, 0.009914296342689682, 0.014320331791001987,
                 0.01838781118511633, 0.043296238712115416]


def _workload_arguments(k):
    """A seeded sample of k arguments 4 pi sqrt(n)/c, n <= 10, N | c <= 6000, of the ten levels."""
    rng = random.Random(11)
    out = []
    for _ in range(k):
        N = rng.choice([11, 14, 15, 17, 19, 21, 27, 32, 36, 49])
        out.append(4 * np.pi * np.sqrt(rng.randint(1, 10)) / (N * rng.randint(1, 6000 // N)))
    return out


def test_bessel_series_correctly_rounded():
    for x in [*_OFF_BY_ONE_I, *_workload_arguments(300)]:
        assert _bessel_series(x, -1) == _correctly_rounded(mp.besselj, x), x
        assert _bessel_series(x, 1) == _correctly_rounded(mp.besseli, x), x
    with mp.workprec(53):
        assert all(_bessel_series(x, 1) != float(mp.besseli(1, x)) for x in _OFF_BY_ONE_I)
    # large arguments: 4 pi sqrt(40 n)/11 for n <= 40, and x up to 1300 (I_1 overflows
    # to inf past about 713)
    large = [4 * np.pi * np.sqrt(40 * n) / 11 for n in range(1, 41, 3)]
    large += list(np.linspace(50, 1300, 12))
    for x in large:
        assert _bessel_series(x, -1) == _correctly_rounded(mp.besselj, x), x
        assert _bessel_series(x, 1) == _correctly_rounded(mp.besseli, x), x
    assert _bessel_series(1300.0, 1) == float("inf")
    assert _bessel_series(0.0, -1) == _bessel_series(0.0, 1) == 0.0


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_bessel_pass_within_its_bound():
    xs = np.array([*_workload_arguments(20_000), *_OFF_BY_ONE_I])
    for sign in (-1, 1):
        want = np.array([_bessel_series(x, sign) for x in xs.tolist()])
        values, bounds = _bessel_pass(xs, sign)
        assert np.all(np.isfinite(bounds))  # every workload argument is below 4
        # want is the true value to half an ulp
        assert np.all(np.abs(values - want) <= bounds + np.spacing(np.abs(want)) / 2), sign
        assert np.max(_ulps(_bessel_array(xs, sign), want)) <= _PASS_ULPS + 0.5


def test_bessel_array_above_threshold_is_the_scalar_series():
    # the large-argument list of test_bessel_series_correctly_rounded, and arguments
    # from 2 to 4 where the bound of J's cancelling series passes 4 ulps
    xs = np.array([*(4 * np.pi * np.sqrt(40 * n) / 11 for n in range(1, 41, 3)),
                   *np.linspace(50, 1300, 12), *np.linspace(2, 4, 41)])
    for sign in (-1, 1):
        values, bounds = _bessel_pass(xs, sign)
        slow = ~(bounds <= _PASS_ULPS * np.spacing(np.abs(values)))
        assert slow[xs > 4].all() and slow[xs <= 4].any(), sign
        got = _bessel_array(xs, sign)[slow]
        want = [_bessel_series(x, sign) for x in xs[slow].tolist()]
        assert got.tolist() == want, sign


_LEVELS = (11, 14, 15, 17, 19, 21, 27, 32, 36, 49)
_KERNEL_NS = np.array([*range(11), -6, 999_983, 10 ** 6], dtype=np.int64)


def _assert_kernel_is_oracle(cs):
    for m in _MS:
        tables = {}
        want = np.array([kloosterman_row(m, _KERNEL_NS, c, tables) for c in cs.tolist()])
        got = kloosterman_array(m, _KERNEL_NS, cs)
        assert got.shape == (len(cs), len(_KERNEL_NS)), m
        assert got.tobytes() == want.reshape(got.shape).tobytes(), m


@pytest.mark.parametrize("N", _LEVELS)
def test_one_pass_kernel_equals_per_modulus_oracle(N):
    # c_max 1 and N - 1 leave no modulus; 10^4 reaches 2310 = 2*3*5*7*11 and 11^3
    for c_max in (1, N - 1, N, 6000, 10_000):
        _assert_kernel_is_oracle(np.arange(N, c_max + 1, N))


def test_one_pass_kernel_on_every_modulus():
    # c = 1, all prime powers to 2000 (2^10, 3^6, 7^3, ...) and up to four prime factors
    _assert_kernel_is_oracle(np.arange(1, 2001))


@pytest.mark.parametrize("N, vanishes", [(11, False), (27, True), (32, True), (36, True), (49, True)])
def test_kloosterman_minus_one_one_at_the_cm_levels(N, vanishes):
    # every N | c has a factor p^a, a >= 2, with p = 3 or 7 (27, 36, 49) or 2^a, a >= 5
    # (32), and K(-1, 1; c) has the factor K(1, -rbar^2; p^a); for odd p it vanishes as
    # -1 is not a square mod p (`mockform.s_value`); at 32 their sum, Zhat^+[1] = R[1] - S,
    # is 0 as R[1] = 0 and S = 0 (j = 1728), and this test checks each term to c = 10^4
    cs = np.arange(N, 10_001, N)
    ratio = np.abs(kloosterman_array(-1, np.array([1]), cs)[:, 0]) / cs
    assert np.all(ratio <= 1e-12) if vanishes else ratio.max() > 0.1


def test_coefficients_match_per_element_bessel(monkeypatch):
    def run():
        return [(bp_coefficient(N, range(1, 11), 6000),
                 bq_coefficient(N, range(0, 11), 6000)) for N in _LEVELS]
    fast = run()
    # the same c-sums with one correctly rounded scalar series per (c, n)
    monkeypatch.setattr(poincare, "_bessel_array", lambda x, sign: np.array(
        [_bessel_series(v, sign) for v in x.ravel().tolist()]).reshape(x.shape))
    slow = run()
    for N, got, want in zip(_LEVELS, fast, slow):
        for g, w in zip([*got[0], *got[1]], [*want[0], *want[1]], strict=True):
            assert abs(g.value - w.value) <= 1e-13 and abs(g.err - w.err) <= 1e-13, N


def test_long_call_equals_its_blockwise_calls():
    """A 200-index call over 1400 moduli runs in two column blocks (187 + 13 columns at the
    2^18-entry budget); it equals, bit for bit, one call per block and per-index calls."""
    c_max = 11 * 1400
    assert [b.indices(200) for b in poincare._column_blocks(1400, 200)] == [(0, 187, 1), (187, 200, 1)]
    for coefficient, ns in ((bp_coefficient, range(1, 201)), (bq_coefficient, range(0, 200))):
        whole = coefficient(11, ns, c_max)
        blockwise = coefficient(11, ns[:187], c_max) + coefficient(11, ns[187:], c_max)
        assert whole == blockwise
        assert [whole[i] for i in (0, 186, 187, 199)] == [
            coefficient(11, [ns[i]], c_max)[0] for i in (0, 186, 187, 199)]


def test_bp_empty_sum_is_delta():
    r = bp_coefficient(11, [1], 0)[0]
    assert r.value == 1.0
    r2 = bp_coefficient(11, [4], 0)[0]
    assert r2.value == 0.0


def test_bq_empty_sum_vanishes():
    assert bq_coefficient(11, [3], 0)[0].value == 0.0


def test_bq_constant_term_stable_under_cmax_doubling():
    a = bq_coefficient(11, [0], 4000)[0].value
    b = bq_coefficient(11, [0], 8000)[0].value
    assert abs(a - b) < 1e-4
    # frozen from the doubling oracle at c_max 1e4/2e4: -0.19999...
    assert abs(a + 0.2) < 1e-3


def test_bq_matches_mock_form_coefficients():
    from shiftedconv.curves import get_curve
    from shiftedconv.mockform import zhat_plus
    with mp.workdps(64):
        z = zhat_plus(get_curve("11a1"), 4, 64)
        for n, bq in enumerate(bq_coefficient(11, (1, 2, 3), 10_000), start=1):
            assert abs(bq.value - float(z[n])) < 1e-2, n


def test_bp_tail_estimate_reported():
    r = bp_coefficient(11, [2], 2000)[0]
    assert r.err > 0
    assert r.err < 1e-2


def test_petersson_reconstruction_small():
    """(vol/pi) b_P(1,2,11;n) tracks a(n) under the 4-pi Bessel convention."""
    from shiftedconv.curves import get_curve
    from shiftedconv.lattice import build_lattice
    from shiftedconv.newform import an_array
    model = get_curve("11a1")
    lat = build_lattice(model, 40)
    volpi = float(lat.volume / mp.pi)
    a = an_array(model, 5)
    for n, bp in enumerate(bp_coefficient(11, range(1, 6), 4000), start=1):
        got = volpi * bp.value
        assert abs(got - a[n]) < 2e-2, n


def test_weight_validation():
    with pytest.raises(ValueError):
        bq_coefficient(11, [0, -1], 10)
    with pytest.raises(ValueError):
        bp_coefficient(11, [1, 0], 10)
    # only the ten levels: the Kloosterman tables grow like c_max^2 / N^2
    for N in (0, 1, 12):
        with pytest.raises(ValueError):
            bp_coefficient(N, [1], 10)
        with pytest.raises(ValueError):
            bq_coefficient(N, [0], 10)
    with pytest.raises(ValueError):
        kloosterman_row(2, _NS, 11)
    with pytest.raises(ValueError):
        kloosterman(1, 1, 0)
    with pytest.raises(ValueError):
        kloosterman_row(1, _NS, 0)
    with pytest.raises(ValueError):
        kloosterman_array(2, _NS, np.array([11]))
    with pytest.raises(ValueError):
        kloosterman_array(1, _NS, np.array([11, 0]))
