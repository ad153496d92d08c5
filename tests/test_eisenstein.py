import copy
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest
from mpmath import mp, mpf, mpc

from shiftedconv.eisenstein import (basis_for_level, cusp_count, cusp_orbit, enumerate_cusps,
                                    indicator_basis, infinity_indicator,
                                    _canon, _scaling_matrix, _vanishes_at_zeta, _zeta_table)

from shiftedconv.series import FourierSeries

from e2_oracle import cusp_constant, e2_series, raw_basis
from vector_oracle import combo_qexp_per_vector, cusp_constant_per_vector, vector_eval

EXPECTED_COUNTS = {11: 2, 14: 4, 15: 4, 17: 2, 19: 2, 21: 4, 27: 6, 32: 8, 36: 12, 49: 8}


@pytest.fixture(scope="module", autouse=True)
def _dps():
    with mp.workdps(64):
        yield


@pytest.mark.parametrize("N", sorted(EXPECTED_COUNTS))
def test_cusp_counts(N):
    cs = enumerate_cusps(N)
    assert len(cs) == EXPECTED_COUNTS[N] == cusp_count(N)
    assert cs[0].is_infinity
    # representatives in lowest terms, pairwise distinct
    seen = set()
    for c in cs:
        assert gcd(c.a, c.c) in (0, 1) or c.c == 1
        assert (c.a, c.c) not in seen
        seen.add((c.a, c.c))


# [SL2(Z) : Gamma0(N)] = N prod_{p | N} (1 + 1/p)
GAMMA0_INDEX = {11: 12, 14: 24, 15: 24, 17: 18, 19: 20, 21: 32, 27: 36, 32: 48, 36: 72, 49: 56}


def test_widths():
    by = {(c.a, c.c): c.width for c in enumerate_cusps(36)}
    assert by[(1, 0)] == 1          # infinity
    assert by[(0, 1)] == 36         # zero cusp
    assert by[(1, 6)] == 1
    # widths sum to the index of Gamma0(N)
    for N, index in GAMMA0_INDEX.items():
        assert sum(c.width for c in enumerate_cusps(N)) == index, N


def test_scaling_matrices_are_unimodular():
    for N in (11, 36, 49):
        for cusp in enumerate_cusps(N):
            a, b, c, d = _scaling_matrix(cusp)
            assert a * d - b * c == 1
            if not cusp.is_infinity:
                assert (a, c) == (cusp.a, cusp.c)


def test_raw_basis_shapes_and_coefficients():
    rows = raw_basis(36, 10)
    # {E2} plus one combination per divisor d > 1 of 36: 1 + 8 rows
    assert len(rows) == 9
    e2 = rows[0].qexp
    assert e2[0] == 1 and e2[1] == -24 and e2[2] == -72
    d2 = next(r for r in rows if r.name.startswith("E2 - 2"))
    assert d2.qexp[0] == 1 - 2
    assert d2.qexp[1] == -24  # d E2(dz) has no q^1 term for d > 1


def test_cusp_constants_of_raw_forms():
    cusps11 = enumerate_cusps(11)
    v = cusp_constant({1: Fraction(1)}, cusps11[0], 40)     # E2 at infinity
    assert abs(v - 1) < mpf("1e-30")
    v0 = cusp_constant({1: Fraction(1), 11: Fraction(-11)}, cusps11[1], 40)
    # E2 - 11 E2(11z) at the zero cusp: 1 - 11/121 = 10/11
    assert abs(v0 - mpf(10) / 11) < mpf("1e-30")
    winf = cusp_constant({1: Fraction(1), 2: Fraction(-2)}, enumerate_cusps(14)[0], 40)
    assert abs(winf - (-1)) < mpf("1e-30")


def test_vector_orbit_action_closure():
    """One orbit per cusp: each closed under Gamma0(N), pairwise disjoint, and together
    the primitive vectors up to +-."""
    for N in (27, 36, 49):
        orbits = [cusp_orbit(c, N) for c in enumerate_cusps(N)]
        units = [u for u in range(1, N) if gcd(u, N) == 1]
        for orbit in orbits:
            members = set(orbit)
            for v in orbit:
                assert _canon((v[0], v[0] + v[1]), N) in members
                assert all(_canon((v[0] * u, v[1] * pow(u, -1, N)), N) in members for u in units)
        allv = [v for orbit in orbits for v in orbit]
        assert len(allv) == len(set(allv)), N
        primitive = {_canon((c1, c2), N) for c1 in range(N) for c2 in range(N)
                     if gcd(gcd(c1, c2), N) == 1}
        assert set(allv) == primitive, N


def test_vector_eval_slash_equivariance():
    """Numerical check of G2^v |_2 sigma = G2^{v sigma} for sigma in SL2(Z)."""
    N = 11
    with mp.workdps(40):
        z = mpc(mpf("0.31"), mpf("1.07"))
        sigma = (0, -1, 1, 0)
        for v in ((0, 1), (1, 0), (3, 7)):
            a, b, c, d = sigma
            w = ((v[0] * a + v[1] * c) % N, (v[0] * b + v[1] * d) % N)
            lhs = vector_eval(v, N, (a * z + b) / (c * z + d), 36) / (c * z + d) ** 2
            rhs = vector_eval(w, N, z, 36)
            assert abs(lhs - rhs) < mpf("1e-25"), v


def test_indicator_f_infinity_11_reference_values():
    f = infinity_indicator(11, 7)
    want = [Fraction(1), Fraction(1, 5), Fraction(3, 5), Fraction(4, 5),
            Fraction(7, 5), Fraction(6, 5), Fraction(12, 5)]
    assert [f[n] for n in range(7)] == want


def test_indicator_f_infinity_27_computed_values():
    """q^9 and q^18 match the reference anchors; q^27 is -15.

    Reference tables give -12 at q^27, which is an erratum: the indicator is
    -(1/8) E2(9z) + (9/8) E2(27z), whose q^27 coefficient is -15
    (test_indicator_f_infinity_27_e2_oracle), and direct summation of D(27;1)
    rules out -12 (acceptance check 6c).
    """
    f = infinity_indicator(27, 28)
    assert (f[9], f[18], f[27]) == (3, 9, -15)
    assert all(f[e] == 0 for e in range(1, 28) if e % 9)


def test_indicator_f_infinity_27_e2_oracle():
    """F^inf_{27,2} = -(1/8) E2(9z) + (9/8) E2(27z), independently of the vector orbits.

    The E2* cusp limits show the combination is 1 at infinity and 0 at the five
    other cusps of Gamma0(27), so it is the unique indicator; its q-expansion
    1 + 3 sum sigma_1(n) q^{9n} - 27 sum sigma_1(n) q^{27n} must then agree with
    the exact product and the orbit construction term by term.
    """
    weights = {9: Fraction(-1, 8), 27: Fraction(9, 8)}
    for c in enumerate_cusps(27):
        want = 1 if c.is_infinity else 0
        assert abs(cusp_constant(weights, c, 40) - want) < mpf("1e-30"), str(c)

    def sigma1(n):
        return sum(d for d in range(1, n + 1) if n % d == 0)

    n_max = 60
    want = {0: sum(weights.values())}
    for d, w in weights.items():
        for n in range(1, n_max // d + 1):
            want[d * n] = want.get(d * n, 0) - 24 * w * sigma1(n)
    assert want[27] == -15
    f = infinity_indicator(27, n_max)
    assert all(f[e] == want.get(e, 0) for e in range(n_max + 1))
    orbits = indicator_basis(27, n_max, 64)[enumerate_cusps(27)[0]]
    for e in range(n_max + 1):
        w = want.get(e, 0)
        assert abs(orbits[e] - mpf(w.numerator) / w.denominator) < mpf("1e-40"), e


def test_indicator_delta_property_numeric():
    """Every indicator is 1 at its own cusp and 0 at every other, as a numerical cusp limit."""
    for N in sorted(EXPECTED_COUNTS):
        eb = basis_for_level(N, 64)
        combos = eb.indicator_combos()
        k = len(eb.cusps)
        for i, j in product(range(k), repeat=2):
            v = eb.cusp_constant_numeric(combos[i], eb.cusps[j], 40)
            assert abs(v - (1 if i == j else 0)) < mpf("1e-10"), (N, i, j)


@pytest.mark.parametrize("N", (11, 27, 36, 49))
def test_cusp_constant_matches_per_vector_oracle(N):
    """The row-grouped cusp limit equals one vector_eval per slashed vector.

    The pairs are each indicator at its own cusp and at the next one, and the
    infinity indicator at the last cusp.
    """
    eb = basis_for_level(N, 64)
    combos = eb.indicator_combos()
    k = len(eb.cusps)
    pairs = {(i, j) for i in range(k) for j in (i, (i + 1) % k)} | {(0, k - 1)}
    for i, j in sorted(pairs):
        got = eb.cusp_constant_numeric(combos[i], eb.cusps[j], 40)
        want = cusp_constant_per_vector(eb, combos[i], eb.cusps[j], 40)
        assert abs(got - want) < mpf("1e-35"), (N, i, j)


def test_indicator_rational_recovery_diagnostic():
    """The vector-orbit infinity indicator at level 11 is rational to roundoff."""
    f = indicator_basis(11, 7, 64)[enumerate_cusps(11)[0]]
    for n in range(7):
        r = Fraction(float(f[n])).limit_denominator(10 ** 6)
        assert r.denominator <= 5
        assert abs(f[n] - mpf(r.numerator) / r.denominator) < mpf("1e-12")


def test_conjugate_cusp_indicators_are_conjugate():
    ind = indicator_basis(27, 12, 64)
    cusps = list(enumerate_cusps(27))
    third = {str(c): c for c in cusps}
    f13, f23 = ind[third["1/3"]], ind[third["2/3"]]
    with mp.workdps(40):
        for e in range(13):
            assert abs(f13[e] - mp.conj(f23[e])) < mpf("1e-30")


@pytest.mark.parametrize("N", sorted(EXPECTED_COUNTS))
def test_indicators_sum_to_e2(N):
    """E2 is 1 at every cusp, so the indicators of all the cusps add up to it.

    One orbit per cusp makes the value matrix square.
    """
    eb = basis_for_level(N, 64)
    assert (eb.values.rows, eb.values.cols) == (len(eb.cusps), len(eb.cusps))
    n_max = 30
    total = sum((f for f in indicator_basis(N, n_max, 64).values()), FourierSeries.zero(n_max + 1))
    e2 = e2_series(1, n_max)
    for e in range(n_max + 1):
        assert abs(total[e] - e2[e]) < mpf("1e-50"), (N, e)


@pytest.mark.parametrize("N", sorted(EXPECTED_COUNTS))
def test_combo_qexp_matches_per_vector_oracle(N):
    """`indicator_qexps`, from the exact integer expansion, equals the per-vector mp
    expansion of each indicator's combination through q^10.

    Both end at digits + 15 = 79 digits and round in different places, so they agree
    to 1e-75 relative.  At level 49 only the infinity and 1/7 indicators are compared.
    """
    eb = basis_for_level(N, 64)
    n_max = 10
    picked = [(c, combo, f) for c, combo, f in
              zip(eb.cusps, eb.indicator_combos(), eb.indicator_qexps(n_max))
              if N != 49 or str(c) in ("oo", "1/7")]
    for cusp, combo, f in picked:
        want = combo_qexp_per_vector(eb, combo, n_max)
        for e in range(n_max + 1):
            assert abs(f[e] - want[e]) <= mpf("1e-75") * max(abs(want[e]), 1), (N, str(cusp), e)


def test_combo_qexp_rejects_a_broken_orbit():
    """Dropping one vector from an orbit leaves a fractional exponent, and orbit_qexp
    raises, as does every indicator expansion that uses the orbit.

    The orbits broken are those of the cusps 1/3 at level 27 and 1/7 at level 49.
    """
    for N, cusp in ((27, "1/3"), (49, "1/7")):
        eb = basis_for_level(N, 64)
        j = [str(c) for c in eb.cusps].index(cusp)
        assert j in eb.indicator_combos()[j], (N, cusp)
        broken = copy.copy(eb)
        broken.orbits = [list(orbit) for orbit in eb.orbits]
        size = len(eb.orbits[j])
        broken.orbits[j].remove(next(v for v in broken.orbits[j] if v[0] % N))
        with pytest.raises(ArithmeticError, match="non-integer exponent"):
            broken.orbit_qexp(j, 3)
        with pytest.raises(ArithmeticError, match="non-integer exponent"):
            broken.indicator_qexps(3)
        assert len(eb.orbits[j]) == size
        eb.orbit_qexp(j, 3)
        eb.indicator_qexps(3)


@pytest.mark.parametrize("N", sorted(EXPECTED_COUNTS) + [2, 30, 210])
def test_vanishing_at_zeta_is_reduction_modulo_phi(N):
    """sum_{j<p} zeta_p^j reduces to 0 modulo Phi_N for each prime p | N; zeta_N^j alone does not.

    Multiples of sum_j x^(jN/p), hence of Phi_N, vanish too, and on those and on
    random integer rows the exact test agrees with the numerical value at zeta_N.
    """
    primes = [p for p in range(2, N + 1) if N % p == 0 and all(p % q for q in range(2, p))]
    for p in primes:
        row = np.zeros(N, dtype=np.int64)
        row[::N // p] = 1
        assert _vanishes_at_zeta(row[None, :], N).all(), (N, p)
    assert not _vanishes_at_zeta(np.eye(N, dtype=np.int64), N).any(), N
    b = np.random.default_rng(N).integers(-3, 4, size=(20, N))
    p = primes[-1]
    multiples = sum(np.roll(b, j * (N // p), axis=1) for j in range(p))
    rows = np.concatenate([multiples, b])
    with mp.workdps(30):
        zeta = _zeta_table(N, mp.prec)
        numeric = [abs(mp.fsum(h * zeta[t] for t, h in enumerate(row))) < mpf("1e-20")
                   for row in rows.tolist()]
    assert numeric[:20] == [True] * 20
    assert _vanishes_at_zeta(rows, N).tolist() == numeric


def test_indicator_basis_memory_at_level_49():
    """Every array of the expansion stays O(N (n_max + 1) N); the traced peak is below 1.5 MiB."""
    for fn in (basis_for_level, _zeta_table):
        fn.cache_clear()
    tracemalloc.start()
    try:
        indicator_basis(49, 30, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20, peak


def _prime_power_factors(N):
    out, p = [], 2
    while N > 1:
        e = 0
        while N % p == 0:
            N, e = N // p, e + 1
        if e:
            out.append((p, e))
        p += 1
    return out


@pytest.mark.parametrize("N", sorted(EXPECTED_COUNTS))
def test_infinity_indicator_is_e2_product(N):
    """F^inf_N = prod over p^e || N of (p^2 E2(p^e z) - E2(p^(e-1) z))/(p^2 - 1).

    The product multiplies the dilations, E2(d z) * E2(d' z) -> E2(d d' z).  It
    equals the oracle's E2 series exactly, and the infinity column of the
    vector-orbit basis to its roundoff.
    """
    weights = {1: Fraction(1)}
    for p, e in _prime_power_factors(N):
        factor = {p ** e: Fraction(p * p, p * p - 1), p ** (e - 1): Fraction(-1, p * p - 1)}
        weights = {d * d2: w * w2 for d, w in weights.items() for d2, w2 in factor.items()}
    n_max = 30
    want = sum((w * e2_series(d, n_max) for d, w in weights.items()), FourierSeries.zero(n_max + 1))
    f = infinity_indicator(N, n_max)
    assert f == want
    assert all(isinstance(c, (int, Fraction)) for c in f.coeffs.values())
    orbits = indicator_basis(N, n_max, 64)[enumerate_cusps(N)[0]]
    with mp.workdps(100):
        for e in range(n_max + 1):
            w = f[e]
            assert abs(orbits[e] - mpf(w.numerator) / w.denominator) <= mpf("1e-75"), (N, e)
