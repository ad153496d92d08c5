import copy
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from mpmath import mp, mpf, mpc

from shiftedconv.eisenstein import (basis_for_level, cusp_count, cusp_orbit, enumerate_cusps,
                                    indicator_basis, infinity_indicator, _canon, _inverse,
                                    _kappa_rows, _reduce, _reduction, _scaling_matrix,
                                    _vanishes_at_zeta)

from shiftedconv.series import FourierSeries

from e2_oracle import cusp_constant, e2_series, raw_basis
from vector_oracle import combo_qexp_per_vector, cusp_constant_per_vector, vector_eval

EXPECTED_COUNTS = {11: 2, 14: 4, 15: 4, 17: 2, 19: 2, 21: 4, 27: 6, 32: 8, 36: 12, 49: 8}


@pytest.fixture(scope="module", autouse=True)
def _dps():
    with mp.workdps(64):
        yield


def _roots(N):
    return [mp.expjpi(mpf(2 * k) / N) for k in range(N)]


def _coords(terms):
    """Coordinates over the basis zeta_N^u, u < phi(N), of sum scale * C over reduced (scale, C).

    Reduced rows are the unique representatives modulo Phi_N, so two sums are equal
    exactly when their coordinates are.
    """
    return [sum((scale * int(c[u]) for scale, c in terms), Fraction(0)) for u in range(len(terms[0][1]))]


def _rational_coords(x, N):
    return [Fraction(x)] + [Fraction(0)] * (_reduction(N).shape[1] - 1)


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


def test_enumerate_cusps_raises_on_a_wrong_count(monkeypatch):
    """The count check is an ArithmeticError, which `python -O` keeps (check 10d relies on it)."""
    import shiftedconv.eisenstein as eisenstein
    monkeypatch.setattr(eisenstein, "cusp_count", lambda N: EXPECTED_COUNTS[N] + 1)
    with pytest.raises(ArithmeticError, match="level 11: 2 cusps enumerated, 3 expected"):
        enumerate_cusps(11)


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


@pytest.mark.parametrize("N", sorted(EXPECTED_COUNTS))
def test_indicators_are_exactly_delta_at_the_cusps(N):
    """sum_i values[j, i] scale w_i, reduced modulo Phi_N, is exactly 1 at j = j' and 0 elsewhere,
    and `cusp_values` gives the same coordinates."""
    eb = basis_for_level(N)
    for jp, (scale, w) in enumerate(eb.combos):
        got = eb.cusp_values((scale, w))
        for j in range(len(eb.cusps)):
            c = sum(np.convolve(eb.values[j, i].astype(object), w[i].astype(object)) for i in w)
            value = _coords([(scale, _reduce(c[:N] + np.append(c[N:], 0), N))])
            assert value == got[j] == _rational_coords(int(j == jp), N), (N, j, jp)


@pytest.mark.parametrize("N", sorted(EXPECTED_COUNTS) + [2, 30])
def test_kappa_rows_match_the_sine_formula(N):
    """pi^2/(3 N^4) sum_t row_s[t] zeta_N^t = pi^2/(N sin(pi s/N))^2, and pi^2/3 at s = 0."""
    zeta = _roots(N)
    for s, row in enumerate(_kappa_rows(N).tolist()):
        got = mp.pi ** 2 / (3 * N ** 4) * mp.fsum(h * z for h, z in zip(row, zeta))
        want = mp.pi ** 2 / 3 if s == 0 else (mp.pi / (N * mp.sinpi(mpf(s) / N))) ** 2
        assert abs(got - want) < mpf("1e-55") * want, (N, s)


def test_inverse_rejects_an_irrational_determinant():
    """A 1 x 1 value block zeta_5 is invertible but not rational, and `_inverse` raises."""
    values = np.zeros((1, 1, 5), dtype=np.int64)
    values[0, 0, 1] = 1
    with pytest.raises(ArithmeticError, match="irrational determinant"):
        _inverse(values, 5)
    values[0, 0] = [3, 0, 0, 0, 0]
    scale, w = _inverse(values, 5)[0]
    assert scale == Fraction(1, 3) and list(w) == [0] and w[0].tolist() == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("N", sorted(EXPECTED_COUNTS))
def test_cusp_constant_matches_per_vector_oracle(N):
    """The cusp limit of each indicator, one vector_eval per slashed vector with kappa from
    the sine formula, is 1 at its own cusp and 0 at the others, as the exact values say.

    The pairs are each indicator at its own cusp and at the next one, and the
    infinity indicator at the last cusp.
    """
    eb = basis_for_level(N)
    k = len(eb.cusps)
    pairs = {(i, j) for i in range(k) for j in (i, (i + 1) % k)} | {(0, k - 1)}
    for i, j in sorted(pairs):
        got = cusp_constant_per_vector(eb, eb.combos[i], eb.cusps[j], 40)
        assert abs(got - (1 if i == j else 0)) < mpf("1e-35"), (N, i, j)


def test_indicator_rational_recovery_diagnostic():
    """The vector-orbit infinity indicator at level 11 is rational to roundoff."""
    f = indicator_basis(11, 7, 64)[enumerate_cusps(11)[0]]
    for n in range(7):
        r = Fraction(float(f[n])).limit_denominator(10 ** 6)
        assert r.denominator <= 5
        assert abs(f[n] - mpf(r.numerator) / r.denominator) < mpf("1e-12")


def test_conjugate_cusp_indicators_are_conjugate():
    """F^(1/3) and F^(2/3) at level 27 are exact complex conjugates, coefficient by
    coefficient, and not real."""
    N = 27
    eb = basis_for_level(N)
    exact = dict(zip(map(str, eb.cusps), eb.indicator_qexps(12)))
    (s13, c13), (s23, c23) = exact["1/3"], exact["2/3"]
    conj23 = _reduce(np.pad(c23, ((0, 0), (0, N - c23.shape[1])))[:, (-np.arange(N)) % N], N)
    for e in range(13):
        assert _coords([(s13, c13[e])]) == _coords([(s23, conj23[e])]), e
    assert any(x != 0 for e in range(13) for x in _coords([(s13, c13[e])])[1:])


@pytest.mark.parametrize("N", sorted(EXPECTED_COUNTS))
def test_indicators_sum_to_e2(N):
    """E2 is 1 at every cusp, so the indicators of all the cusps add up to it.

    One orbit per cusp makes the value matrix square.
    """
    eb = basis_for_level(N)
    assert eb.values.shape == (len(eb.cusps), len(eb.cusps), N)
    n_max = 30
    exact = eb.indicator_qexps(n_max)
    e2 = e2_series(1, n_max)
    for e in range(n_max + 1):
        assert _coords([(scale, C[e]) for scale, C in exact]) == _rational_coords(e2[e], N), (N, e)


@pytest.mark.parametrize("N", sorted(EXPECTED_COUNTS))
def test_combo_qexp_matches_per_vector_oracle(N):
    """`indicator_basis`, from the exact integer expansion and taken at 80 digits, equals
    the per-vector mp expansion of each indicator's combination through q^10.

    The oracle works at 64 + 15 = 79 digits and has its own kappa(s) and roots of unity,
    so the two agree to 1e-75 relative.  At level 49 only the infinity and 1/7
    indicators are compared.
    """
    eb = basis_for_level(N)
    n_max = 10
    picked = [(c, combo, f) for c, combo, f in
              zip(eb.cusps, eb.combos, indicator_basis(N, n_max, 80).values())
              if N != 49 or str(c) in ("oo", "1/7")]
    for cusp, combo, f in picked:
        want = combo_qexp_per_vector(eb, combo, n_max, 64)
        for e in range(n_max + 1):
            assert abs(f[e] - want[e]) <= mpf("1e-75") * max(abs(want[e]), 1), (N, str(cusp), e)


def test_combo_qexp_rejects_a_broken_orbit():
    """Dropping one vector from an orbit leaves a fractional exponent, and orbit_qexp
    raises, as does every indicator expansion that uses the orbit.

    The orbits broken are those of the cusps 1/3 at level 27 and 1/7 at level 49.
    """
    for N, cusp in ((27, "1/3"), (49, "1/7")):
        eb = basis_for_level(N)
        j = [str(c) for c in eb.cusps].index(cusp)
        assert j in eb.combos[j][1], (N, cusp)
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
    random integer rows the exact test agrees with the numerical value at zeta_N.  Rows
    past int64 are tested in Python integers: 2^64 (which int64 would wrap to 0) does
    not vanish, and 2^70 times a vanishing row does.
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
        zeta = _roots(N)
        numeric = [abs(mp.fsum(h * zeta[t] for t, h in enumerate(row))) < mpf("1e-20")
                   for row in rows.tolist()]
    assert numeric[:20] == [True] * 20
    assert _vanishes_at_zeta(rows, N).tolist() == numeric
    big = np.zeros((2, N), dtype=object)
    big[0, 0] = 2 ** 64
    big[1] = [2 ** 70 * int(x) for x in multiples[0]]
    assert _vanishes_at_zeta(big, N).tolist() == [False, True]


def test_indicator_basis_memory_at_level_49():
    """Every array of the expansion stays O(N (n_max + 1) N); the traced peak is below 1.5 MiB."""
    for fn in (basis_for_level, _reduction):
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
    equals the oracle's E2 series exactly, and so does the infinity indicator of the
    exact vector-orbit basis.
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
    scale, C = basis_for_level(N).indicator_qexps(n_max)[0]
    for e in range(n_max + 1):
        assert _coords([(scale, C[e])]) == _rational_coords(f[e], N), (N, e)
