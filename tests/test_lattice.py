import dataclasses
import itertools

import pytest
from mpmath import mp, mpf, mpc

from shiftedconv.curves import get_curve, load_registry
import shiftedconv.lattice as L
from shiftedconv.lattice import (Lattice, LatticeError, _e_k, _reduce_basis, _term_count,
                                 _two_division_values, build_lattice)

from g_oracle import eisenstein_numbers, g_numbers
from lambert_oracle import _e_k as lambert_e_k
from zeta_oracle import (RADIUS_RATIO, _wp_and_derivative, _zeta_series, laurent_numbers,
                         weierstrass_zeta)


def lattice_from_generators(omega1, omega2, digits: int) -> Lattice:
    """Lattice from explicit generators (no curve attached), without quasi-periods: the
    Eisenstein oracle reads only the generators."""
    with mp.workdps(digits + 20):
        o1, o2 = mpc(omega1), mpc(omega2)
        if (o2 / o1).imag < 0:
            o1, o2 = o2, o1
        o1, o2 = _reduce_basis(o1, o2)
        tau = o2 / o1
        volume = abs((mp.conj(o1) * o2).imag)
    return Lattice(o1, o2, tau, volume, eta1=None, eta2=None, s_lambda=None)


def perturbed_e_k(monkeypatch, k, delta, call=None):
    """Make `lattice._e_k` add `delta` to E_k: at every evaluation, or at the `call`-th
    evaluation of E_k only (the second E2 is the one at -1/tau)."""
    count = itertools.count(1)

    def e_k(kk, tau):
        value = _e_k(kk, tau)
        if kk == k:
            n = next(count)
            if call is None or n == call:
                value += delta
        return value

    monkeypatch.setattr(L, "_e_k", e_k)


def short_invariants(model):
    g2q, g3q = model.short_invariants()
    return mpf(g2q.numerator) / g2q.denominator, mpf(g3q.numerator) / g3q.denominator


def polyroots_two_division_values(model):
    """The real roots of 4x^3 - g2 x - g3 by mpmath's polyroots, largest first."""
    g2, g3 = short_invariants(model)
    roots = mp.polyroots([4, 0, -g2, -g3], extraprec=60)
    if model.discriminant > 0:
        return sorted((r.real for r in roots), reverse=True)
    return [min(roots, key=lambda r: abs(r.imag)).real]


def integration_period(model, dps):
    """Oracle: real period by direct numerical integration of dx/y.

    The substitution x = e1 + t^2 removes the endpoint singularity so tanh-sinh
    quadrature converges to full precision.
    """
    with mp.workdps(dps):
        g2, g3 = short_invariants(model)
        e1 = polyroots_two_division_values(model)[0]

        def integrand(t):
            x = e1 + t * t
            return 2 * t / mp.sqrt(4 * x ** 3 - g2 * x - g3)

        return 2 * mp.quad(integrand, [0, 1, mp.inf])


# frozen oracle values (integration + Carlson cross-check, 50 digits)
ORACLE_OMEGA1 = {
    "11a1": "1.2692093042795534216887946167545473052194922418306",
    "15a1": "1.4006030423326020231801808368097186046139673287334",
}


@pytest.mark.parametrize("label", sorted(ORACLE_OMEGA1))
def test_agm_periods_against_integration_oracle(label):
    model = get_curve(label)
    lat = build_lattice(model, 60)
    with mp.workdps(60):
        want = mpf(ORACLE_OMEGA1[label])
        live = integration_period(model, 110)
        # oracle self-consistency, then AGM vs oracle, both at 40+ digits
        assert abs(live.real - want) < mpf(10) ** -45
        # omega1 of the reduced basis generates the same lattice; the real period
        # is the positive real lattice generator
        cands = [abs(lat.omega1), abs(lat.omega2), abs(lat.omega1 + lat.omega2),
                 abs(lat.omega2 - lat.omega1), abs(2 * lat.omega1)]
        assert any(abs(c - want) < mpf(10) ** -40 for c in cands), label


def test_tau_orientation_and_volume():
    for m in load_registry():
        lat = build_lattice(m, 40)
        assert lat.tau.imag > 0
        with mp.workdps(50):
            assert abs(lat.volume - abs((mp.conj(lat.omega1) * lat.omega2).imag)) < mpf(10) ** -35
        assert lat.volume > 0


def test_legendre_relation_all_curves():
    for m in load_registry():
        lat = build_lattice(m, 64)
        with mp.workdps(80):
            resid = abs(lat.omega1 * lat.eta2 - lat.omega2 * lat.eta1 + 2 * mp.pi * mpc(0, 1))
        assert resid < mpf(10) ** -50, m.label


def test_quasi_periods_against_zeta_series_oracle():
    """eta_i from E2 equals 2 zeta(omega_i / 2) from the Laurent series and duplication."""
    for m in load_registry():
        lat = build_lattice(m, 64)
        with mp.workdps(79):
            gs = laurent_numbers(lat, min(abs(lat.tau) / 2, RADIUS_RATIO))  # |omega2| >= |omega1|
            assert abs(2 * weierstrass_zeta(lat, lat.omega1 / 2, gs) - lat.eta1) < mpf(10) ** -55, m.label
            assert abs(2 * weierstrass_zeta(lat, lat.omega2 / 2, gs) - lat.eta2) < mpf(10) ** -55, m.label


def test_square_lattice_classics():
    """32a1 has j = 1728, so its lattice is square: tau = i, eta1 omega1 = pi, S = 0, G_6 = 0."""
    lat = build_lattice(get_curve("32a1"), 48)
    with mp.workdps(58):
        assert abs(lat.tau - mpc(0, 1)) < mpf(10) ** -45
        assert abs(lat.eta1 * lat.omega1 - mp.pi) < mpf(10) ** -45
        assert abs(lat.s_lambda) < mpf(10) ** -45
        g4, g6 = eisenstein_numbers(lat, 6)
        assert abs(g6) < mpf(10) ** -45
        assert abs(g4) > mpf("0.1")


def test_cached_lattice_is_frozen():
    """Assigning any field of a cached lattice raises (at digits no other test builds at,
    so a lattice that let the assignment through would corrupt no other test)."""
    lat = build_lattice(get_curve("11a1"), 59)
    s = lat.s_lambda
    for field in dataclasses.fields(Lattice):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lat, field.name, mpc(0))
    assert build_lattice(get_curve("11a1"), 59) is lat and lat.s_lambda is s


def test_weight_scaling_of_eisenstein_numbers():
    lat1 = lattice_from_generators(1, mpc(0, 1), 40)
    lat2 = lattice_from_generators(2, mpc(0, 2), 40)
    with mp.workdps(50):
        g4a = eisenstein_numbers(lat1, 4)[0]
        g4b = eisenstein_numbers(lat2, 4)[0]
        assert abs(g4b - g4a / 16) < mpf(10) ** -38


def test_g_recursion_oracle():
    """Classical recursion (2n+3)(n-2) c_n = 3 sum c_m c_{n-1-m} for c_n = (2n+1) G_{2n+2}."""
    lat = build_lattice(get_curve("11a1"), 64)
    with mp.workdps(80):
        gs = eisenstein_numbers(lat, 24)  # G_4 .. G_24
        c = {n: (2 * n + 1) * gs[n - 1] for n in range(1, 12)}
        for n in range(3, 11):
            lhs = (2 * n + 3) * (n - 2) * c[n]
            rhs = 3 * sum(c[m] * c[n - 1 - m] for m in range(1, n - 1))
            assert abs(lhs - rhs) < mpf(10) ** -30 * (1 + abs(lhs)), n


def test_g_numbers_match_q_series_all_curves():
    """The two oracles for G_w agree: the exact wp recursion and the divisor-sum q-series,
    G_4 .. G_64, all ten curves."""
    for m in load_registry():
        lat = build_lattice(m, 64)
        with mp.workdps(90):
            for g, want in zip(g_numbers(m, 64), eisenstein_numbers(lat, 64), strict=True):
                got = mpf(g.numerator) / g.denominator
                assert abs(got - want) < mpf(10) ** -80 * (1 + abs(want)), m.label


def test_g2_g3_reproduction_all_curves():
    for m in load_registry():
        lat = build_lattice(m, 40)
        g2q, g3q = m.short_invariants()
        with mp.workdps(50):
            g4, g6 = eisenstein_numbers(lat, 6)
            g2 = mpf(g2q.numerator) / g2q.denominator
            g3 = mpf(g3q.numerator) / g3q.denominator
            scale = max(abs(g2), abs(g3), mpf(1))
            assert abs(60 * g4 - g2) / scale < mpf(10) ** -20, m.label
            assert abs(140 * g6 - g3) / scale < mpf(10) ** -20, m.label


def test_s_lambda_reference_value():
    lat = build_lattice(get_curve("11a1"), 64)
    assert abs(lat.s_lambda.real - mpf("0.38124")) < mpf("5e-5")
    assert abs(lat.s_lambda.imag) < mpf(10) ** -50


def test_s_lambda_cm_vanishing_and_49():
    for label in ("27a1", "32a1", "36a1"):
        lat = build_lattice(get_curve(label), 48)
        assert abs(lat.s_lambda) < mpf(10) ** -40, label
    lat49 = build_lattice(get_curve("49a1"), 48)
    with mp.workdps(58):
        assert abs(lat49.s_lambda - mpf(1) / 4) < mpf(10) ** -40


def test_s_lambda_eisenstein_summation_oracle():
    """Regularized Eisenstein summation vs the quasi-period solve.

    The row-ordered (Eisenstein) value of the weight-2 lattice sum is
    (pi^2/3) E2(tau) / omega1^2; passing to the s -> 0 regularized value subtracts
    pi conj(omega1) / (vol omega1).  The E2 sum here is mpmath's nsum, not the
    package's loop; the independent leg for the quasi-periods is the zeta Laurent
    series (test_quasi_periods_against_zeta_series_oracle).
    """
    for label in ("27a1", "11a1"):
        lat = build_lattice(get_curve(label), 48)
        with mp.workdps(58):
            q = mp.expjpi(2 * lat.tau)
            e2 = 1 - 24 * mp.nsum(lambda n: n * q ** n / (1 - q ** n), [1, mp.inf])
            s_oracle = (mp.pi ** 2 / 3) * e2 / lat.omega1 ** 2 \
                - mp.pi * mp.conj(lat.omega1) / (lat.volume * lat.omega1)
            assert abs(s_oracle - lat.s_lambda) < mpf(10) ** -40, label


def test_stability_under_precision_doubling():
    m = get_curve("19a1")
    lat_a = build_lattice(m, 30)
    lat_b = build_lattice(m, 60)
    with mp.workdps(70):
        assert abs(lat_a.omega1 - lat_b.omega1) < mpf(10) ** -25
        assert abs(lat_a.s_lambda - lat_b.s_lambda) < mpf(10) ** -25


def test_zeta_duplication_consistency():
    """zeta evaluated through the duplication path agrees with the series path."""
    lat = build_lattice(get_curve("11a1"), 48)
    with mp.workdps(58):
        z = lat.omega1 * mpf("0.31")  # inside the series radius
        gs = laurent_numbers(lat, mpf("0.62"))
        direct = weierstrass_zeta(lat, z, gs)
        # force duplication: evaluate at 2z via formula and compare to series at 2z
        wp, wpd = _wp_and_derivative(lat, z, gs)
        wpdd = 6 * wp * wp - 30 * gs[0]
        dup = 2 * direct + wpdd / (2 * wpd)
        ser = _zeta_series(lat, 2 * z, gs)
        assert abs(dup - ser) < mpf(10) ** -40


def test_precondition_on_digits():
    with pytest.raises(ValueError):
        build_lattice(get_curve("11a1"), 10)


# The builds under a perturbed _e_k below use digits that no other test builds at, so the
# memo cannot serve them an earlier lattice; each build raises, so none is cached.

def test_g2_g3_reproduction_check_is_live(monkeypatch):
    """E4 off by 1e-30 no longer reproduces g2 to 10^-(digits+5) and raises."""
    perturbed_e_k(monkeypatch, 4, mpf("1e-30"))
    with pytest.raises(LatticeError, match="g2/g3"):
        build_lattice(get_curve("11a1"), 41)


def test_quasi_periods_legendre_check_is_live(monkeypatch):
    """E2 off by 1e-20 breaks the Legendre relation and raises; unperturbed, the same build
    passes."""
    with monkeypatch.context() as patch:
        perturbed_e_k(patch, 2, mpf("1e-20"))
        with pytest.raises(LatticeError, match="Legendre"):
            build_lattice(get_curve("14a1"), 43)
    lat = build_lattice(get_curve("14a1"), 43)
    with mp.workdps(58):
        assert abs(lat.omega1 * lat.eta2 - lat.omega2 * lat.eta1 + 2 * mp.pi * mpc(0, 1)) < mpf(10) ** -33


def test_nan_e4_fails_the_g2_g3_check(monkeypatch):
    """A NaN compares false with every tolerance, so it must fail the check, not pass it."""
    perturbed_e_k(monkeypatch, 4, mp.nan)
    with pytest.raises(LatticeError, match="g2/g3"):
        build_lattice(get_curve("11a1"), 44)


def test_nan_e2_fails_the_legendre_check(monkeypatch):
    perturbed_e_k(monkeypatch, 2, mp.nan)
    with pytest.raises(LatticeError, match="Legendre"):
        build_lattice(get_curve("11a1"), 45)


def test_eta2_cross_check_is_the_legendre_check_over_omega1(monkeypatch):
    """The eta2 cross-check cannot raise once the Legendre check has passed.

    With c = pi/vol and vol = Im(conj(omega1) omega2), omega1 (eta2 - S omega2 - c conj(omega2))
    = omega1 eta2 - omega2 eta1 + 2 pi i, so the cross-check residual is the Legendre residual
    over |omega1|.  Its tolerance 10^-(digits-12) (1 + |eta2|) times |omega1| exceeds the
    Legendre tolerance 10^-(digits-10) at every curve, so an E2 at -1/tau perturbed past the
    cross-check's tolerance trips the Legendre check first."""
    for m in load_registry():
        lat = build_lattice(m, 64)
        with mp.workdps(79):
            eta2 = lat.eta2 + mpc("1e-40", "1e-40")
            cross = abs(eta2 - (lat.s_lambda * lat.omega2 + mp.pi / lat.volume * mp.conj(lat.omega2)))
            legendre = abs(lat.omega1 * eta2 - lat.omega2 * lat.eta1 + 2 * mp.pi * mpc(0, 1))
            assert abs(abs(lat.omega1) * cross - legendre) < mpf(10) ** -70, m.label
            assert 100 * abs(lat.omega1) * (1 + abs(lat.eta2)) > 1, m.label
    lat, digits = build_lattice(get_curve("11a1"), 64), 47
    # E2(-1/tau) off by delta moves eta2 by (pi^2/3) delta / omega2: ten cross-check tolerances
    delta = 10 * mpf(10) ** -(digits - 12) * (1 + abs(lat.eta2)) * abs(lat.omega2) * 3 / mp.pi ** 2
    perturbed_e_k(monkeypatch, 2, delta, call=2)
    with pytest.raises(LatticeError, match="Legendre"):
        build_lattice(get_curve("11a1"), digits)


@pytest.mark.parametrize("digits", [64, 80])
def test_newton_roots_match_polyroots(digits):
    """Newton's e1 and the quadratic factor's e2, e3 against mpmath's polyroots."""
    for m in load_registry():
        with mp.workdps(digits + 20):
            got = _two_division_values(*short_invariants(m), m.discriminant > 0)
            want = polyroots_two_division_values(m)
            for a, b in zip(got, want, strict=True):
                assert abs(a - b) < mpf(10) ** -(digits + 10), m.label


def test_newton_without_convergence_raises(monkeypatch):
    monkeypatch.setattr(L, "_NEWTON_STEPS", 1)
    with mp.workdps(84), pytest.raises(LatticeError, match="Newton"):
        _two_division_values(*short_invariants(get_curve("11a1")), False)


@pytest.mark.parametrize("digits", [64, 80])
def test_fixed_point_series_match_the_lambert_loop(digits):
    """E2, E4, E6 at tau and -1/tau against the Lambert-series loop, at the working precisions
    of the lattice (digits + 20 for E4, E6 and digits + 15 for E2), in absolute terms:
    E4(tau) = 0 at the j = 0 curves 27a1 and 36a1.  Each sum is within about 10^-dps of
    E_k, whose values here are below 20."""
    for m in load_registry():
        lat = build_lattice(m, digits)
        for dps, ks in ((digits + 20, (4, 6)), (digits + 15, (2,))):
            with mp.workdps(dps):
                for k in ks:
                    for tau in (lat.tau, -1 / lat.tau):
                        assert abs(_e_k(k, tau) - lambert_e_k(k, tau)) < mpf(10) ** -(dps - 2), \
                            (m.label, k)


def test_term_count_is_the_smallest_under_the_tail_bound():
    """M is the first count whose tail bound (M+1)^k |q|^(M+1) / (1 - |q| ((M+2)/(M+1))^k)
    is below 10^-(dps+5); a |q| near 1 needs more than 10 dps + 100 terms and raises."""
    def bound(k, q, m):
        return (m + 1) ** k * q ** (m + 1) / (1 - q * ((m + 2) / (m + 1)) ** k)

    with mp.workdps(50):
        for k, q, dps in ((2, mpf("0.024"), 79), (6, mpf("0.0043"), 100), (4, mpf("0.5"), 30)):
            m = _term_count(k, float(mp.log(q)), dps)
            assert bound(k, q, m) < mpf(10) ** -(dps + 5) <= bound(k, q, m - 1), (k, q)
    with pytest.raises(LatticeError, match="terms"):
        _term_count(2, -1e-3, 64)
