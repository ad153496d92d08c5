"""Acceptance suite: one test per criterion, each printing its PASS/FAIL line.

Criterion 6's q^27 anchor for the level-27 infinity indicator is asserted as -15.
The tabulated -12 is an erratum: the unique indicator is -(1/8) E2(9z) + (9/8) E2(27z)
(proved by the oracle in test_eisenstein.py), and the direct-sum adjudication check
(6c) shows that the closed form built on -12 misses D(27;1) by about 2.6.
"""

import itertools

import pytest
from mpmath import mp

from shiftedconv.config import PrecisionConfig
from shiftedconv.curves import LABELS, get_curve
from shiftedconv.shifted import d_direct, l_series_closed_form
from shiftedconv import verify as V

CFG = PrecisionConfig()


@pytest.fixture(scope="module", autouse=True)
def _dps():
    with mp.workdps(CFG.digits):
        yield


def _run(check_id):
    result = V.run_check(check_id, CFG)
    print()
    print(result.report())
    return result


def test_criterion_01_newform_regression():
    assert _run("1-newform-27a1").passed


def test_criterion_02_s_lambda():
    assert _run("2-s-lambda-11a1").passed


def test_criterion_03_zhat_11():
    assert _run("3-zhat-11a1").passed


def test_criterion_04_zhat_cm_rationals():
    assert _run("4-zhat-cm-rationals").passed


def test_criterion_05_eta_derivative():
    assert _run("5-eta-derivative").passed


def test_criterion_06a_f_infinity_11():
    assert _run("6a-f-infinity-11").passed


def test_criterion_06b_f_infinity_27_as_stated():
    result = _run("6b-f-infinity-27")
    assert result.passed, (
        "F^inf_{27,2} must carry 3, 9, -15 at q^9, q^18, q^27, the coefficients "
        "of -(1/8) E2(9z) + (9/8) E2(27z); the tabulated -12 at q^27 is an "
        "erratum (see check 6c)")


def test_criterion_06c_f_infinity_27_adjudication():
    assert _run("6c-f-infinity-27-adjudication").passed


def test_criterion_07_theorem_n11():
    assert _run("7-theorem-n11").passed


def test_criterion_07b_squarefree_sweep():
    """Derived acceptance: closed-vs-direct residuals for the other squarefree levels."""
    worst = {}
    for label in ("14a1", "15a1", "17a1", "19a1", "21a1"):
        model = get_curve(label)
        tab = l_series_closed_form(model, 5, CFG.digits, CFG.direct_terms)
        resid = max(abs(float(tab.entries[h]) - d_direct(model, h, CFG.direct_terms).value)
                    for h in range(1, 6))
        worst[label] = resid
    print()
    for label, r in sorted(worst.items()):
        print(f"        closed-vs-direct residual {label}: {r:.5f}")
    assert max(worst.values()) <= 0.02


def test_criterion_08_theorem_n27():
    assert _run("8-theorem-n27").passed


def test_criterion_08b_cm_sweep_32_36():
    """Derived acceptance: the CM identity residuals for N = 32, 36."""
    for label, n0 in (("32a1", 4), ("36a1", 6)):
        model = get_curve(label)
        tab = l_series_closed_form(model, 12, CFG.digits)
        for h in range(1, 13):
            if h % n0:
                assert tab.entries[h] == 0, (label, h)
                assert d_direct(model, h, 2000).value == 0.0
            else:
                dv = d_direct(model, h, CFG.direct_terms)
                assert abs(float(tab.entries[h]) - dv.value) <= 0.02, (label, h)


def test_criterion_09_poincare_reconstruction():
    assert _run("9-poincare-reconstruction").passed


def test_criterion_10_property_suite():
    results = [V.run_check(c.check_id, CFG) for c in V.CHECKS if c.check_id.startswith("10")]
    print()
    for r in results:
        print(r.report())
    assert len(results) == 5 and all(r.passed for r in results)


def test_criterion_10b_cm_condition_can_fail():
    from shiftedconv.newform import an_array
    primes = [p for p in range(2, 2000) if all(p % q for q in range(2, p)) and 27 % p]
    assert V.cm_zero_mismatches(an_array(get_curve("27a1"), 2000), primes, -3) == []
    # the wrong CM field, or a curve without CM, fails at many primes
    assert len(V.cm_zero_mismatches(an_array(get_curve("27a1"), 2000), primes, -4)) > 100
    assert len(V.cm_zero_mismatches(an_array(get_curve("11a1"), 2000), primes, -3)) > 100


def test_criterion_10b_eta_condition_can_fail(monkeypatch):
    """At 11a1 the Hasse bound is all the point count leaves; the eta product catches a bad a_p."""
    from shiftedconv.newform import an_array
    a = an_array(get_curve("11a1"), 10_000).copy()
    assert V.eta_product_mismatches(a, V.ETA_PRODUCTS[11]) == []
    assert len(V.eta_product_mismatches(a, V.ETA_PRODUCTS[14])) > 1000
    a[9973] += 2 if a[9973] <= 0 else -2          # 9973 is prime; still within 2 sqrt(p)
    assert V.eta_product_mismatches(a, V.ETA_PRODUCTS[11]) == [9973]
    monkeypatch.setattr(V, "an_array", lambda model, n_max: a[:n_max + 1])
    hasse = V.run_check("10b-hasse", CFG, ["11a1"])
    assert not hasse.passed
    assert hasse.details["11a1"] == "eta product mismatch at [9973]"


def test_criterion_10e_indicator_delta_can_fail(monkeypatch):
    """One weight of one indicator's combination changed by 1 breaks the exact delta values."""
    import copy
    from shiftedconv.eisenstein import basis_for_level
    eb = basis_for_level(27)
    broken = copy.copy(eb)
    broken.combos = list(eb.combos)
    scale, w = eb.combos[1]
    i = min(w)
    bumped = w[i].copy()
    bumped[0] += 1
    broken.combos[1] = (scale, {**w, i: bumped})
    monkeypatch.setattr(V, "basis_for_level", lambda N: broken)
    delta = V.run_check("10e-indicator-delta", CFG, ["27a1"])
    assert not delta.passed
    assert delta.details["first_failure"].startswith(f"level 27: F^({eb.cusps[1]}) at ")


def test_criterion_11_beta_vanishing():
    assert _run("11-beta-vanishing").passed


def test_criterion_12_n49_experiment_report():
    result = _run("12-n49-experiment")
    assert result.passed  # report-only: must be produced, values not gated
    assert "alpha_fitted" in result.details


def test_details_print_every_zero_as_0_0():
    from fractions import Fraction
    from mpmath import mpf
    assert V.fmt(0, 3) == V.fmt(Fraction(0), 3) == V.fmt(mpf(0), 3) == "0.0"
    assert (V.fmt(-15, 3), V.fmt(Fraction(1, 5), 3)) == ("-15", "1/5")


ALL_IDS = ["1-newform-27a1", "2-s-lambda-11a1", "3-zhat-11a1", "4-zhat-cm-rationals",
           "5-eta-derivative", "6a-f-infinity-11", "6b-f-infinity-27",
           "6c-f-infinity-27-adjudication", "7-theorem-n11", "8-theorem-n27",
           "9-poincare-reconstruction", "10a-legendre", "10b-hasse", "10c-multiplicativity",
           "10d-cusp-counts", "10e-indicator-delta", "11-beta-vanishing", "12-n49-experiment"]
PROPERTY_IDS = ALL_IDS[11:16]
# the checks each label selects beyond the property checks, which every label selects
LABEL_IDS = {
    "11a1": ["2-s-lambda-11a1", "3-zhat-11a1", "6a-f-infinity-11", "7-theorem-n11",
             "9-poincare-reconstruction", "11-beta-vanishing"],
    "27a1": ["1-newform-27a1", "4-zhat-cm-rationals", "5-eta-derivative", "6b-f-infinity-27",
             "6c-f-infinity-27-adjudication", "8-theorem-n27", "11-beta-vanishing"],
    "32a1": ["4-zhat-cm-rationals", "5-eta-derivative"],
    "36a1": ["4-zhat-cm-rationals", "5-eta-derivative"],
    "49a1": ["12-n49-experiment"],
}


@pytest.mark.parametrize("label", [None, *LABELS])
def test_label_filter_selects_the_checks_of_each_curve(label):
    """The label filter alone, without running a check: ids unique, in the order 1 .. 12."""
    ids = [c.check_id for c in V.CHECKS]
    assert ids == ALL_IDS
    assert len(set(ids)) == len(ids)
    numbers = [int(i.split("-")[0].rstrip("abcde")) for i in ids]
    assert numbers == sorted(numbers) and set(numbers) == set(range(1, 13))
    want = ALL_IDS if label is None else [
        i for i in ALL_IDS if i in PROPERTY_IDS or i in LABEL_IDS.get(label, [])]
    assert [c.check_id for c in V.selected(None if label is None else [label])] == want


def test_run_check_refuses_a_check_the_labels_do_not_select():
    with pytest.raises(KeyError):
        V.run_check("1-newform-27a1", CFG, ["11a1"])


def test_a_bounded_check_shows_its_bound_and_fails_past_it(monkeypatch):
    """Checks 1, 2, 7 and 9 have a runtime bound, which their details show as `bound_s`; a
    run that takes longer fails."""
    assert {c.check_id: c.bound_s for c in V.CHECKS if c.bound_s is not None} == {
        "1-newform-27a1": 1.0, "2-s-lambda-11a1": 10.0, "7-theorem-n11": 120.0,
        "9-poincare-reconstruction": 60.0}
    on_time = V.run_check("1-newform-27a1", CFG)
    assert on_time.passed and on_time.details["bound_s"] == "1.0"
    assert "bound_s" not in V.run_check("10d-cusp-counts", CFG).details
    clock = itertools.count(0.0, 5.0)  # every reading 5 s after the one before
    monkeypatch.setattr(V.time, "time", lambda: next(clock))
    late = V.run_check("1-newform-27a1", CFG)
    assert not late.passed and late.runtime_s == 5.0
    assert late.details == on_time.details
