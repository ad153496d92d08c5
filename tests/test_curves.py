from dataclasses import replace

import pytest

from shiftedconv.curves import (CurveDataError, SUPPORTED_CONDUCTORS, get_curve,
                                load_registry, registry)


def test_registry_covers_the_ten_conductors():
    models = load_registry()
    assert sorted(m.conductor for m in models) == sorted(SUPPORTED_CONDUCTORS)
    for m in models:
        assert m.discriminant != 0


# Cremona's table: a-invariants and minimal discriminant of each optimal curve
CREMONA = {
    "11a1": ((0, -1, 1, -10, -20), -161051),
    "14a1": ((1, 0, 1, 4, -6), -21952),
    "15a1": ((1, 1, 1, -10, -10), 50625),
    "17a1": ((1, -1, 1, -1, -14), -83521),
    "19a1": ((0, 1, 1, -9, -15), -6859),
    "21a1": ((1, 0, 0, -4, -1), 3969),
    "27a1": ((0, 0, 1, 0, -7), -19683),
    "32a1": ((0, 0, 0, 4, 0), -4096),
    "36a1": ((0, 0, 0, 0, 1), -432),
    "49a1": ((1, -1, 0, -2, -1), -343),
}


def test_reference_models():
    """An isogenous model (11a3) or a non-minimal one has another discriminant."""
    assert [m.label for m in load_registry()] == list(CREMONA)
    for label, (ainvs, disc) in CREMONA.items():
        m = get_curve(label)
        assert (m.ainvs, m.discriminant) == (ainvs, disc)
    assert replace(get_curve("11a1"), a4=0, a6=0).discriminant == -11  # 11a3
    e = get_curve("11a1")
    scaled = replace(e, a1=2 * e.a1, a2=4 * e.a2, a3=8 * e.a3, a4=16 * e.a4, a6=64 * e.a6)
    assert scaled.discriminant == 2 ** 12 * e.discriminant


def test_flags():
    assert {m.conductor for m in load_registry() if m.has_cm} == {27, 32, 36, 49}
    assert {m.conductor for m in load_registry() if m.squarefree_level} == {11, 14, 15, 17, 19, 21}
    for m in load_registry():
        assert m.has_cm != m.squarefree_level


def test_lookup_by_label_and_conductor_agree():
    for m in load_registry():
        assert get_curve(m.label) is registry()[m.conductor]
    for key in ("37a1", 37, "11a3"):
        with pytest.raises(CurveDataError, match="no curve"):
            get_curve(key)


def test_short_invariants_11a1():
    from fractions import Fraction
    g2, g3 = get_curve("11a1").short_invariants()
    assert g2 == Fraction(124, 3)
    assert g3 == Fraction(2501, 27)
    # discriminant identity for the normalized model
    assert g2 ** 3 - 27 * g3 ** 2 == get_curve("11a1").discriminant
