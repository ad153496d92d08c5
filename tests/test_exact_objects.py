"""Same outputs as a tier-1 test: every exact object equals its entry in
`tests/exact_objects.json` (rules in the file's header)."""

import json
from fractions import Fraction

import pytest

from exact_objects import PATH, encode, mismatches, raw_objects


@pytest.fixture(scope="module")
def raw():
    return raw_objects()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(PATH.read_text())["entries"]


def test_exact_objects_equal_the_recorded_table(raw, recorded):
    assert mismatches(recorded, encode(raw)) == []


def _one_unit(x):
    return Fraction(x.numerator + 1, x.denominator) if isinstance(x, Fraction) else x + 1


def test_a_one_unit_change_to_any_entry_fails(raw, recorded):
    """Each entry, with its first, middle or last number moved by one unit (the numerator
    of a Fraction), is the only entry the comparison reports; a(n) through its hash."""
    fresh = encode(raw)
    for key, values in raw.items():
        for i in (0, len(values) // 2, len(values) - 1):
            changed = [*values[:i], _one_unit(values[i]), *values[i + 1:]]
            assert mismatches(recorded, {**fresh, **encode({key: changed})}) == [key], (key, i)
    del fresh["11a1/R"]
    assert mismatches(recorded, fresh) == ["11a1/R"]
