"""The cache policy: every cached object is keyed on the full model and explicit digits."""

from dataclasses import replace
from math import isqrt

import numpy as np
from mpmath import mp, mpc, mpf

from shiftedconv.curves import get_curve
import shiftedconv.newform
from shiftedconv.eisenstein import basis_for_level, indicator_basis
from shiftedconv.lattice import build_lattice
from shiftedconv.mockform import zhat_plus
from shiftedconv.newform import _an_table, an_array
from shiftedconv.shifted import l_series_closed_form


def test_curve_file_model_under_a_builtin_label_gets_its_own_lattice():
    """11a3 = [0,-1,1,0,0] under the label "11a1" must not be served the built-in 11a1 data."""
    builtin = get_curve("11a1")
    lat = build_lattice(builtin, 64)
    z = zhat_plus(builtin, 6, 64)
    other = replace(builtin, a4=0, a6=0)
    assert other.label == builtin.label and other.ainvs == (0, -1, 1, 0, 0)

    other_lat = build_lattice(other, 64)
    with mp.workdps(64):
        assert abs(lat.omega1 - mpf("1.2692093042795534")) < mpf("1e-15")
        assert abs(other_lat.omega1 - mpc(0, "2.917633234")) < mpf("1e-9")
        other_z = zhat_plus(other, 6, 64)
        assert max(abs(other_z[n] - z[n]) for n in range(-1, 7)) > mpf("1e-3")


def _bits(x):
    return x._mpc_ if isinstance(x, mpc) else x._mpf_


def _closed_form_objects():
    model = get_curve("11a1")
    finf = next(iter(indicator_basis(11, 12, 40).values()))      # the infinity indicator
    lat = build_lattice(model, 64)
    tab = l_series_closed_form(model, 5, 64, alpha=0)
    return ([_bits(finf[e]) for e in range(13)],
            [_bits(x) for x in (lat.omega1, lat.omega2, lat.volume,
                                lat.eta1, lat.eta2, lat.s_lambda)],
            [_bits(tab.entries[h]) for h in range(1, 6)])


def test_results_do_not_depend_on_ambient_precision_or_call_order():
    results = []
    for order in ((15, 100), (100, 15)):
        for fn in (basis_for_level, build_lattice, zhat_plus):
            fn.cache_clear()
        for dps in order:
            with mp.workdps(dps):
                results.append(_closed_form_objects())
    assert all(r == results[0] for r in results)


def test_an_table_serves_prefixes_and_counts_each_prime_once(monkeypatch):
    builtin = get_curve("11a1")
    model = replace(builtin, label="11a1 (prefix test)")      # a fresh cache key
    counted = []
    point_count = shiftedconv.newform.ap_point_count

    def counting(m, p):
        counted.append(p)
        return point_count(m, p)

    monkeypatch.setattr(shiftedconv.newform, "ap_point_count", counting)
    tables = _an_table.hits, _an_table.misses
    first = an_array(model, 1_000)
    full = an_array(model, 20_000)
    short = an_array(model, 500)
    n_primes = sum(1 for p in range(2, 20_001) if all(p % d for d in range(2, isqrt(p) + 1)))
    assert (len(counted) - len(set(counted)), len(counted)) == (0, n_primes)
    assert (_an_table.hits - tables[0], _an_table.misses - tables[1]) == (2, 1)

    assert len(first) == 1_001 and len(full) == 20_001 and len(short) == 501
    assert not (first.flags.writeable or full.flags.writeable or short.flags.writeable)
    assert np.array_equal(first, full[:1_001]) and np.array_equal(short, full[:501])
    one_shot = an_array(replace(builtin, label="11a1 (one-shot)"), 20_000)
    assert np.array_equal(full, one_shot)


def test_closed_form_builds_no_eisenstein_basis():
    """The closed form reads F^inf from its exact E2 product, so no basis is built."""
    misses = basis_for_level.misses
    tab = l_series_closed_form(get_curve("49a1"), 7, 50)
    assert basis_for_level.misses == misses
    assert len(tab.entries) == 7
