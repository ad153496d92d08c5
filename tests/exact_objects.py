"""The exact objects of the ten curves, as `tests/exact_objects.json` records them.

`raw_objects()` computes each object as a flat list of exact numbers (int or
Fraction), keyed "<label>/<name>" per curve or "<level>/<name>" per level;
`encode` turns them into the file's form, one string per entry; `mismatches` names
the keys on which two encoded tables differ.  `scripts/write_exact_objects.py`
writes the file and `tests/test_exact_objects.py` compares a fresh build with it.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from shiftedconv.curves import load_registry
from shiftedconv.eisenstein import basis_for_level, infinity_indicator
from shiftedconv.mockform import mock_parts, parametrization_x
from shiftedconv.newform import an_array
from shiftedconv.shifted import affine_parts

PATH = Path(__file__).with_name("exact_objects.json")
AN_MAX, MOCK_MAX, AFFINE_MAX = 2000, 40, 30
HEADER = [
    "The exact objects the program computes for the ten curves, compared exactly by "
    "tests/test_exact_objects.py; written by scripts/write_exact_objects.py.",
    "It records what the program computes. It is not a reference, and it replaces no "
    "acceptance check and no oracle.",
    "Only a change that means to change an exact object regenerates it, and that change "
    "names every changed entry in CHANGES.md and says why.",
    f"<label>/a(n): sha256 of the decimal a(1), ..., a({AN_MAX}) joined by commas.",
    "Every other entry lists its exact numbers, lowest power of q first, separated by spaces.",
    f"<label>/R, E, x: R and E of the mock form (q^-1, q^0 .. q^{MOCK_MAX}) and x(q) of the "
    f"modular parametrization (q^-2 .. q^{MOCK_MAX}).",
    f"<label>/A, B: the affine parts A = f R - F^inf and B = f E, q^0 .. q^{AFFINE_MAX}.",
    f"<level>/F^inf: the infinity indicator, q^0 .. q^{AFFINE_MAX}.",
    f"<level>/F^(cusp): the indicator's scale, then its exact rows over zeta_N^u, u < phi(N), "
    f"for q^0 .. q^{AFFINE_MAX}, flattened row by row (EisensteinBasis.indicator_qexps).",
]


def _series(s, lo: int) -> list:
    return [s[e] for e in range(lo, s.truncation)]


def raw_objects() -> dict:
    out = {}
    for model in load_registry():
        a = an_array(model, max(AN_MAX, MOCK_MAX + 3)).tolist()
        r, e = mock_parts(model, MOCK_MAX)
        a_part, b_part = affine_parts(model, AFFINE_MAX)
        out |= {f"{model.label}/a(n)": a[1:AN_MAX + 1],
                f"{model.label}/R": _series(r, -1), f"{model.label}/E": _series(e, 0),
                f"{model.label}/x": parametrization_x(model, a[:MOCK_MAX + 4]),
                f"{model.label}/A": _series(a_part, 0), f"{model.label}/B": _series(b_part, 0)}
    for N in sorted({model.conductor for model in load_registry()}):
        eb = basis_for_level(N)
        out[f"{N}/F^inf"] = _series(infinity_indicator(N, AFFINE_MAX), 0)
        for cusp, (scale, C) in zip(eb.cusps, eb.indicator_qexps(AFFINE_MAX)):
            out[f"{N}/F^({cusp})"] = [scale, *C.ravel().tolist()]
    return out


def encode(raw: dict) -> dict:
    """Each object as its exact numbers joined by spaces; a(n) as one sha256."""
    out = {}
    for key, values in raw.items():
        if key.endswith("/a(n)"):
            out[key] = hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()
        else:
            out[key] = " ".join(map(str, values))
    return out


def mismatches(recorded: dict, fresh: dict) -> list:
    """The keys whose entries differ, or which one table lacks."""
    return sorted(k for k in recorded.keys() | fresh.keys() if recorded.get(k) != fresh.get(k))
