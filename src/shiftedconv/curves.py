"""Registry of the ten strong Weil curves with genus(X0(N)) = 1 and modular degree 1."""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass

from .config import memo

SUPPORTED_CONDUCTORS = (11, 14, 15, 17, 19, 21, 27, 32, 36, 49)
CM_DISCRIMINANTS = {27: -3, 32: -4, 36: -3, 49: -7}  # of the CM field Q(sqrt D)
CM_CONDUCTORS = frozenset(CM_DISCRIMINANTS)
SQUAREFREE_CONDUCTORS = frozenset({11, 14, 15, 17, 19, 21})


class CurveDataError(ValueError):
    """Malformed or inconsistent curve data."""


@dataclass(frozen=True)
class EllipticCurveModel:
    """Long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    label: str
    conductor: int
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    @property
    def has_cm(self) -> bool:
        return self.conductor in CM_CONDUCTORS

    @property
    def squarefree_level(self) -> bool:
        return self.conductor in SQUAREFREE_CONDUCTORS

    @property
    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    # standard b-invariants of the long model
    @property
    def b2(self) -> int:
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self) -> int:
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self) -> int:
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self) -> int:
        return (self.a1 * self.a1 * self.a6 + 4 * self.a2 * self.a6
                - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 * self.a3
                - self.a4 * self.a4)

    @property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def short_invariants(self):
        """(g2, g3) of the isomorphic model y^2 = 4x^3 - g2 x - g3, as exact Fractions."""
        from fractions import Fraction
        b2, b4, b6 = self.b2, self.b4, self.b6
        g2 = Fraction(b2 * b2 - 24 * b4, 12)
        g3 = Fraction(-b2 ** 3 + 36 * b2 * b4 - 216 * b6, 216)
        return g2, g3


def _validate(models: list[EllipticCurveModel]) -> list[EllipticCurveModel]:
    seen = {}
    for m in models:
        if m.conductor not in SUPPORTED_CONDUCTORS:
            raise CurveDataError(f"{m.label}: conductor {m.conductor} outside the supported set")
        if m.conductor in seen:
            raise CurveDataError(f"duplicate conductor {m.conductor} ({seen[m.conductor]}, {m.label})")
        if m.discriminant == 0:
            raise CurveDataError(f"{m.label}: singular model (discriminant 0)")
        seen[m.conductor] = m.label
    missing = [N for N in SUPPORTED_CONDUCTORS if N not in seen]
    if missing:
        raise CurveDataError(f"missing conductors: {missing}")
    return sorted(models, key=lambda m: m.conductor)


def _parse(lines, source: str) -> list[EllipticCurveModel]:
    models = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 7:
            raise CurveDataError(f"{source}:{lineno}: expected 'label N a1 a2 a3 a4 a6', got {len(parts)} fields")
        label = parts[0]
        try:
            nums = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise CurveDataError(f"{source}:{lineno}: non-integer field ({exc})") from None
        models.append(EllipticCurveModel(label, nums[0], *nums[1:]))
    return models


def load_registry(path: str | None = None) -> list[EllipticCurveModel]:
    """Load and validate curve models from a file, or the built-in table if path is None."""
    if path is None:
        text = importlib.resources.files("shiftedconv.data").joinpath("curves.txt").read_text()
        return _validate(_parse(text.splitlines(), "builtin"))
    with open(path, encoding="utf-8") as fh:
        return _validate(_parse(fh, path))


@memo
def registry(path: str | None = None) -> dict:
    """Label- and conductor-keyed lookup table (cached per path)."""
    table = {}
    for m in load_registry(path):
        table[m.label] = m
        table[m.conductor] = m
    return table


def get_curve(key, path: str | None = None) -> EllipticCurveModel:
    """Look up a model by label (e.g. '11a1') or conductor (e.g. 11)."""
    table = registry(path)
    if isinstance(key, str) and key.isdigit():
        key = int(key)
    try:
        return table[key]
    except KeyError:
        raise CurveDataError(f"no curve with label or conductor {key!r}") from None
