"""Registry of the ten strong Weil curves with genus(X0(N)) = 1 and modular degree 1."""

from __future__ import annotations

from dataclasses import dataclass

CM_DISCRIMINANTS = {27: -3, 32: -4, 36: -3, 49: -7}  # of the CM field Q(sqrt D)
CM_CONDUCTORS = frozenset(CM_DISCRIMINANTS)
SQUAREFREE_CONDUCTORS = frozenset({11, 14, 15, 17, 19, 21})


class CurveDataError(ValueError):
    """A label or conductor outside the ten."""


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


# Cremona's optimal curves of the ten levels, in their minimal models
# (Cremona, *Algorithms for Modular Elliptic Curves*)
_MODELS = (
    EllipticCurveModel("11a1", 11, 0, -1, 1, -10, -20),
    EllipticCurveModel("14a1", 14, 1, 0, 1, 4, -6),
    EllipticCurveModel("15a1", 15, 1, 1, 1, -10, -10),
    EllipticCurveModel("17a1", 17, 1, -1, 1, -1, -14),
    EllipticCurveModel("19a1", 19, 0, 1, 1, -9, -15),
    EllipticCurveModel("21a1", 21, 1, 0, 0, -4, -1),
    EllipticCurveModel("27a1", 27, 0, 0, 1, 0, -7),
    EllipticCurveModel("32a1", 32, 0, 0, 0, 4, 0),
    EllipticCurveModel("36a1", 36, 0, 0, 0, 0, 1),
    EllipticCurveModel("49a1", 49, 1, -1, 0, -2, -1),
)
LABELS = tuple(m.label for m in _MODELS)
SUPPORTED_CONDUCTORS = tuple(m.conductor for m in _MODELS)
_BY_KEY = {**{m.label: m for m in _MODELS}, **{m.conductor: m for m in _MODELS}}


def load_registry() -> list[EllipticCurveModel]:
    """The ten models, in increasing conductor."""
    return list(_MODELS)


def registry() -> dict:
    """Label- and conductor-keyed lookup table."""
    return _BY_KEY


def get_curve(key) -> EllipticCurveModel:
    """Look up a model by label (e.g. '11a1') or conductor (e.g. 11)."""
    if isinstance(key, str) and key.isdigit():
        key = int(key)
    try:
        return _BY_KEY[key]
    except KeyError:
        raise CurveDataError(f"no curve with label or conductor {key!r}") from None
