"""Truncated q-expansions with integer exponents and exact or high-precision coefficients."""

from __future__ import annotations

from fractions import Fraction
from operator import index

import mpmath
from mpmath import mp


class TruncationError(Exception):
    """Raised when a coefficient at or beyond the truncation order is requested."""


def _is_exact(c) -> bool:
    return isinstance(c, (int, Fraction))


class FourierSeries:
    """A q-expansion sum_{e} c_e q^e, coefficients known for exponents strictly below `truncation`.

    Exponents and truncations are integers: every expansion here is taken at the cusp
    infinity of Gamma0(N), which has width 1, and a Fraction or float exponent raises
    TypeError.  Coefficients are either exact (int/Fraction) or mpmath numbers; mixing
    promotes to mpmath at the ambient precision.
    """

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation):
        truncation = index(truncation)
        clean = {}
        for e, c in coeffs.items():
            e = index(e)
            if e >= truncation:
                raise TruncationError(f"coefficient at q^{e} is at or beyond truncation {truncation}")
            if _is_exact(c):
                if c != 0:
                    clean[e] = c if isinstance(c, int) else (int(c) if c.denominator == 1 else c)
            else:
                clean[e] = c
        self.coeffs = clean
        self.truncation = truncation

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, truncation):
        return cls({}, truncation)

    @classmethod
    def one(cls, truncation):
        return cls({0: 1}, truncation)

    # -- inspection ------------------------------------------------------

    @property
    def leading_exponent(self):
        """Smallest exponent with a stored coefficient; truncation order if none."""
        return min(self.coeffs) if self.coeffs else self.truncation

    def coefficient(self, e):
        e = index(e)
        if e >= self.truncation:
            raise TruncationError(f"q^{e} not determined: truncation is {self.truncation}")
        return self.coeffs.get(e, 0)

    def __getitem__(self, e):
        return self.coefficient(e)

    def __eq__(self, other):
        if not isinstance(other, FourierSeries):
            return NotImplemented
        return self.truncation == other.truncation and self.coeffs == other.coeffs

    # -- arithmetic ------------------------------------------------------

    def __neg__(self):
        return FourierSeries({e: -c for e, c in self.coeffs.items()}, self.truncation)

    def __add__(self, other):
        if not isinstance(other, FourierSeries):
            other = FourierSeries({0: other}, self.truncation)
        t = min(self.truncation, other.truncation)
        out = {e: c for e, c in self.coeffs.items() if e < t}
        for e, c in other.coeffs.items():
            if e < t:
                out[e] = out.get(e, 0) + c
        return FourierSeries(out, t)

    def __sub__(self, other):
        if not isinstance(other, FourierSeries):
            other = FourierSeries({0: other}, self.truncation)
        return self.__add__(-other)

    def __mul__(self, other):
        if not isinstance(other, FourierSeries):
            if _is_exact(other) and other == 0:
                return FourierSeries.zero(self.truncation)
            return FourierSeries({e: c * other for e, c in self.coeffs.items()}, self.truncation)
        t = min(self.truncation + other.leading_exponent,
                other.truncation + self.leading_exponent)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e < t:
                    out[e] = out.get(e, 0) + c1 * c2
        return FourierSeries(out, t)

    def __rmul__(self, other):
        return self.__mul__(other)

    def shift(self, e):
        """Multiply by q^e."""
        e = index(e)
        return FourierSeries({k + e: c for k, c in self.coeffs.items()}, self.truncation + e)

    def invert(self):
        """Multiplicative inverse of c*q^v*(1 + w), term by term; known below truncation - 2v."""
        if not self.coeffs:
            raise ZeroDivisionError("cannot invert a series with no known nonzero coefficient")
        v = self.leading_exponent
        lead = self.coeffs[v]
        u = [0] * (self.truncation - v)
        for e, c in self.coeffs.items():
            u[e - v] = c
        inv = [0] * len(u)
        inv[0] = (Fraction(1) if _is_exact(lead) else mp.one) / lead
        for k in range(1, len(u)):
            acc = 0
            for j in range(1, k + 1):
                if u[j] != 0 and inv[k - j] != 0:
                    acc += u[j] * inv[k - j]
            if acc != 0:
                inv[k] = -acc / lead
        return FourierSeries({k - v: c for k, c in enumerate(inv) if not (_is_exact(c) and c == 0)},
                             self.truncation - 2 * v)

    def q_derivative(self):
        """Apply q d/dq: coefficient at q^e is multiplied by e."""
        return FourierSeries({e: c * e for e, c in self.coeffs.items() if e != 0}, self.truncation)

    def truncate(self, t):
        """Forget coefficients at or beyond t (t must not exceed current truncation)."""
        t = index(t)
        if t > self.truncation:
            raise TruncationError(f"cannot extend truncation {self.truncation} to {t}")
        return FourierSeries({e: c for e, c in self.coeffs.items() if e < t}, t)

    def to_mp(self):
        """Promote exact coefficients to mpf at the current working precision."""
        return FourierSeries({e: mp.mpf(c.numerator) / c.denominator if _is_exact(c) else c
                              for e, c in self.coeffs.items()}, self.truncation)

    def __repr__(self):
        terms = []
        for e in sorted(self.coeffs)[:8]:
            c = self.coeffs[e]
            cs = str(c) if _is_exact(c) else mpmath.nstr(c, 6)
            terms.append(f"({cs})*q^{e}" if e != 0 else f"({cs})")
        if len(self.coeffs) > 8:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self.truncation})"
