"""Truncated q-expansions with rational exponents and exact or high-precision coefficients."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import mpmath
from mpmath import mp


class TruncationError(Exception):
    """Raised when a coefficient at or beyond the truncation order is requested."""


def _exp(e):
    """Normalize an exponent to int when integral, Fraction otherwise."""
    if isinstance(e, int):
        return e
    f = Fraction(e)
    return int(f) if f.denominator == 1 else f


def _is_exact(c) -> bool:
    return isinstance(c, (int, Fraction))


class FourierSeries:
    """A q-expansion sum_{e} c_e q^e, coefficients known for exponents strictly below `truncation`.

    Exponents are exact rationals (integers for modular objects, fractional for eta
    factors and cusp-local expansions).  Coefficients are either exact (int/Fraction)
    or mpmath numbers; mixing promotes to mpmath at the ambient precision.
    """

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation):
        truncation = _exp(truncation)
        clean = {}
        for e, c in coeffs.items():
            e = _exp(e)
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

    @property
    def coefficient_mode(self) -> str:
        if all(_is_exact(c) for c in self.coeffs.values()):
            return "exact-rational"
        return "high-precision-complex"

    def support(self):
        return sorted(self.coeffs)

    def coefficient(self, e):
        e = _exp(e)
        if e >= self.truncation:
            raise TruncationError(f"q^{e} not determined: truncation is {self.truncation}")
        return self.coeffs.get(e, 0)

    def __getitem__(self, e):
        return self.coefficient(e)

    def __eq__(self, other):
        if not isinstance(other, FourierSeries):
            return NotImplemented
        return self.truncation == other.truncation and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.truncation, frozenset(self.coeffs.items())))

    # -- arithmetic ------------------------------------------------------

    def __neg__(self):
        return FourierSeries({e: -c for e, c in self.coeffs.items()}, self.truncation)

    def __add__(self, other):
        if not isinstance(other, FourierSeries):
            other = FourierSeries({0: other}, self.truncation)
        t = min(self.truncation, other.truncation)
        out = {}
        for e, c in self.coeffs.items():
            if e < t:
                out[e] = c
        for e, c in other.coeffs.items():
            if e < t:
                out[e] = out.get(e, 0) + c
        return FourierSeries(out, t)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if not isinstance(other, FourierSeries):
            other = FourierSeries({0: other}, self.truncation)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

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

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("only integer powers")
        if n < 0:
            return self.invert() ** (-n)
        result = FourierSeries.one(self.truncation + (n - 1) * self.leading_exponent
                                   if self.coeffs else self.truncation)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def shift(self, e):
        """Multiply by q^e."""
        e = _exp(e)
        return FourierSeries({k + e: c for k, c in self.coeffs.items()}, self.truncation + e)

    def invert(self):
        """Multiplicative inverse of c*q^v*(1 + w); result known below truncation - 2v."""
        if not self.coeffs:
            raise ZeroDivisionError("cannot invert a series with no known nonzero coefficient")
        v = self.leading_exponent
        lead = self.coeffs[v]
        # unit part on a uniform grid of step s
        rel = {e - v: c for e, c in self.coeffs.items() if e != v}
        span = self.truncation - v
        s = _grid_step(list(rel) + [span])
        nsteps = int(span / s)
        u = [0] * nsteps
        for e, c in rel.items():
            q, r = divmod(Fraction(e), Fraction(s))
            if r:
                raise ValueError("exponents do not lie on a common grid")
            u[int(q)] = c
        inv = [0] * nsteps
        one = Fraction(1) if _is_exact(lead) else mp.one
        inv[0] = one / lead
        for k in range(1, nsteps):
            acc = 0
            for j in range(1, k + 1):
                if u[j] != 0 and inv[k - j] != 0:
                    acc += u[j] * inv[k - j]
            if acc != 0:
                inv[k] = -acc / lead
        out = {}
        for k, c in enumerate(inv):
            if not (_is_exact(c) and c == 0):
                out[_exp(-v + k * s)] = c
        return FourierSeries(out, self.truncation - 2 * v)

    def q_derivative(self):
        """Apply q d/dq: coefficient at q^e is multiplied by e."""
        out = {}
        for e, c in self.coeffs.items():
            if e != 0:
                out[e] = c * e if isinstance(e, int) else c * Fraction(e)
        return FourierSeries(out, self.truncation)

    def truncate(self, t):
        """Forget coefficients at or beyond t (t must not exceed current truncation)."""
        t = _exp(t)
        if t > self.truncation:
            raise TruncationError(f"cannot extend truncation {self.truncation} to {t}")
        return FourierSeries({e: c for e, c in self.coeffs.items() if e < t}, t)

    def to_mp(self):
        """Promote exact coefficients to mpf at the current working precision."""
        out = {}
        for e, c in self.coeffs.items():
            if isinstance(c, int):
                out[e] = mp.mpf(c)
            elif isinstance(c, Fraction):
                out[e] = mp.mpf(c.numerator) / c.denominator
            else:
                out[e] = c
        return FourierSeries(out, self.truncation)

    def __repr__(self):
        terms = []
        for e in self.support()[:8]:
            c = self.coeffs[e]
            cs = str(c) if _is_exact(c) else mpmath.nstr(c, 6)
            terms.append(f"({cs})*q^{e}" if e != 0 else f"({cs})")
        if len(self.coeffs) > 8:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self.truncation})"


def _grid_step(exponents):
    """gcd of a list of rational exponents (as a positive Fraction)."""
    fracs = [Fraction(e) for e in exponents]
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    num = 0
    for f in fracs:
        num = gcd(num, abs(f.numerator * (den // f.denominator)))
    if num == 0:
        return Fraction(1)
    return Fraction(num, den)
