"""Run-wide precision and truncation knobs, the one cache policy and the one print rule."""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from fractions import Fraction

import mpmath


@dataclass(frozen=True)
class PrecisionConfig:
    digits: int = 64
    direct_terms: int = 100_000
    kloosterman_c_max: int = 10_000

    def __post_init__(self):
        if self.digits < 30:
            raise ValueError("digits must be >= 30")
        if min(self.direct_terms, self.kloosterman_c_max) <= 0:
            raise ValueError("all counts must be positive")


@dataclass(frozen=True)
class Estimate:
    """A value with its stated error.  Both errors stated today are heuristics, not
    bounds: the half-spread of the Cesaro window of `shifted.d_direct` and the last-decade
    tail of the Poincare c-sums (`poincare.bp_coefficient`) can each miss the true error
    by a few times (ROADMAP item 3)."""
    value: object
    err: object


def fmt(x, digits: int) -> str:
    """The one print rule for a number: a str passes through, a float prints as its repr,
    an exact or mp zero as 0.0, another int or Fraction as its exact string, and an mp
    value with `digits` significant digits, trailing zeros kept."""
    if isinstance(x, str):
        return x
    if isinstance(x, float):
        return repr(x)
    if x == 0:
        return "0.0"
    if isinstance(x, (int, Fraction)):
        return str(x)
    return mpmath.nstr(x, digits, strip_zeros=False)


def memo(fn):
    """Cache `fn` for the life of the process, keyed on exactly its bound arguments.

    Every argument that determines the result is in the key: a curve enters as its
    full frozen model (never its label), and a precision as explicit digits (never
    the ambient mpmath precision), so a cached value is always the value a fresh
    call would give.  `hits` and `misses` count lookups; `cache_clear()` empties
    the cache.  The result is a plain function, so wrappers that look for
    functions (`inspect.isfunction`) still find it.
    """
    sig = inspect.signature(fn)
    n_params = len(sig.parameters)
    cache = {}

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        key = args
        if kwargs or len(args) != n_params:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple(bound.arguments.values())
        if key in cache:
            cached.hits += 1
            return cache[key]
        cached.misses += 1
        value = cache[key] = fn(*args, **kwargs)
        return value

    cached.hits = cached.misses = 0
    cached.cache_clear = cache.clear
    return cached
