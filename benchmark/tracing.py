"""Spans around the calls into each layer of shiftedconv, recorded from outside it.

`Tracer.install()` wraps every public function of the layer modules and puts the
wrapper wherever another module of the package (or the package itself) holds a
reference to the function.  A module's calls to its own functions stay unwrapped,
so each span marks a call across a layer boundary.  Spans live in memory; the
worker sends them to the benchmark process, which writes them out when the run
ends.

The one hook inside a layer is a counter on `shifted.d_direct`, which counts the
terms the direct sums add up however they are reached.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("curves", "newform", "lattice", "mockform", "eisenstein", "poincare", "shifted", "cli")


def _arg(bound, name, default=0):
    return bound.get(name, default)


# work counts recorded at the boundary: (layer, function) -> (counter, f(arguments, result))
COUNTERS = {
    ("newform", "an_coefficients"): ("newform.coeffs", lambda a, r: _arg(a, "n_max")),
    ("newform", "an_array"): ("newform.coeffs", lambda a, r: _arg(a, "n_max")),
    ("mockform", "zhat_plus"): ("mockform.terms", lambda a, r: _arg(a, "n_max")),
    ("mockform", "eta_derivative_series"): ("mockform.terms", lambda a, r: _arg(a, "n_max")),
    ("mockform", "eta_quotient"): ("mockform.terms", lambda a, r: _arg(a, "n_max")),
    ("eisenstein", "indicator_basis"): ("eisenstein.coeffs", lambda a, r: len(r) * _arg(a, "n_max")),
    ("eisenstein", "infinity_indicator"): ("eisenstein.coeffs", lambda a, r: _arg(a, "n_max")),
    ("poincare", "bp_coefficient"): ("poincare.c_terms", lambda a, r: _arg(a, "c_max") // _arg(a, "N", 1)),
    ("poincare", "bq_coefficient"): ("poincare.c_terms", lambda a, r: _arg(a, "c_max") // _arg(a, "N", 1)),
    ("shifted", "d_direct"): ("shifted.direct_terms", lambda a, r: _arg(a, "n_terms")),
}


class Tracer:
    """Records spans [layer, function, start, end, parent index, phase] and work counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = {}
        self.phase = "cold"
        self._stack: list[int] = []
        self.api: dict[tuple[str, str], object] = {}

    def _count(self, key, value):
        phase = self.counts.setdefault(self.phase, {})
        phase[key] = phase.get(key, 0) + value

    def _wrap(self, layer, name, fn):
        counter = COUNTERS.get((layer, name))
        sig = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, name, clock(), None, stack[-1] if stack else -1, self.phase]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(counter[0], counter[1](bound.arguments, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap the layers' public functions everywhere the package refers to them across modules."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"shiftedconv.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (mod.__name__, self._wrap(layer, name, obj))
                    self.api[(layer, name)] = wrappers[id(obj)][1]
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "shiftedconv" or modname.startswith("shiftedconv.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit and hit[0] != modname:
                    setattr(mod, name, hit[1])
        shifted = sys.modules["shiftedconv.shifted"]
        d_direct = shifted.d_direct
        sig = inspect.signature(d_direct)

        def counted(*args, **kwargs):
            self._count("shifted.direct_terms", _arg(sig.bind(*args, **kwargs).arguments, "n_terms"))
            return d_direct(*args, **kwargs)

        shifted.d_direct = counted

    def summary(self) -> dict:
        """Per phase: {layer: {"self_s", "calls"}} and the work counts."""
        child = [0.0] * len(self.spans)
        for layer, name, t0, t1, parent, phase in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (layer, name, t0, t1, parent, phase) in enumerate(self.spans):
            layers = out.setdefault(phase, {"layers": {}, "counts": self.counts.get(phase, {})})["layers"]
            rec = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            rec["self_s"] += (t1 - t0) - child[i]
            rec["calls"] += 1
        return out
