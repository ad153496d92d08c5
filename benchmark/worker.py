"""One benchmark operation in a fresh interpreter.

    python3 worker.py '<op spec as JSON>'

Set-up ends when `shiftedconv` is imported and the curve registry is loaded; the
op then runs, and the worker prints one JSON line with CLOCK_MONOTONIC stamps of
both ends, the op's output and, after timing, the a(n) prefix the checks need.
With tracing on, the op runs a second time in the same interpreter (the warm
pass) and the spans of both passes are returned.
"""

import sys
import time

_CLOCK = time.CLOCK_MONOTONIC


def main():
    import json
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import shiftedconv  # noqa: F401  (the package import loads every layer)
    from shiftedconv import curves
    t_registry = time.clock_gettime(_CLOCK)
    curves.registry()
    t_ready = time.clock_gettime(_CLOCK)

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    result = run_op(spec, tracer)
    t_done = time.clock_gettime(_CLOCK)

    out = {"t_ready": t_ready, "t_done": t_done,
           "registry_s": t_ready - t_registry, **result}
    if tracer is not None:
        tracer.phase = "warm"
        run_op(spec, tracer)
        out["trace"] = tracer.summary()
        out["spans"] = tracer.spans
    if spec.get("an_len"):
        from shiftedconv.curves import get_curve
        from shiftedconv.newform import an_array
        # the table the direct sums used (d_direct reads n_terms + 4096 entries), a cache hit
        n_terms = spec["an_len"]
        out["an"] = an_array(get_curve(spec["label"]), n_terms + 4096)[:n_terms + spec["h_max"] + 1].tolist()
    sys.stdout.write(json.dumps(out) + "\n")


def _api(tracer, layer, name):
    if tracer is not None:
        return tracer.api[(layer, name)]
    import importlib
    return getattr(importlib.import_module(f"shiftedconv.{layer}"), name)


def run_op(spec, tracer):
    if spec["kind"] == "cli":
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = _api(tracer, "cli", "main")(spec["argv"])
        return {"rc": rc, "stdout": buf.getvalue()}
    return {"rc": 0, "rungs": ladder_session(spec, tracer)}


def ladder_session(spec, tracer):
    """d_direct_table and l_series_closed_form with that rung's alpha, rung by rung."""
    import mpmath
    from mpmath import mp
    digits, h_max = spec["digits"], spec["h_max"]
    mp.dps = digits
    model = _api(tracer, "curves", "get_curve")(spec["label"])
    direct_table = _api(tracer, "shifted", "d_direct_table")
    alpha_constant = _api(tracer, "shifted", "alpha_constant")
    closed_form = _api(tracer, "shifted", "l_series_closed_form")
    rungs = []
    for n_terms in spec["rungs"]:
        direct = direct_table(model, h_max, n_terms)
        alpha = alpha_constant(model, n_terms, digits)
        closed = closed_form(model, h_max, digits, n_terms, alpha=alpha)
        rungs.append({
            "n_terms": n_terms,
            "alpha": mpmath.nstr(alpha, digits),
            "direct": [[direct.entries[h], direct.errors[h]] for h in range(1, h_max + 1)],
            "closed": [mpmath.nstr(closed.entries[h], digits) for h in range(1, h_max + 1)],
        })
    return rungs


if __name__ == "__main__":
    main()
