"""Benchmark of shiftedconv: closed loop, one client, one op per fresh interpreter.

    python3 benchmark/run.py --workload lseries --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the package is imported from ./src).
Ops cycle over the curves or levels in a seeded order and each run holds whole
cycles; another cycle starts only while its expected end lies at most half a
cycle past --seconds.  After timing, every op's output is checked against the
oracles.  The last line of standard output is the result as JSON.

--trace 1 runs one cycle untraced and then the same cycle with spans around the
calls into each layer (each op followed by a warm repeat in its interpreter),
and reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLOCK = time.CLOCK_MONOTONIC
OP_TIMEOUT_S = 150
CHECK_DIGITS = 120  # printed values are parsed at this precision (ops print at most 80 digits)

END_TO_END = [("setup_s", "s"), ("op_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("newform.self_s", "s"), ("newform.calls", "count"), ("newform.coeffs", "count"),
    ("newform.coeffs_per_s", "1/s"), ("newform.warm_s", "s"),
    ("lattice.self_s", "s"), ("lattice.calls", "count"), ("lattice.warm_s", "s"),
    ("mockform.self_s", "s"), ("mockform.terms", "count"), ("mockform.warm_s", "s"),
    ("eisenstein.self_s", "s"), ("eisenstein.coeffs", "count"), ("eisenstein.warm_s", "s"),
    ("poincare.self_s", "s"), ("poincare.c_terms", "count"), ("poincare.c_terms_per_s", "1/s"),
    ("poincare.warm_s", "s"),
    ("shifted.self_s", "s"), ("shifted.direct_terms", "count"), ("shifted.calls", "count"),
    ("cli.self_s", "s"), ("curves.registry_s", "s"), ("trace.overhead_s", "s"),
]
# per-layer figures that are work counts (named as the tracer's counters): metric -> layer
COUNT_METRICS = {"newform.coeffs": "newform", "mockform.terms": "mockform",
                 "eisenstein.coeffs": "eisenstein", "poincare.c_terms": "poincare",
                 "shifted.direct_terms": "shifted"}
# work rates: metric -> the count divided by the layer's self time
RATE_METRICS = {"newform.coeffs_per_s": "newform.coeffs", "poincare.c_terms_per_s": "poincare.c_terms"}


def now():
    return time.clock_gettime(CLOCK)


def run_op(op, trace: bool) -> dict:
    """Spawn one worker, wait for it, and return its timings, output and peak RSS."""
    spec = dict(op, src=str(ROOT / "src"), trace=trace)
    t_spawn = now()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=str(ROOT))
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"op": op["key"], "t_spawn": t_spawn, "t_exit": now(), "rss_mb": usage.ru_maxrss / 1024}
    # the worker's result is its last JSON line; anything else is diagnostics
    result = next((line for line in reversed(out.splitlines()) if line.startswith('{"t_ready"')), None)
    if proc.returncode == 0 and result is not None:
        rec.update(json.loads(result))
    else:
        rec["error"] = f"worker exit {proc.returncode}: {out[-2000:]}"
    return rec


def run_cycles(workload, rng, seconds, whole_cycles=None):
    """Run whole cycles of the workload's ops untraced; returns (records, [op lists run])."""
    records, cycles, durations = [], [], []
    t0 = now()
    while True:
        ops = list(workload.ops)
        rng.shuffle(ops)
        c0 = now()
        for op in ops:
            records.append((op, run_op(op, False)))
        durations.append(now() - c0)
        cycles.append(ops)
        if whole_cycles is not None:
            if len(cycles) >= whole_cycles:
                break
        elif now() - t0 + statistics.mean(durations) / 2 > seconds:
            break
    return records, cycles


def check_records(workload, records, ctx):
    """[(op key, [(check, message)], is a known fault)] for every op that failed."""
    from mpmath import mp
    from workloads import KNOWN_FAULTS
    failed = []
    for op, rec in records:
        if "error" in rec:
            bad = [("worker", rec["error"])]
        elif rec.get("rc", 0) != 0:
            bad = [("exit-code", f"command returned {rec['rc']}")]
        else:
            try:
                with mp.workdps(CHECK_DIGITS):
                    bad = workload.check(op, rec, ctx)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                bad = [("parse", f"{type(exc).__name__}: {exc}")]
        if bad:
            expected = all((workload.name, op["key"], name) in KNOWN_FAULTS for name, _ in bad)
            failed.append((op["key"], bad, expected))
    return failed


def end_to_end(records, t_start, t_end):
    ok = [rec for _, rec in records if "error" not in rec]
    if not ok:
        return None
    return {
        "setup_s": statistics.median(r["t_ready"] - r["t_spawn"] for r in ok),
        "op_s": statistics.median(r["t_done"] - r["t_ready"] for r in ok),
        "ops_per_s": len(ok) / (t_end - t_start),
        "peak_rss_mb": max(r["rss_mb"] for r in ok),
    }


def per_layer(traced, untraced_op_s):
    """Per-op medians over the ops of the traced pass that enter each layer."""
    values = {name: [] for name, _ in PER_LAYER}
    op_s = []
    for _, rec in traced:
        if "error" in rec:
            continue
        op_s.append(rec["t_done"] - rec["t_ready"])
        values["curves.registry_s"].append(rec["registry_s"])
        cold = rec["trace"].get("cold", {"layers": {}, "counts": {}})
        warm = rec["trace"].get("warm", {"layers": {}, "counts": {}})
        for layer, stats in cold["layers"].items():
            for metric in (f"{layer}.self_s", f"{layer}.calls"):
                if metric in values:
                    values[metric].append(stats[metric.split(".")[1]])
            if f"{layer}.warm_s" in values:
                values[f"{layer}.warm_s"].append(warm["layers"].get(layer, {}).get("self_s", 0.0))
        for metric, layer in COUNT_METRICS.items():
            if layer in cold["layers"]:
                values[metric].append(cold["counts"].get(metric, 0))
        for metric, count in RATE_METRICS.items():
            layer = COUNT_METRICS[count]
            if layer in cold["layers"]:
                values[metric].append(cold["counts"].get(count, 0) / cold["layers"][layer]["self_s"])
    if not op_s:
        return None
    out = {name: (statistics.median(v) if v else 0.0) for name, v in values.items()}
    out["trace.overhead_s"] = statistics.median(op_s) - untraced_op_s
    return out


def write_json(path: Path, payload):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload))


def main(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "shiftedconv" / "__init__.py").is_file():
        print(f"benchmark: no shiftedconv source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rng = random.Random(f"order-{args.seed}")

    return measure(args, workload, rng)


def measure(args, workload, rng):
    t_start = now()
    if args.trace:
        untraced, cycles = run_cycles(workload, rng, args.seconds, whole_cycles=1)
        t_end = now()
        traced = []
        for op in cycles[0]:
            traced.append((op, run_op(op, True)))
        records = untraced + traced
    else:
        records, _ = run_cycles(workload, rng, args.seconds)
        t_end = now()

    # checks run after timing ends
    import selftest
    from workloads import CheckContext
    oracle_failures = selftest.run_selftests()
    failed = check_records(workload, records, CheckContext(random.Random(f"checks-{args.seed}")))
    unexpected = [f for f in failed if not f[2]]

    if args.trace:
        e2e = end_to_end(untraced, t_start, t_end)
        values = per_layer(traced, e2e["op_s"]) if e2e else None
        units = dict(PER_LAYER)
    else:
        values = end_to_end(records, t_start, t_end)
        units = dict(END_TO_END)
    if values is None:
        print("benchmark: every op failed to run", file=sys.stderr)
        for key, bad, _ in failed[:3]:
            print(f"  {key}: {bad}", file=sys.stderr)
        return 3

    result = {
        "correct": not oracle_failures and not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_json(HERE / "results" / f"{tag}.json",
               {**result, "failures": failed, "oracle_selftest_failures": oracle_failures,
                "ops": [{k: v for k, v in rec.items() if k not in ("stdout", "an", "spans", "rungs")}
                        for _, rec in records]})
    if args.trace:
        write_json(HERE / "results" / f"trace-{args.workload}-seed{args.seed}.json",
                   [{"op": rec["op"], "spans": rec.get("spans", [])} for _, rec in traced])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:24s} {values[name]:.6g} {unit}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for key, bad, expected in failed:
        note = "known fault" if expected else "UNEXPECTED"
        for check, msg in bad:
            print(f"  FAIL [{note}] {key}: {check}: {msg}")
    if oracle_failures:
        print("  oracle self-tests failed: " + ", ".join(oracle_failures))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
