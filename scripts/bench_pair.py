#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision and a change, written to a BENCH file.

    python3 scripts/bench_pair.py --parent HEAD~1 --out BENCH_9.json forms=10 lseries=3

For each workload W=K and each seed s = 1 .. K, runs the benchmark command of
BENCHMARK.json (`python3 benchmark/run.py --workload W --seed s --seconds <run_seconds>
--trace 0`) once on the parent and once on the change, HEAD, alternating which side
goes first.  Both revisions are exported with `git archive` into fresh
temporary directories, removed afterwards, so that neither side runs with the build
leftovers of a working tree: bytecode caches alone moved `lseries` op_s by 12% between
two copies of one commit.  The output file holds, per workload and side, every run's
end-to-end metrics, `attempted`, `failed`, `correct`, its peak-RSS op and the median
op time of each op kind (the first word of an op's key, as `mockform` in
`mockform 11a1`), read from the run's result file; the median and quartiles of each
metric and the median over runs of each kind's op time; and per metric the number of
pairs in which the change did better and the median and quartiles of the paired
differences, change minus parent.

The pseudo-workload `e2e=K` times instead, per seed and side, the three end-to-end
figures of ROADMAP aim 1, one after the other in the exported tree with `src` on
PYTHONPATH and no bytecode written: the tier-1 suite (`tier1_s`),
`python -m shiftedconv.cli verify --format json` (`verify_s`) and
`python -m shiftedconv.cli lseries --label 11a1 --method both --format json`
(`lseries_s`), wall seconds each.  A run's `failed` counts the commands that exited
nonzero (tier-1's summary line is kept as `tier1_summary`).  One pair takes about
six minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files of `rev` into `dest`."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_once(tree: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`: its result line plus the op with the peak RSS."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    if args[0] == "python3":
        args[0] = sys.executable
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(args, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((tree / "benchmark" / "results" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    peak = max(detail["ops"], key=lambda op: op.get("rss_mb", 0))
    kinds = {}
    for op in detail["ops"]:
        if "t_done" in op:
            kinds.setdefault(op["op"].split()[0], []).append(op["t_done"] - op["t_ready"])
    return {"seed": seed,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            "peak_rss_op": {"op": peak["op"], "rss_mb": peak["rss_mb"]},
            "op_s_by_kind": {kind: statistics.median(t) for kind, t in sorted(kinds.items())}}


E2E = {"tier1_s": ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p",
                   "no:cacheprovider"],
       "verify_s": ["-m", "shiftedconv.cli", "verify", "--format", "json"],
       "lseries_s": ["-m", "shiftedconv.cli", "lseries", "--label", "11a1", "--method", "both",
                     "--format", "json"]}


def run_e2e(tree: Path, seed: int) -> dict:
    """The wall time of each end-to-end command of `E2E` in `tree`."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    metrics, codes, summary_line = {}, {}, ""
    for name, args in E2E.items():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True,
                              text=True)
        metrics[name] = time.perf_counter() - t0
        codes[name] = proc.returncode
        if name == "tier1_s":
            summary_line = (proc.stdout.strip().splitlines() or [""])[-1]
    return {"seed": seed, "metrics": metrics, "attempted": len(E2E),
            "failed": sum(code != 0 for code in codes.values()), "exit_codes": codes,
            "tier1_summary": summary_line, "op_s_by_kind": {}}


def quartiles(values: list) -> dict:
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summary(runs: list) -> dict:
    out = {name: quartiles([run["metrics"][name] for run in runs]) for name in runs[0]["metrics"]}
    kinds = sorted({kind for run in runs for kind in run["op_s_by_kind"]})
    out["op_s_by_kind"] = {kind: statistics.median(run["op_s_by_kind"][kind] for run in runs
                                                   if kind in run["op_s_by_kind"])
                           for kind in kinds}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    p.add_argument("pairs", nargs="+", metavar="WORKLOAD=K", help="workload and number of pairs")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    plan = [(w, int(k)) for w, k in (item.split("=") for item in args.pairs)]
    report = {
        "command": spec["command"], "run_seconds": spec["run_seconds"], "trace": 0,
        "e2e_commands": {name: ["python3", *args] for name, args in E2E.items()},
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD"),
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side, tree in trees.items():
            tree.mkdir()
            export(report[side], tree)
        for workload, k in plan:
            runs = {"parent": [], "change": []}
            for seed in range(1, k + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    if workload == "e2e":
                        run = run_e2e(trees[side], seed)
                    else:
                        run = run_once(trees[side], spec["command"], workload, seed,
                                       spec["run_seconds"])
                    run["first"] = side == order[0]
                    runs[side].append(run)
                    shown = ", ".join(f"{name} {value:.4g}"
                                      for name, value in run["metrics"].items())
                    print(f"{workload} seed {seed} {side}: {shown} "
                          f"failed {run['failed']}/{run['attempted']}", flush=True)
            wins, diffs = {}, {}
            directions = dict.fromkeys(E2E, "lower") if workload == "e2e" else better
            for name, direction in directions.items():
                sign = 1 if direction == "higher" else -1
                d = [c["metrics"][name] - q["metrics"][name]
                     for q, c in zip(runs["parent"], runs["change"])]
                wins[name] = sum(sign * x > 0 for x in d)
                diffs[name] = quartiles(d)
            report["workloads"][workload] = {
                "pairs": k,
                "change_better_in_pairs": wins,
                "paired_difference": diffs,
                **{side: {"runs": runs[side], "summary": summary(runs[side])}
                   for side in ("parent", "change")},
            }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
