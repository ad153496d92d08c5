"""The four workloads: the ops of one cycle and the checks of each op's output.

An op is one user request in a fresh interpreter: a `shiftedconv` CLI command, or
(on `ladder`) a library session.  Every check compares the output with the
oracles in `oracles.py` or with a property the method must have; a check that
fails names itself, and the op counts as failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

import mpmath
import numpy as np
from mpmath import mp, mpf, mpmathify

import oracles as O

# Cremona's optimal curves of the ten genus-one levels: label -> (N, [a1, a2, a3, a4, a6]).
CURVES = {
    "11a1": (11, (0, -1, 1, -10, -20)), "14a1": (14, (1, 0, 1, 4, -6)),
    "15a1": (15, (1, 1, 1, -10, -10)), "17a1": (17, (1, -1, 1, -1, -14)),
    "19a1": (19, (0, 1, 1, -9, -15)), "21a1": (21, (1, 0, 0, -4, -1)),
    "27a1": (27, (0, 0, 1, 0, -7)), "32a1": (32, (0, 0, 0, 4, 0)),
    "36a1": (36, (0, 0, 0, 0, 1)), "49a1": (49, (1, -1, 0, -2, -1)),
}
SQUAREFREE = ("11a1", "14a1", "15a1", "17a1", "19a1", "21a1")
CM_LEVELS = (27, 32, 36, 49)   # alpha = 0 in the closed form

H_MAX = 30
LSERIES_TERMS = 15_000
LADDER_RUNGS = tuple(range(2_500, 12_501, 2_500))
LATTICE_DIGITS = 80  # one step above the 64-digit default; mockform builds the 64-digit lattice
MOCKFORM_N_MAX = 40
EISENSTEIN_N_MAX = 30
POINCARE_C_MAX = 6_000
BP_N_MAX, BQ_N_MAX = 10, 5

# float64 rounding floor for comparisons against a stated error of a float sum
FLOAT_FLOOR = 1e-12

# (workload, op, check) of the faults the workloads keep as failing ops; see CHANGES.md
KNOWN_FAULTS = {
    ("lseries", "lseries 49a1", "closed-vs-direct"),   # shifted.d_direct err at 49a1
    ("ladder", "ladder 19a1", "closed-vs-direct"),     # the same, at the 2,500-term rung
    ("poincare", "poincare-bp 49", "bp-reconstruction"),  # poincare tail_estimate
    ("poincare", "poincare-bq 49", "bq-zhat"),
    ("poincare", "poincare-bq 17", "bq-zhat"),
}


class CheckContext:
    """Oracle caches and the seeded draws of one run's checks."""

    def __init__(self, rng):
        self.rng = rng
        self._oracles = {}

    def curve(self, label, digits=64) -> O.CurveOracle:
        key = (label, digits)
        if key not in self._oracles:
            N, ainvs = CURVES[label]
            self._oracles[key] = O.CurveOracle(ainvs, N, digits)
        return self._oracles[key]


@dataclass
class Workload:
    name: str
    ops: list      # one cycle, in canonical order
    check: object  # (op, record, ctx) -> [(check, message)]


def _cli(key, argv, **extra):
    return {"key": key, "kind": "cli", "argv": argv, **extra}


# -- checks shared by lseries and ladder ----------------------------------------

def _check_an(label, a, ctx):
    """a(n) from the program against point counts, Hasse, multiplicativity and Hecke at p^2."""
    N, ainvs = CURVES[label]
    bad = []
    n_max = len(a) - 1
    primes = O.primes_upto(n_max)
    sample = sorted({p for p in primes if p <= 100 or N % p == 0}
                    | set(ctx.rng.sample([p for p in primes if 100 < p <= 1000], 6)))
    for p in sample:
        if a[p] != O.a_p(ainvs, p):
            bad.append(("an-point-count", f"a({p}) = {a[p]}, point count gives {O.a_p(ainvs, p)}"))
    for p in primes:
        if (N % p and a[p] * a[p] > 4 * p) or (N % p == 0 and a[p] not in (-1, 0, 1)):
            bad.append(("an-hasse", f"a({p}) = {a[p]}"))
            break
    for _ in range(20):
        m = ctx.rng.randrange(2, 200)
        n = ctx.rng.randrange(2, n_max // m + 1)
        if gcd(m, n) == 1 and a[m * n] != a[m] * a[n]:
            bad.append(("an-multiplicative", f"a({m * n}) != a({m}) a({n})"))
    good = [p for p in primes if N % p and p * p <= n_max]
    for p in ctx.rng.sample(good, min(5, len(good))):
        if a[p * p] != a[p] * a[p] - p:
            bad.append(("an-hecke", f"a({p}^2) != a({p})^2 - {p}"))
    return bad


def _check_tables(label, n_terms, direct, closed, alpha, a, ctx, where=""):
    """direct: [(value, err)] and closed: [str] for h = 1..H_MAX, alpha as printed."""
    N = CURVES[label][0]
    bad = []
    gaps = [(h, abs(float(mpmathify(c)) - v), e)
            for h, ((v, e), c) in enumerate(zip(direct, closed), start=1)]
    over = [(h, gap / max(e, FLOAT_FLOOR)) for h, gap, e in gaps if gap > e + FLOAT_FLOOR]
    if over:
        worst = max(over, key=lambda t: t[1])
        bad.append(("closed-vs-direct", f"{where}{len(over)} of {len(direct)} shifts miss the stated "
                    f"err, worst {worst[1]:.2f}x at h = {worst[0]}"))
    an = np.array(a, dtype=np.int64)
    for h, (v, e) in enumerate(direct, start=1):
        rv, re_ = O.cesaro_direct(an, h, n_terms)
        if abs(rv - v) > 1e-12 * (1 + abs(v)) or abs(re_ - e) > 1e-12 * (1 + abs(e)):
            bad.append(("cesaro", f"{where}h = {h}: printed ({v}, {e}), recomputed ({rv}, {re_})"))
            break
    oracle = ctx.curve(label)
    with mp.workdps(84):
        want_alpha = mpf(0) if N in CM_LEVELS else oracle.alpha(direct[0][0])
        if abs(mpmathify(alpha) - want_alpha) > mpf(10) ** -40:
            bad.append(("alpha", f"{where}alpha {alpha}, oracle {mpmath.nstr(want_alpha, 12)}"))
        want = oracle.closed_form(H_MAX, mpmathify(alpha))
        dev = max(abs(mpmathify(c) - want[h]) / (1 + abs(want[h]))
                  for h, c in enumerate(closed, start=1))
        if dev > mpf(10) ** -40:
            bad.append(("closed-oracle", f"{where}closed form off the oracle by {mpmath.nstr(dev, 3)}"))
    n0 = O.SUPPORT_MODULUS.get(N)
    if n0:
        for h, ((v, e), c) in enumerate(zip(direct, closed), start=1):
            if h % n0 and (v != 0.0 or e != 0.0 or abs(mpmathify(c)) > mpf(10) ** -40):
                bad.append(("support-zeros", f"{where}h = {h} is off the support mod {n0}"))
                break
    return bad


# -- lseries -----------------------------------------------------------------------

def _lseries_ops():
    return [_cli(f"lseries {label}", ["lseries", "--label", label, "--method", "both",
                                      "--h-max", str(H_MAX), "--terms", str(LSERIES_TERMS),
                                      "--format", "json"],
                 label=label, an_len=LSERIES_TERMS, h_max=H_MAX)
            for label in CURVES]


def _lseries_check(op, rec, ctx):
    label = op["label"]
    tables = {t["method"]: t for t in json.loads(rec["stdout"])}
    d, c = tables["direct"], tables["closed-form"]
    direct = [(float(e["value"]), float(e["err"])) for e in d["entries"]]
    closed = [e["value"] for e in c["entries"]]
    if [e["h"] for e in d["entries"]] != list(range(1, H_MAX + 1)) or len(closed) != H_MAX:
        return [("shape", "expected h = 1..30 from both methods")]
    bad = _check_tables(label, LSERIES_TERMS, direct, closed, c["metadata"]["alpha"],
                        rec["an"], ctx)
    bad += _check_an(label, rec["an"], ctx)
    if label == "11a1":
        dev = max(abs(float(mpmathify(closed[h])) - float(ref))
                  for h, ref in enumerate(O.PAPER_D_11A1))
        if dev > O.PAPER_D_11A1_TOL:
            bad.append(("paper-d", f"D(h;1), h <= 5, off the paper by {dev:.2e}"))
    return bad


# -- ladder --------------------------------------------------------------------------

def _ladder_ops():
    return [{"key": f"ladder {label}", "kind": "ladder", "label": label, "rungs": list(LADDER_RUNGS),
             "digits": 64, "h_max": H_MAX, "an_len": max(LADDER_RUNGS)}
            for label in SQUAREFREE]


def _ladder_check(op, rec, ctx):
    label = op["label"]
    bad = []
    if [r["n_terms"] for r in rec["rungs"]] != list(LADDER_RUNGS):
        return [("shape", "missing rungs")]
    for rung in rec["rungs"]:
        bad += _check_tables(label, rung["n_terms"], [tuple(x) for x in rung["direct"]],
                             rung["closed"], rung["alpha"], rec["an"], ctx,
                             where=f"{rung['n_terms']} terms: ")
    return bad + _check_an(label, rec["an"], ctx)


# -- forms ---------------------------------------------------------------------------

def _forms_ops():
    ops = []
    for label, (N, _) in CURVES.items():
        ops.append(_cli(f"lattice {label}", ["lattice", "--label", label, "--digits",
                                             str(LATTICE_DIGITS), "--format", "json"],
                        label=label, digits=LATTICE_DIGITS, what="lattice"))
        eta = ["--check-eta"] if N in O.ETA_QUOTIENTS else []
        ops.append(_cli(f"mockform {label}", ["mockform", "--label", label, "--n-max",
                                              str(MOCKFORM_N_MAX), *eta, "--format", "json"],
                        label=label, digits=64, what="mockform"))
        ops.append(_cli(f"eisenstein {N}", ["eisenstein", "--level", str(N), "--n-max",
                                            str(EISENSTEIN_N_MAX), "--format", "json"],
                        label=label, digits=64, what="eisenstein"))
    return ops


def _tol(digits, slack):
    return mpf(10) ** -(digits - slack)


def _check_lattice(op, rec, ctx):
    label, digits = op["label"], op["digits"]
    f = {k: mpmathify(v) for k, v in json.loads(rec["stdout"]).items()}
    oracle = ctx.curve(label, digits)
    bad = []
    with mp.workdps(digits + 20):
        tol = _tol(digits, 10)
        w1, w2 = f["omega1"], f["omega2"]
        if (w2 / w1).imag <= 0 or abs(f["tau"] - w2 / w1) > tol:
            bad.append(("orientation", "tau != omega2/omega1 in the upper half-plane"))
        vol = abs((mp.conj(w1) * w2).imag)
        if abs(f["volume"] - oracle.volume) > tol * oracle.volume or abs(vol - oracle.volume) > tol * vol:
            bad.append(("covolume", f"volume {mpmath.nstr(f['volume'], 15)}, AGM "
                                    f"{mpmath.nstr(oracle.volume, 15)}"))
        resid = abs(w1 * f["eta2"] - w2 * f["eta1"] + 2 * mp.pi * 1j)
        if resid > tol:
            bad.append(("legendre", f"residual {mpmath.nstr(resid, 3)}"))
        eta1 = O.quasi_period(w1, w2)
        if abs(f["eta1"] - eta1) > tol * (1 + abs(eta1)):
            bad.append(("quasi-period", f"eta1 off (pi^2/3) E2(tau)/omega1 by "
                                        f"{mpmath.nstr(abs(f['eta1'] - eta1), 3)}"))
        if abs(f["S"] - oracle.s) > tol:
            bad.append(("s-lambda", f"S off the oracle by {mpmath.nstr(abs(f['S'] - oracle.s), 3)}"))
        if label == "11a1" and abs(f["S"].real - mpf(O.PAPER_S_11A1[0])) > mpf(O.PAPER_S_11A1[1]):
            bad.append(("paper-s", f"S = {mpmath.nstr(f['S'], 8)}"))
    return bad


def _check_mockform(op, rec, ctx):
    label, digits = op["label"], op["digits"]
    N = CURVES[label][0]
    lines = rec["stdout"].splitlines()
    rows = json.loads(lines[0])
    bad = []
    if [n for n, _ in rows] != list(range(-1, MOCKFORM_N_MAX + 1)):
        return [("shape", "expected q^-1..q^40")]
    z = [mpmathify(c) for _, c in rows]
    want = ctx.curve(label, digits).zhat(MOCKFORM_N_MAX)
    with mp.workdps(digits + 20):
        tol = _tol(digits, 15)
        dev = max(abs(x - w) / (1 + abs(w)) for x, w in zip(z, want))
        if dev > tol:
            bad.append(("zhat-oracle", f"off the oracle by {mpmath.nstr(dev, 3)}"))
        if label == "11a1":
            if max(abs(z[n + 1] - mpf(v)) for n, v in enumerate(O.PAPER_ZHAT_11A1)) > mpf(O.PAPER_ZHAT_11A1_TOL):
                bad.append(("paper-zhat", "q^0..q^5 off the paper"))
        for n, want_q in O.PAPER_ZHAT_CM.get(label, ()):
            if abs(z[n + 1] - mpf(want_q.numerator) / want_q.denominator) > tol:
                bad.append(("paper-cm-rationals", f"q^{n} is not {want_q}"))
        if N in O.ETA_QUOTIENTS:
            sign, spec = O.ETA_QUOTIENTS[N]
            lead, eta = O.eta_quotient_coeffs(spec, MOCKFORM_N_MAX + 2)
            if lead != -1:
                bad.append(("eta-quotient", f"leading exponent {lead}"))
            for e in range(-1, MOCKFORM_N_MAX + 1):
                if abs(e * z[e + 1] - sign * eta[e + 1]) > tol * (1 + abs(eta[e + 1])):
                    bad.append(("eta-quotient", f"q d/dq Zhat^+ differs from the eta quotient at q^{e}"))
                    break
            if not (len(lines) > 1 and lines[1].startswith("# eta-quotient check")
                    and mpmathify(lines[1].split()[-1]) <= tol):
                bad.append(("eta-self-check", "missing or large reported deviation"))
    return bad


def _check_eisenstein(op, rec, ctx):
    N = CURVES[op["label"]][0]
    ind = {cusp: [mpmathify(c) for _, c in rows] for cusp, rows in json.loads(rec["stdout"]).items()}
    bad = []
    n_cusps = sum(sum(1 for a in range(1, gcd(d, N // d) + 1) if gcd(a, gcd(d, N // d)) == 1)
                  for d in range(1, N + 1) if N % d == 0)
    if len(ind) != n_cusps or "oo" not in ind:
        return [("cusp-count", f"{len(ind)} indicators for {n_cusps} cusps")]
    if any(len(col) != EISENSTEIN_N_MAX + 1 for col in ind.values()):
        return [("shape", "expected q^0..q^30 for every cusp")]
    tol = mpf(10) ** -50
    finf = O.f_infinity_coeffs(N, EISENSTEIN_N_MAX)
    with mp.workdps(84):
        dev = max(abs(x - mpf(w.numerator) / w.denominator) for x, w in zip(ind["oo"], finf))
        if dev > tol:
            bad.append(("finf-e2", f"F^inf off the E2(dz) combination by {mpmath.nstr(dev, 3)}"))
        e2 = O.e2_coeffs(EISENSTEIN_N_MAX)
        total = [sum(col) for col in zip(*ind.values())]
        dev = max(abs(t - w) / (1 + abs(w)) for t, w in zip(total, e2))
        if dev > tol:
            bad.append(("sum-e2", f"indicators sum to E2 only within {mpmath.nstr(dev, 3)}"))
    return bad


def _forms_check(op, rec, ctx):
    return {"lattice": _check_lattice, "mockform": _check_mockform,
            "eisenstein": _check_eisenstein}[op["what"]](op, rec, ctx)


# -- poincare ----------------------------------------------------------------------

def _poincare_ops():
    ops = []
    for label, (N, _) in CURVES.items():
        common = ["--level", str(N), "--c-max", str(POINCARE_C_MAX), "--format", "json"]
        ops.append(_cli(f"poincare-bp {N}", ["poincare", "--n-max", str(BP_N_MAX), *common],
                        label=label, what="bp"))
        ops.append(_cli(f"poincare-bq {N}", ["poincare", "--maass", "--n-max", str(BQ_N_MAX), *common],
                        label=label, what="bq"))
    return ops


def _poincare_check(op, rec, ctx):
    rows = {r["n"]: (float(r["value"]), float(r["tail_estimate"])) for r in json.loads(rec["stdout"])}
    oracle = ctx.curve(op["label"])
    bad = []
    if op["what"] == "bp":
        # (vol/pi) b_P(1, 2, N; n) reconstructs a(n)
        vol_pi = float(oracle.volume / mp.pi)
        a = oracle.an(BP_N_MAX)
        over = [(n, abs(vol_pi * v - a[n]) / max(vol_pi * t, FLOAT_FLOOR))
                for n, (v, t) in rows.items() if abs(vol_pi * v - a[n]) > vol_pi * t + FLOAT_FLOOR]
        if sorted(rows) != list(range(1, BP_N_MAX + 1)):
            bad.append(("shape", "expected n = 1..10"))
        elif over:
            n, r = max(over, key=lambda t: t[1])
            bad.append(("bp-reconstruction", f"{len(over)} of {BP_N_MAX} miss the stated tail, "
                                             f"worst {r:.2f}x at n = {n}"))
    else:
        # b_Q(-1, 2, N; n) is Zhat^+[n] for n >= 1; the constant term is free, since a
        # weight-0 harmonic form is fixed by its principal part only up to a constant
        z = oracle.zhat(BQ_N_MAX)
        over = [(n, abs(v - float(z[n + 1])) / max(t, FLOAT_FLOOR))
                for n, (v, t) in rows.items() if n >= 1 and abs(v - float(z[n + 1])) > t + FLOAT_FLOOR]
        if sorted(rows) != list(range(0, BQ_N_MAX + 1)):
            bad.append(("shape", "expected n = 0..5"))
        elif over:
            n, r = max(over, key=lambda t: t[1])
            bad.append(("bq-zhat", f"{len(over)} of {BQ_N_MAX} miss the stated tail, "
                                   f"worst {r:.2f}x at n = {n}"))
    return bad


WORKLOADS = {
    "lseries": Workload("lseries", _lseries_ops(), _lseries_check),
    "ladder": Workload("ladder", _ladder_ops(), _ladder_check),
    "forms": Workload("forms", _forms_ops(), _forms_check),
    "poincare": Workload("poincare", _poincare_ops(), _poincare_check),
}
