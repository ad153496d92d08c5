"""Command-line interface: per-object commands plus the acceptance-suite runner."""

from __future__ import annotations

import argparse
import json
import sys

import mpmath

from .config import PrecisionConfig, fmt
from .curves import LABELS, SUPPORTED_CONDUCTORS, load_registry, get_curve
from .eisenstein import indicator_basis
from .lattice import build_lattice
from .mockform import ETA_DERIVATIVE_TABLE, eta_derivative_deviation, s_value, zhat_plus
from .newform import an_coefficients
from .poincare import bp_coefficient, bq_coefficient
from .shifted import d_direct_table, l_series_closed_form


C_MAX_LIMIT = 100_000  # building the per-call Kloosterman tables grows like c_max^2 (README)
TERMS_LIMIT = 1_000_000  # point counting raises above p = 1.3e6 (README)
INDICATOR_LIMIT = 1_000  # the orbit expansions grow linearly in n_max (README)
MOCK_LIMIT = 200  # mockform --n-max, lseries --h-max and poincare --n-max.  The exact mock
# form no longer sets it (0.01 s at 14a1 and n_max 200): 200 is the range over which b_Q is
# compared with Zhat^+, and it bounds the poincare c-sum arrays, which grow as
# (c_max/N) n_max, to 76 MB RSS at c_max 10^5 (README)


def _integer(lo, hi=None):
    """An argparse type accepting the integers lo .. hi (no upper limit if hi is None)."""
    def parse(text):
        if not text.removeprefix("-").isdecimal() or not lo <= int(text) <= (hi or int(text)):
            limit = f"in {lo} .. {hi}" if hi else f">= {lo}"
            raise argparse.ArgumentTypeError(f"must be an integer {limit}, got {text!r}")
        return int(text)
    return parse


def _options(sub, *, digits=False, csv_rows=False, label=False):
    """Give a subcommand --format and only the shared options it reads."""
    if digits:
        sub.add_argument("--digits", type=_integer(30), default=64, help="working decimal precision")
    sub.add_argument("--format", choices=("text", "json", "csv") if csv_rows else ("text", "json"),
                     default="text")
    if label:
        sub.add_argument("--label", choices=LABELS, required=True)
    return sub


def cmd_curves(args):
    models = load_registry()
    rows = [{"label": m.label, "conductor": m.conductor,
             "a_invariants": list(m.ainvs), "discriminant": m.discriminant,
             "has_cm": m.has_cm, "squarefree_level": m.squarefree_level}
            for m in models]
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for r in rows:
            print(f"{r['label']:>5}  N={r['conductor']:<3} a={r['a_invariants']} "
                  f"disc={r['discriminant']} cm={r['has_cm']}")
    return 0


def cmd_coeffs(args):
    f = an_coefficients(get_curve(args.label), args.n_max)
    rows = [(n, int(f[n])) for n in range(1, args.n_max + 1)]
    if args.format == "json":
        print(json.dumps([[n, a] for n, a in rows]))
    elif args.format == "csv":
        import csv
        w = csv.writer(sys.stdout)
        w.writerow(["n", "a_n"])
        w.writerows(rows)
    else:
        for n, a in rows:
            print(f"{n:6d} {a}")
    return 0


def cmd_lattice(args):
    model = get_curve(args.label)
    lat = build_lattice(model, args.digits)
    with mpmath.workdps(args.digits):
        s = mpmath.mpmathify(s_value(model, args.digits))     # a Fraction at the CM levels
    values = {"omega1": lat.omega1, "omega2": lat.omega2, "tau": lat.tau, "volume": lat.volume,
              "eta1": lat.eta1, "eta2": lat.eta2, "S": s}
    fields = {k: fmt(v, args.digits) for k, v in values.items()}
    if args.format == "json":
        print(json.dumps(fields, indent=2))
    else:
        for k, v in fields.items():
            print(f"{k:>7} = {v}")
    return 0


def cmd_mockform(args):
    model = get_curve(args.label)
    if args.check_eta and model.conductor not in ETA_DERIVATIVE_TABLE:
        print(f"no eta-quotient tabulated for level {model.conductor} (only "
              f"{', '.join(map(str, ETA_DERIVATIVE_TABLE))})", file=sys.stderr)
        return 2
    z = zhat_plus(model, args.n_max, args.digits)
    rows = [(n, fmt(z[n], args.digits)) for n in range(-1, args.n_max + 1)]
    if args.format == "json":
        print(json.dumps(rows))
    else:
        for n, c in rows:
            print(f"q^{n:<4} {c}")
    if args.check_eta:
        worst = eta_derivative_deviation(model, args.n_max, args.digits)
        print(f"# eta-quotient check: max deviation {fmt(worst, 6)}")
    return 0


def cmd_eisenstein(args):
    ind = indicator_basis(args.level, args.n_max, args.digits)
    if args.format == "json":
        out = {str(cusp): [(str(e), fmt(series[e], args.digits)) for e in range(args.n_max + 1)]
               for cusp, series in ind.items()}
        print(json.dumps(out, indent=1))
    else:
        for cusp, series in ind.items():
            terms = [f"({fmt(c, args.digits)})q^{e}" for e, c in sorted(series.coeffs.items())]
            print(f"F^({cusp}): " + " + ".join(terms[:12]))
    return 0


def cmd_poincare(args):
    if args.maass:
        ns = range(0, args.n_max + 1)
        coeffs = bq_coefficient(args.level, ns, args.c_max)
    else:
        ns = range(1, args.n_max + 1)
        coeffs = bp_coefficient(args.level, ns, args.c_max)
    rows = [{"n": n, "value": fmt(r.value, 17), "tail_estimate": fmt(r.err, 17)}
            for n, r in zip(ns, coeffs)]
    if args.format == "json":
        print(json.dumps(rows, indent=1))
    else:
        for r in rows:
            print(f"n={r['n']:<4} {r['value']}  (tail ~ {r['tail_estimate']})")
    return 0


def cmd_lseries(args):
    model = get_curve(args.label)
    tables = []
    if args.method in ("direct", "both"):
        tables.append(d_direct_table(model, args.h_max, args.terms))
    if args.method in ("closed", "both"):
        tables.append(l_series_closed_form(model, args.h_max, args.digits, args.terms))
    payload = []
    for tab in tables:
        payload.append({
            "label": tab.label,
            "method": tab.method,
            "entries": [{"h": h, "value": fmt(tab.entries[h], args.digits),
                         "err": fmt(tab.errors[h], 3)} for h in sorted(tab.entries)],
            "metadata": {k: fmt(v, args.digits) for k, v in tab.metadata.items()},
        })
    if args.format == "json":
        print(json.dumps(payload, indent=1))
    elif args.format == "csv":
        import csv
        w = csv.writer(sys.stdout)
        w.writerow(["label", "method", "h", "value", "err"])
        for tab in payload:
            for e in tab["entries"]:
                w.writerow([tab["label"], tab["method"], e["h"], e["value"], e["err"]])
    else:
        for tab in payload:
            print(f"== {tab['label']} ({tab['method']})")
            for e in tab["entries"]:
                print(f" h={e['h']:<3} {e['value']}  (err ~ {e['err']})")
    return 0


def cmd_verify(args):
    from .verify import verify_all
    cfg = PrecisionConfig(digits=args.digits, direct_terms=args.terms,
                          kloosterman_c_max=args.c_max)
    labels = [args.label] if args.label else None
    results = verify_all(cfg, labels)
    if args.format == "json":
        print(json.dumps([{"id": r.check_id, "description": r.description,
                           "passed": r.passed, "details": r.details,
                           "runtime_s": round(r.runtime_s, 2)} for r in results], indent=1))
    else:
        for r in results:
            print(r.line())
            for k, v in r.details.items():
                print(f"        {k} = {v}")
    n_fail = sum(not r.passed for r in results)
    print(f"# {len(results) - n_fail}/{len(results)} checks passed", file=sys.stderr)
    return 1 if n_fail else 0


def _add_coeffs(s):
    s.add_argument("--n-max", type=_integer(1, TERMS_LIMIT), default=50)


def _add_mockform(s):
    s.add_argument("--n-max", type=_integer(0, MOCK_LIMIT), default=40)
    s.add_argument("--check-eta", action="store_true")


def _add_eisenstein(s):
    s.add_argument("--level", type=int, choices=SUPPORTED_CONDUCTORS, required=True)
    s.add_argument("--n-max", type=_integer(0, INDICATOR_LIMIT), default=30)


def _add_poincare(s):
    s.add_argument("--level", type=int, choices=SUPPORTED_CONDUCTORS, required=True)
    s.add_argument("--n-max", type=_integer(1, MOCK_LIMIT), default=10)
    s.add_argument("--c-max", type=_integer(1, C_MAX_LIMIT), default=10_000)
    s.add_argument("--maass", action="store_true",
                   help="b_Q(-1, 2, N; n) of the Maass-Poincare series instead of b_P(1, 2, N; n)")


def _add_lseries(s):
    s.add_argument("--method", choices=("direct", "closed", "both"), default="both")
    s.add_argument("--h-max", type=_integer(1, MOCK_LIMIT), default=30)
    s.add_argument("--terms", type=_integer(10, TERMS_LIMIT), default=100_000)


def _add_verify(s):
    s.add_argument("--label", choices=LABELS, default=None, help="restrict checks to one curve")
    s.add_argument("--terms", type=_integer(10, TERMS_LIMIT), default=100_000)
    s.add_argument("--c-max", type=_integer(1, C_MAX_LIMIT), default=10_000)


# name -> (help, command, _options flags, adder of the command's own options)
COMMANDS = {
    "curves": ("list the curve registry", cmd_curves, {}, None),
    "coeffs": ("newform coefficients a(n)", cmd_coeffs, {"csv_rows": True, "label": True},
               _add_coeffs),
    "lattice": ("periods, quasi-periods, volume, S", cmd_lattice, {"digits": True, "label": True},
                None),
    "mockform": ("Weierstrass mock modular form expansion", cmd_mockform,
                 {"digits": True, "label": True}, _add_mockform),
    "eisenstein": ("cusp indicator basis", cmd_eisenstein, {"digits": True}, _add_eisenstein),
    "poincare": ("Poincare series coefficients", cmd_poincare, {}, _add_poincare),
    "lseries": ("shifted convolution L-values", cmd_lseries,
                {"digits": True, "csv_rows": True, "label": True}, _add_lseries),
    "verify": ("run the acceptance suite", cmd_verify, {"digits": True}, _add_verify),
}


def build_parser(command=None):
    """The parser of every command, or of `command` alone (the only one a run of it reads)."""
    p = argparse.ArgumentParser(prog="shiftedconv",
                                description="Shifted convolution L-values for the ten "
                                            "genus-one modular elliptic curves")
    # a one-command parser still names every command in its usage line
    every = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=every)
    for name, (help_text, fn, flags, add) in COMMANDS.items():
        if command in (None, name):
            s = _options(sub.add_parser(name, help=help_text), **flags)
            if add:
                add(s)
            s.set_defaults(fn=fn)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
