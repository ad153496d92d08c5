"""Command-line interface: per-object commands plus the acceptance-suite runner."""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

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
DIGITS_LIMIT = 1_000  # PrecisionConfig and the lattice need 30; the ceiling bounds time (README)

FLAG = object()  # the parser of an option that takes no value; its default is False
REQUIRED = object()  # the default of an option a command cannot run without


def _integer(lo, hi):
    """The parser of an option's value: an integer lo .. hi, written in decimal."""
    def parse(text):
        if not text.removeprefix("-").isdecimal() or not lo <= int(text) <= hi:
            raise ValueError(f"must be an integer in {lo} .. {hi}, got {text!r}")
        return int(text)
    parse.limits = f"an integer in {lo} .. {hi}"
    return parse


def _choices(*values):
    """The parser of an option's value: one of `values`, written as str() writes it."""
    by_text = {str(v): v for v in values}
    def parse(text):
        if text not in by_text:
            raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(by_text)})")
        return by_text[text]
    parse.limits = "one of " + ", ".join(by_text)
    return parse


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
            print(r.report())
    n_fail = sum(not r.passed for r in results)
    print(f"# {len(results) - n_fail}/{len(results)} checks passed", file=sys.stderr)
    return 1 if n_fail else 0


LABEL = _choices(*LABELS)
LEVEL = _choices(*SUPPORTED_CONDUCTORS)
DIGITS = _integer(30, DIGITS_LIMIT)
TEXT_JSON = _choices("text", "json")
TEXT_JSON_CSV = _choices("text", "json", "csv")

# name -> (help, handler, {option: (parser, default)}).  The table holds every option a
# command reads and no other: parse_args rejects the rest.  A parser is _integer(lo, hi),
# _choices(...) or FLAG; a default may be REQUIRED.
COMMANDS = {
    "curves": ("list the curve registry", cmd_curves, {"--format": (TEXT_JSON, "text")}),
    "coeffs": ("newform coefficients a(n)", cmd_coeffs, {
        "--label": (LABEL, REQUIRED), "--n-max": (_integer(1, TERMS_LIMIT), 50),
        "--format": (TEXT_JSON_CSV, "text")}),
    "lattice": ("periods, quasi-periods, volume, S", cmd_lattice, {
        "--label": (LABEL, REQUIRED), "--digits": (DIGITS, 64), "--format": (TEXT_JSON, "text")}),
    "mockform": ("Weierstrass mock modular form expansion", cmd_mockform, {
        "--label": (LABEL, REQUIRED), "--n-max": (_integer(0, MOCK_LIMIT), 40),
        "--check-eta": (FLAG, False), "--digits": (DIGITS, 64), "--format": (TEXT_JSON, "text")}),
    "eisenstein": ("cusp indicator basis", cmd_eisenstein, {
        "--level": (LEVEL, REQUIRED), "--n-max": (_integer(0, INDICATOR_LIMIT), 30),
        "--digits": (DIGITS, 64), "--format": (TEXT_JSON, "text")}),
    "poincare": ("Poincare series coefficients b_P, or b_Q with --maass", cmd_poincare, {
        "--level": (LEVEL, REQUIRED), "--n-max": (_integer(1, MOCK_LIMIT), 10),
        "--c-max": (_integer(1, C_MAX_LIMIT), 10_000), "--maass": (FLAG, False),
        "--format": (TEXT_JSON, "text")}),
    "lseries": ("shifted convolution L-values", cmd_lseries, {
        "--label": (LABEL, REQUIRED), "--method": (_choices("direct", "closed", "both"), "both"),
        "--h-max": (_integer(1, MOCK_LIMIT), 30), "--terms": (_integer(10, TERMS_LIMIT), 100_000),
        "--digits": (DIGITS, 64), "--format": (TEXT_JSON_CSV, "text")}),
    "verify": ("run the acceptance suite", cmd_verify, {
        "--label": (LABEL, None), "--terms": (_integer(10, TERMS_LIMIT), 100_000),
        "--c-max": (_integer(1, C_MAX_LIMIT), 10_000), "--digits": (DIGITS, 64),
        "--format": (TEXT_JSON, "text")}),
}


def _help(name=None):
    """The help of command `name`: its options with their limits and defaults; with no
    name, the list of commands."""
    if name is None:
        lines = [f"    {cmd:<20}{help_text}" for cmd, (help_text, *_) in COMMANDS.items()]
        return "\n".join(["usage: shiftedconv <command> [options]", "", "commands:", *lines, "",
                          "`shiftedconv <command> -h` lists the options of a command."])
    help_text, _, table = COMMANDS[name]
    lines = [f"usage: shiftedconv {name} [options]", "", help_text, "",
             "options (--opt value or --opt=value):"]
    for opt, (parse, default) in table.items():
        about = "a flag, takes no value" if parse is FLAG else parse.limits + (
            " (required)" if default is REQUIRED else
            " (optional)" if default is None else f" (default {default})")
        lines.append(f"    {opt:<20}{about}")
    return "\n".join(lines)


def _fail(name, message):
    """Exit 2 with the usage line and `message` on stderr; `name` is the command, if known."""
    prog = "shiftedconv" if name is None else f"shiftedconv {name}"
    print(f"usage: shiftedconv {name or '<command>'} [options]\n{prog}: error: {message}",
          file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv):
    """The handler of the command argv[0] names, and its options read from argv[1:].

    An option is `--opt value` or `--opt=value`, by its exact name; the last occurrence
    wins, and a FLAG takes no value.  `-h` or `--help` prints help and exits 0; any
    input the table does not accept exits 2."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        print(_help())
        raise SystemExit(0)
    if name not in COMMANDS:
        _fail(None, ("a command is required" if name is None else f"invalid choice: {name!r}")
              + f" (choose from {', '.join(COMMANDS)})")
    _, handler, table = COMMANDS[name]
    rest, values = iter(argv[1:]), {}
    for arg in rest:
        if arg in ("-h", "--help"):
            print(_help(name))
            raise SystemExit(0)
        opt, eq, text = arg.partition("=")
        if opt not in table:
            _fail(name, f"unrecognized argument: {arg}")
        parse = table[opt][0]
        if parse is FLAG:
            if eq:
                _fail(name, f"argument {opt}: takes no value, got {text!r}")
            values[opt] = True
            continue
        if not eq:
            text = next(rest, None)
            if text is None:
                _fail(name, f"argument {opt}: expected a value")
        try:
            values[opt] = parse(text)
        except ValueError as exc:
            _fail(name, f"argument {opt}: {exc}")
    missing = [opt for opt, (_, default) in table.items()
               if default is REQUIRED and opt not in values]
    if missing:
        _fail(name, "the following arguments are required: " + ", ".join(missing))
    return handler, SimpleNamespace(**{opt[2:].replace("-", "_"): values.get(opt, default)
                                       for opt, (_, default) in table.items()})


def main(argv=None):
    handler, args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull so that flush cannot raise
        # (the Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
