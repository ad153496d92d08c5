import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

import shiftedconv
import shiftedconv.cli as cli
from shiftedconv.cli import COMMANDS, FLAG, main, parse_args
from shiftedconv.config import fmt
from shiftedconv.eisenstein import basis_for_level
from shiftedconv.lattice import build_lattice
from shiftedconv.mockform import zhat_plus


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_curves_text(capsys):
    code, out, _ = run(capsys, ["curves"])
    assert code == 0
    assert "11a1" in out and "49a1" in out


def test_curves_json(capsys):
    code, out, _ = run(capsys, ["curves", "--format", "json"])
    rows = json.loads(out)
    assert len(rows) == 10
    assert rows[0]["label"] == "11a1"


def test_coeffs_json(capsys):
    code, out, _ = run(capsys, ["coeffs", "--label", "27a1", "--n-max", "7", "--format", "json"])
    rows = json.loads(out)
    assert rows == [[1, 1], [2, 0], [3, 0], [4, -2], [5, 0], [6, 0], [7, -1]]


def test_lattice_json(capsys):
    code, out, _ = run(capsys, ["lattice", "--label", "32a1", "--digits", "32", "--format", "json"])
    data = json.loads(out)
    assert set(data) == {"omega1", "omega2", "tau", "volume", "eta1", "eta2", "S"}
    assert data["S"].strip("()").split(" ")[0].startswith("0.0")


@pytest.mark.parametrize("label, s", [("27a1", "0.0"), ("49a1", "0.25" + "0" * 62)], ids=["27a1", "49a1"])
def test_lattice_json_prints_the_s_of_the_closed_form(capsys, label, s):
    """At the CM levels S is exactly R[1] (`mockform.s_value`), not the lattice's roundoff."""
    code, out, _ = run(capsys, ["lattice", "--label", label, "--format", "json"])
    assert code == 0 and json.loads(out)["S"] == s


def test_nstr_converts_exact_values_at_the_requested_digits():
    """An exact value the CLI prints as a decimal (the S of `lattice`) is converted at the
    requested digits, then printed by `fmt` at those digits."""
    def decimal(x, digits):
        with mp.workdps(digits):
            return fmt(mp.mpmathify(x), digits)
    assert decimal(Fraction(1, 5), 64) == "0.2" + "0" * 63
    assert decimal(Fraction(-2, 3), 40) == "-0." + "6" * 39 + "7"
    assert decimal(0, 64) == decimal(Fraction(0), 64) == fmt(mp.mpf(0), 64) == "0.0"


def test_one_print_rule():
    """`fmt` is the one print rule of the CLI and `verify`; the decimal S of a CM level is
    pinned by test_lattice_json_prints_the_s_of_the_closed_form."""
    assert fmt(0, 64) == fmt(Fraction(0), 64) == fmt(mp.mpf(0), 64) == fmt(0.0, 3) == "0.0"
    assert fmt(0.1 + 0.2, 3) == "0.30000000000000004"
    assert fmt(mp.mpf(1) / 4, 8) == "0.25000000"           # trailing zeros kept
    with mp.workdps(50):
        third = mp.mpf(1) / 3
    assert fmt(third, 40) == "0." + "3" * 40              # the caller's digits, not mp.dps
    assert fmt("report-only", 3) == "report-only"


def test_mockform_text(capsys):
    code, out, _ = run(capsys, ["mockform", "--label", "27a1", "--n-max", "8", "--digits", "32"])
    assert code == 0
    assert "q^-1" in out
    assert "0.75" in out  # 3/4 q^8


def test_mockform_check_eta(capsys):
    code, out, _ = run(capsys, ["mockform", "--label", "32a1", "--n-max", "12",
                                "--digits", "32", "--check-eta"])
    assert code == 0
    assert "max deviation" in out


def test_mockform_check_eta_rejects_an_untabulated_level_before_any_work(capsys, monkeypatch):
    monkeypatch.setattr(cli, "zhat_plus", lambda *a: pytest.fail("the series was computed"))
    code, out, err = run(capsys, ["mockform", "--label", "11a1", "--n-max", "3", "--check-eta",
                                  "--format", "json"])
    assert code == 2 and out == ""
    assert "no eta-quotient tabulated for level 11" in err


def test_mockform_json_27a1_prints_exact_zeros(capsys):
    """Off the support 2 mod 3 every coefficient is an exact zero, printed one way."""
    code, out, _ = run(capsys, ["mockform", "--label", "27a1", "--n-max", "40", "--format", "json"])
    rows = json.loads(out)
    assert code == 0 and [n for n, _ in rows] == list(range(-1, 41))
    assert all(c == "0.0" for n, c in rows if n % 3 != 2)
    assert all(c != "0.0" for n, c in rows if n in (-1, 2, 5, 8, 11, 14))
    assert rows[3] == [2, "0." + "5" + "0" * 63]


def test_eisenstein_text(capsys):
    code, out, _ = run(capsys, ["eisenstein", "--level", "11", "--n-max", "6", "--digits", "32"])
    assert code == 0
    assert "F^(oo)" in out and "F^(0/1)" in out


def test_eisenstein_json_27_prints_exact_zeros(capsys):
    """F^inf_27 = -(1/8) E2(9z) + (9/8) E2(27z) has no term off 9Z, and prints 0.0 there."""
    code, out, _ = run(capsys, ["eisenstein", "--level", "27", "--format", "json"])
    finf = json.loads(out)["oo"]
    assert code == 0 and [int(e) for e, _ in finf] == list(range(31))
    assert all(c == "0.0" for e, c in finf if int(e) % 9)
    assert [c for e, c in finf if int(e) % 9 == 0] == [
        "1." + "0" * 63, "3." + "0" * 63, "9." + "0" * 63, "-15." + "0" * 62]


def test_poincare_json(capsys):
    code, out, _ = run(capsys, ["poincare", "--level", "11", "--n-max", "2",
                                "--c-max", "500", "--format", "json"])
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [1, 2]
    assert all("tail_estimate" in r for r in rows)


def test_lseries_both_json(capsys):
    code, out, _ = run(capsys, ["lseries", "--label", "27a1", "--method", "both",
                                "--h-max", "6", "--terms", "3000", "--digits", "40",
                                "--format", "json"])
    tabs = json.loads(out)
    assert {t["method"] for t in tabs} == {"direct", "closed-form"}
    direct = next(t for t in tabs if t["method"] == "direct")
    assert direct["entries"][0] == {"h": 1, "value": "0.0", "err": "0.0"}
    closed = next(t for t in tabs if t["method"] == "closed-form")
    assert len(closed["entries"]) == 6
    assert all(isinstance(e["value"], str) for e in closed["entries"])


def test_output_does_not_depend_on_ambient_precision(capsys):
    argv = ["lseries", "--label", "11a1", "--h-max", "5", "--terms", "3000", "--format", "json"]
    outs = []
    for dps in (15, 100):
        with mp.workdps(dps):
            code, out, _ = run(capsys, argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])[1]["metadata"]["alpha"]) > 60


@pytest.mark.parametrize("argv", [
    ["poincare", "--level", "11", "--n-max", "4", "--c-max", "400"],
    ["poincare", "--level", "14", "--n-max", "3", "--c-max", "400", "--maass"],
    ["coeffs", "--label", "15a1", "--n-max", "30"],
    ["lattice", "--label", "17a1", "--digits", "40"],
    ["mockform", "--label", "27a1", "--n-max", "8", "--digits", "32"],
    ["eisenstein", "--level", "15", "--n-max", "6", "--digits", "32"],
    ["verify", "--label", "27a1", "--digits", "40", "--terms", "2000", "--c-max", "200"],
])
def test_every_subcommand_ignores_ambient_precision(argv, capsys):
    outs = []
    for dps in (15, 100):
        for fn in (build_lattice, zhat_plus, basis_for_level):
            fn.cache_clear()  # each run builds its objects at this ambient precision
        with mp.workdps(dps):
            code, out, _ = run(capsys, [*argv, "--format", "json"])
        assert code == 0 or argv[0] == "verify"  # a check may fail at these sizes
        outs.append(out)
    if argv[0] == "verify":  # equal apart from the timings
        outs = [[{k: v for k, v in check.items() if k != "runtime_s"} for check in json.loads(o)]
                for o in outs]
    assert outs[0] == outs[1]


def test_lseries_csv(capsys):
    code, out, _ = run(capsys, ["lseries", "--label", "27a1", "--method", "direct",
                                "--h-max", "3", "--terms", "2000", "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "label,method,h,value,err"
    assert len(lines) == 4


def test_verify_label_filter_runs_property_checks(capsys):
    code, out, err = run(capsys, ["verify", "--label", "14a1", "--digits", "40",
                                  "--terms", "2000", "--c-max", "200"])
    assert "10a-legendre" in out
    assert "10d-cusp-counts" in out
    assert "1-newform" not in out
    assert "checks passed" in err


@pytest.mark.parametrize("argv", [
    ["lattice", "--label", "11a1", "--format", "csv"],
    ["poincare", "--level", "11", "--digits", "40"],
    ["verify", "--curve-file", "f"],
    ["curves", "--curve-file", "f"],
    ["lseries", "--label", "11a1", "--curve-file", "f"],
    ["poincare", "--level", "11", "--index", "1"],
    ["poincare", "--level", "11", "--weight", "2"],
])
def test_options_a_subcommand_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["poincare", "--level", "1"], "invalid choice"),
    (["poincare", "--level", "12", "--c-max", "100"], "invalid choice"),
    (["eisenstein", "--level", "50"], "invalid choice"),
    (["poincare", "--level", "11", "--c-max", "100001"], "1 .. 100000"),
    (["poincare", "--level", "11", "--c-max", "0"], "1 .. 100000"),
    (["poincare", "--level", "11", "--c-max", "-5"], "1 .. 100000"),
    (["poincare", "--level", "11", "--c-max", "1e4"], "1 .. 100000"),
    (["verify", "--c-max", "200000"], "1 .. 100000"),
    (["lattice", "--label", "37a1"], "invalid choice"),
    (["verify", "--label", "37a1"], "invalid choice"),
    (["coeffs", "--label", "11"], "invalid choice"),
    (["lseries", "--label", "11a1", "--terms", "0"], "10 .. 1000000"),
    (["lseries", "--label", "11a1", "--terms", "9"], "10 .. 1000000"),
    (["verify", "--terms", "1000001"], "10 .. 1000000"),
    (["coeffs", "--label", "11a1", "--n-max", "0"], "1 .. 1000000"),
    (["coeffs", "--label", "11a1", "--n-max", "1000001"], "1 .. 1000000"),
    (["lseries", "--label", "11a1", "--h-max", "0"], "1 .. 200"),
    (["mockform", "--label", "11a1", "--n-max", "-1"], "0 .. 200"),
    (["eisenstein", "--level", "11", "--n-max", "-1"], "0 .. 1000"),
    (["lattice", "--label", "11a1", "--digits", "10"], "30 .. 1000"),
    (["verify", "--digits", "29"], "30 .. 1000"),
    (["lseries", "--label", "11a1", "--h-max", "-1"], "1 .. 200"),
    (["poincare", "--level", "11", "--n-max", "2.5"], "1 .. 200"),
    (["poincare", "--level", "11", "--n-max", "0"], "1 .. 200"),
    (["poincare", "--level", "11", "--n-max", "-3", "--maass"], "1 .. 200"),
    (["eisenstein", "--level", "49", "--n-max", "1001"], "0 .. 1000"),
    (["mockform", "--label", "11a1", "--n-max", "201"], "0 .. 200"),
    (["lseries", "--label", "11a1", "--h-max", "201"], "1 .. 200"),
    (["lseries", "--label", "11a1", "--h-max", "1000000"], "1 .. 200"),
    (["poincare", "--level", "11", "--n-max", "201"], "1 .. 200"),
    (["poincare", "--level", "49", "--n-max", "1000000", "--maass"], "1 .. 200"),
    (["lseries", "--label", "11a1", "--digits", "1001"], "30 .. 1000"),
])
def test_inputs_outside_the_limits_are_rejected(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_inputs_at_the_limits_are_accepted():
    def parsed(*argv):
        return parse_args(list(argv))[1]
    for N in (11, 14, 15, 17, 19, 21, 27, 32, 36, 49):
        assert parsed("eisenstein", "--level", str(N)).level == N
    args = parsed("poincare", "--level", "49", "--c-max", "100000")
    assert (args.level, args.c_max) == (49, 100_000)
    assert parsed("poincare", "--level", "11", "--c-max", "1").c_max == 1
    args = parsed("lseries", "--label", "49a1", "--terms", "10", "--h-max", "1", "--digits", "30")
    assert (args.label, args.terms, args.h_max, args.digits) == ("49a1", 10, 1, 30)
    assert parsed("lattice", "--label", "11a1", "--digits", "1000").digits == 1000
    assert parsed("verify", "--terms", "1000000").terms == 1_000_000
    assert parsed("coeffs", "--label", "11a1", "--n-max", "1").n_max == 1
    assert parsed("eisenstein", "--level", "11", "--n-max", "0").n_max == 0
    assert parsed("mockform", "--label", "11a1", "--n-max", "0").n_max == 0
    assert parsed("poincare", "--level", "11", "--n-max", "1").n_max == 1
    args = parsed("poincare", "--level", "11", "--n-max", "200", "--maass")
    assert (args.n_max, args.maass) == (200, True)
    assert parsed("eisenstein", "--level", "49", "--n-max", "1000").n_max == 1000
    assert parsed("mockform", "--label", "49a1", "--n-max", "200").n_max == 200
    assert parsed("lseries", "--label", "11a1", "--h-max", "200").h_max == 200


def test_parse_args_reads_the_table():
    """`--opt=value` equals `--opt value`, the last occurrence wins, and every option the
    command reads is set, to its default when not given."""
    handler, args = parse_args(["poincare", "--level=11", "--n-max", "3", "--n-max=4"])
    assert handler is cli.cmd_poincare
    assert vars(args) == {"level": 11, "n_max": 4, "c_max": 10_000, "maass": False,
                          "format": "text"}
    assert vars(parse_args(["verify"])[1]) == {"label": None, "terms": 100_000, "c_max": 10_000,
                                               "digits": 64, "format": "text"}


@pytest.mark.parametrize("argv, message", [
    (["poincare", "--level"], "argument --level: expected a value"),
    (["lattice"], "the following arguments are required: --label"),
    (["lattice", "--digits", "40"], "the following arguments are required: --label"),
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "a command is required"),
    (["poincare", "--level", "11", "--maass=1"], "argument --maass: takes no value"),
    (["poincare", "--lev", "11"], "unrecognized argument: --lev"),
    (["poincare", "11"], "unrecognized argument: 11"),
], ids=["missing-value", "no-label", "no-label-with-digits", "unknown-command", "empty-argv",
        "flag-with-value", "abbreviation", "positional"])
def test_parse_args_rejects_with_exit_2_and_a_usage_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    name = argv[0] if argv and argv[0] in COMMANDS else "<command>"
    assert err.startswith(f"usage: shiftedconv {name} [options]\n")
    assert message in err


@pytest.mark.parametrize("name", COMMANDS)
def test_every_command_help_names_its_options(name, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args([name, "--format", "json", "-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith(f"usage: shiftedconv {name} [options]")
    for opt, (parse, default) in COMMANDS[name][2].items():
        line = next(line for line in out.splitlines() if line.startswith(f"    {opt} "))
        if parse is not FLAG:
            assert parse.limits in line, line
            assert default is None or str(default) in line or "required" in line, line


def _fresh_python(code):
    """stdout of `code` run by a fresh interpreter that imports the package under test."""
    env = dict(os.environ, PYTHONPATH=str(Path(shiftedconv.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_imports_stay_lazy_and_help_lists_every_command():
    """The package loads no verify module and the CLI no csv until a command needs them, and
    a command run loads no argparse, gettext or locale; `-h` lists every command."""
    out = _fresh_python("import sys, shiftedconv; print('shiftedconv.verify' in sys.modules)\n"
                        "import shiftedconv.cli; print('csv' in sys.modules)\n"
                        "shiftedconv.cli.main(['poincare', '--level', '11', '--n-max', '2',\n"
                        "                      '--c-max', '50', '--format', 'json'])\n"
                        "print([m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])")
    assert out.split()[:2] == ["False", "False"]
    assert out.splitlines()[-1] == "[]"
    help_text = _fresh_python("from shiftedconv.cli import main; main(['-h'])")
    assert len(COMMANDS) == 8
    for name, (help_line, *_) in COMMANDS.items():
        assert f"    {name:<20}{help_line}" in help_text, name


def test_a_closed_stdout_ends_without_a_traceback():
    """A reader that stops early (`| head -1`) gets exit 1 and no BrokenPipeError trace."""
    env = dict(os.environ, PYTHONPATH=str(Path(shiftedconv.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "shiftedconv.cli", "coeffs", "--label", "11a1",
                             "--n-max", "20000"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "     1 1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err, err
