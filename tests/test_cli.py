import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from flagke import census as cs, cli
from flagke.errors import DiagramParseError

from conftest import EXIT_ZERO, FAMILY_MIN_RANK, all_diagrams, killing_c, pi_sum, trace_inner


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_env():
    """The environment for a fresh interpreter that imports this flagke."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_parse_round_trip_everything():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 10):
            for dg in all_diagrams(fam, rank):
                assert cli.parse_diagram(dg.key()) == dg


def test_parse_errors_carry_offsets():
    with pytest.raises(DiagramParseError) as exc:
        cli.parse_diagram("D2:oo")
    assert exc.value.offset == 1
    with pytest.raises(DiagramParseError) as exc:
        cli.parse_diagram("X3:ooo")
    assert exc.value.offset == 0
    with pytest.raises(DiagramParseError) as exc:
        cli.parse_diagram("A3:oo")
    assert exc.value.offset == 3
    with pytest.raises(DiagramParseError) as exc:
        cli.parse_diagram("A3:oxo")
    assert exc.value.offset == 4
    with pytest.raises(DiagramParseError):
        cli.parse_diagram("A3ooo")
    with pytest.raises(DiagramParseError, match="empty diagram") as exc:
        cli.parse_diagram("")
    assert exc.value.offset == 0
    with pytest.raises(DiagramParseError, match="rank must be a positive integer") as exc:
        cli.parse_diagram("Ax:o")
    assert exc.value.offset == 1
    for text in ("A\u00b2:*", "A\u0661:*"):  # a superscript and an Arabic-Indic digit
        with pytest.raises(DiagramParseError, match="rank must be a positive integer") as exc:
            cli.parse_diagram(text)
        assert exc.value.offset == 1
    at_cap = "1" * cli.MAX_DIGITS  # a rank has as many digits as any number
    top = str(cli.MAX_RANK)
    for text, message, offset in ((f"A{top}:*", f"mask must have exactly {top} characters", len(top) + 2),
                                  (f"A{cli.MAX_RANK + 1}:*", f"rank must be at most {top}", 1),
                                  (f"A{at_cap}:*", f"rank must be at most {top}", 1),
                                  (f"A{at_cap}1:*", f"rank has more than {cli.MAX_DIGITS} digits", 1)):
        with pytest.raises(DiagramParseError, match=message) as exc:
            cli.parse_diagram(text)
        assert exc.value.offset == offset


def test_koszul_command(capsys):
    code, out, _ = run(capsys, "koszul", "A5:*ooo*")
    assert code == 0
    assert "n_1=5" in out and "n_5=5" in out
    code, out, _ = run(capsys, "koszul", "A11:oo*oo*ooooo")
    assert code == 0
    assert "n_3=6" in out and "n_6=9" in out


def test_koszul_json(capsys):
    code, out, _ = run(capsys, "koszul", "--json", "B3:*oo")
    assert code == 0
    payload = json.loads(out)
    assert payload["koszul_numbers"] == {"1": "5"} or payload["koszul_numbers"] == {"1": 5}


def test_koszul_error_codes(capsys):
    code, _, err = run(capsys, "koszul", "A3:ooo")
    assert code == 3 and "flag" in err
    code, _, err = run(capsys, "koszul", "A3:oox")
    assert code == 2
    code, _, err = run(capsys, "koszul", "A\u00b2:*")
    assert code == 2 and len(err.splitlines()) == 1 and err.startswith("error: rank must be")


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "A11:oo*oo*ooooo",
                       "--string", "1", "--beta", "left", "--chi", "2,3")
    assert code == 0
    assert "lambda=0  exists=yes" in out
    code, out, _ = run(capsys, "classify", "A11:oo*oo*ooooo",
                       "--string", "7", "--beta", "left", "--chi", "1,1")
    assert code == 0
    assert "lambda=0  exists=no" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "A11:oo*oo*ooooo",
                       "--string", "1", "--beta", "left", "--chi", "2,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_zero"]["exists"] is True
    assert payload["lambda_zero"]["required_chi"] == [2, 3]
    assert payload["m"] == 3
    assert payload["kappa_sq"]


def test_classify_m1(capsys):
    code, out, _ = run(capsys, "classify", "B3:*oo", "--m1", "--chi", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_zero"]["exists"] is True and payload["m"] == 1


# (diagram, datum arguments, characters): each datum has characters on both
# sides of its ray bound, and on it where the bound is an integer
CLASSIFY_PINS = (
    ("A3:*o*", ("--m1",), ("0,1", "1,1", "-1,2")),                           # k_j > 0
    ("A5:*oo*o", ("--string", "2", "--beta", "left"), ("1,1", "0,1", "1,0")),   # k_1 > 2/3, k_4 > 1/3
    ("A5:*oo*o", ("--string", "2", "--beta", "right"), ("-1,-1", "0,-1", "-1,0")),  # k_1 < -1/3, k_4 < -2/3
    ("B2:o*", ("--string", "1", "--beta", "left"), ("0", "1", "2")),          # k_2 > 1
    ("B2:o*", ("--string", "1", "--beta", "right"), ("-2", "-1", "0")),       # k_2 < -1
    ("B3:oo*", ("--string", "1", "--beta", "left"), ("0", "1")),              # k_3 > 2/3
    ("B3:oo*", ("--string", "1", "--beta", "right"), ("-2", "-1")),           # k_3 < -4/3
    ("D4:*oo*", ("--string", "2", "--beta", "left"), ("0,0", "1,1", "1,0")),    # k_1 > 2/3, k_4 > 2/3
    ("D4:*oo*", ("--string", "2", "--beta", "right"), ("0,0", "-1,-1", "0,-1")),  # k_1 < -1/3, k_4 < -1/3
    ("D5:*oo*o", ("--string", "2", "--beta", "left"), ("0,0", "1,1", "0,1")),   # k_1 > 3/4, k_4 > 1/2
    ("D5:*oo*o", ("--string", "2", "--beta", "right"), ("0,0", "-1,-1", "-1,0")),  # k_1 < -1/4, k_4 < -1/2
    ("D4:o**o", ("--string", "4", "--beta", "left"), ("1,0", "1,1", "1,-1")),   # k_2 > 1/2, k_3 > 0
    ("D4:o**o", ("--string", "4", "--beta", "right"), ("-1,0", "-1,-1", "-1,1")),  # k_2 < -1/2, k_3 < 0
)


def test_classify_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    for diagram, datum, chis in CLASSIFY_PINS:
        for chi in chis:
            for fmt in ((), ("--json",)):
                code, out, err = run(capsys, "classify", diagram, *datum, f"--chi={chi}", *fmt)
                assert code == 0 and not err, (diagram, datum, chi)
                digest.update(out.encode())
    assert digest.hexdigest() == "c595506292c733a47b6825900771410e4d5749b632f3aa662cabb7df454b41d8"


def test_classify_usage_errors(capsys):
    code, _, err = run(capsys, "classify", "A11:oo*oo*ooooo", "--chi", "2,3")
    assert code == 2
    code, _, err = run(capsys, "classify", "A11:oo*oo*ooooo",
                       "--string", "1", "--beta", "left", "--chi", "2")
    assert code == 2
    code, _, err = run(capsys, "classify", "A11:oo*oo*ooooo",
                       "--m1", "--string", "1", "--beta", "left", "--chi", "2,3")
    assert code == 2
    code, _, err = run(capsys, "classify", "A11:oo*oo*ooooo",
                       "--string", "1", "--beta", "left", "--chi", "1,x")
    assert code == 2 and "comma-separated integer list" in err


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["plain", "json"])
@pytest.mark.parametrize("argv, chi", [
    (("A1:*", "--m1"), (3 * 10**155,)),
    (("A11:oo*oo*ooooo", "--string", "1", "--beta", "left"), (10**200, 1)),
    # a character at the digit cap: kappa^2 has about 4,000 digits, under Python's 4,300
    (("A1:*", "--m1"), (-(10**cli.MAX_DIGITS - 1),)),
    (("A11:oo*oo*ooooo", "--string", "1", "--beta", "left"), (10**cli.MAX_DIGITS - 1, 10**cli.MAX_DIGITS - 1)),
], ids=["A1 chi 3e155", "A11 chi 1e200", "A1 chi at the digit cap", "A11 chi at the digit cap"])
def test_classify_prints_kappa_sq_past_the_float_range(capsys, argv, chi, json_flag):
    # kappa^2 = <chi, chi> + (m - 1)/(2cm), by the trace form
    dg = cli.parse_diagram(argv[0])
    alg, m = dg.algebra, 1 if "--m1" in argv else 3
    chi_w = pi_sum(alg, dg.black_nodes, chi)
    ksq = trace_inner(alg, chi_w, chi_w) + Fraction(m - 1, 2 * m * killing_c(alg))
    code, out, err = run(capsys, "classify", *argv, "--chi", ",".join(map(str, chi)), *json_flag)
    assert (code, err) == (0, "")
    if json_flag:
        assert json.loads(out)["kappa_sq"] == str(ksq)
    else:
        assert out.splitlines()[-1] == f"kappa_sq={ksq}"


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["plain", "json"])
@pytest.mark.parametrize("chi, lam, what", [
    ("-1", str(10**320), "lambda"),
    ("-1", f"1/{10**320}", "1/lambda"),
    ("3", f"-{10**320}", "lambda"),
    ("3", f"-1/{10**320}", "1/lambda"),
    (str(-10**200), "1", "kappa^2"),
    ("3", "-" + "9" * cli.MAX_DIGITS, "lambda"),  # at the digit cap: read, and past the float range
    # kappa = 3.5e99 over |lambda| = 1e-250: the end of a bounded domain, and f(t) on an unbounded one
    (str(-10**100), f"1/{10**250}", "the domain end f_sup"),
    (str(10**100), f"-1/{10**250}", "kappa/|lambda|"),
], ids=["lambda 1e320", "lambda 1e-320", "lambda -1e320", "lambda -1e-320", "chi -1e200", "lambda at the digit cap",
        "f_sup 1e350", "kappa/lambda 1e350"])
def test_profile_past_the_float_range_is_one_error_line(capsys, chi, lam, what, json_flag):
    code, out, err = run(capsys, "profile", "A1:*", "--m1", "--chi", chi, "--lambda", lam, *json_flag)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {what} is about ") and err.endswith(", past the float range\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("A1:*", "--m1", "--chi", "3", "--lambda", str(-10**200)),
    ("A11:oo*oo*ooooo", "--string", "1", "--beta", "left", "--chi", "3,4", "--lambda", str(-10**30)),
], ids=["A1 lambda -1e200", "A11 lambda -1e30"])
def test_profile_at_a_large_negative_lambda_prints_every_row(capsys, argv):
    code, out, err = run(capsys, "profile", *argv, "--samples", "4")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 3 + 4


def test_profile_point_orbit_matches_hyperbolic_form(capsys):
    code, out, _ = run(capsys, "profile", "A1:o", "--string", "1", "--beta", "left",
                       "--chi", "", "--lambda", "-1", "--samples", "16", "--json")
    assert code == 0
    payload = json.loads(out)
    kap = payload["kappa"]
    b = 2.0 / (1 + 1 + 1)  # -2 lambda / (m+1), m = 2
    for row in payload["samples"]:
        expected = (2 * kap / b) * math.sinh(math.sqrt(b) * row["t"] / 2) ** 2
        assert abs(row["f"] - expected) < 1e-8
        assert abs(row["residual"]) < 1e-8


def test_profile_plain_table(capsys):
    code, out, _ = run(capsys, "profile", "A11:oo*oo*ooooo", "--string", "1",
                       "--beta", "left", "--chi", "1,1", "--lambda", "1", "--samples", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("diagram A11")
    assert "kappa=" in lines[1] and "f_sup=" in lines[1]
    assert len(lines) == 3 + 8


def test_profile_rejects_floats_and_unadmitted(capsys):
    code, _, err = run(capsys, "profile", "A1:o", "--string", "1", "--beta", "left",
                       "--chi", "", "--lambda", "0.5")
    assert code == 2 and "rational" in err
    code, _, err = run(capsys, "profile", "A1:o", "--string", "1", "--beta", "left",
                       "--chi", "", "--lambda", "1/0")
    assert code == 2 and "cannot parse rational" in err
    code, _, err = run(capsys, "profile", "A11:oo*oo*ooooo", "--string", "1",
                       "--beta", "left", "--chi", "1,1", "--lambda", "-1")
    assert code == 3


@pytest.mark.parametrize("chi", ["1,1", "9,9"])
def test_profile_checks_samples_before_building(capsys, chi):
    # 9,9 does not admit lambda = 1: the usage error still comes first
    code, out, err = run(capsys, "profile", "A11:oo*oo*ooooo", "--string", "1", "--beta", "left",
                         "--chi", chi, "--lambda", "1", "--samples", "1")
    assert (code, out, err) == (2, "", "error: --samples must be at least 2\n")


def test_command_line_caps_the_work(capsys):
    # a rank or a sample count inside the digit cap could ask for hours of
    # work: past its cap each is one usage error line, found before any work
    point = ("A1:o", "--string", "1", "--beta", "left", "--lambda", "1")
    start = time.perf_counter()
    code, out, err = run(capsys, "profile", *point, "--samples", "100000000")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: --samples must be at most {cli.MAX_SAMPLES}\n")
    code, out, err = run(capsys, "profile", *point, "--samples", str(cli.MAX_SAMPLES), "--json")
    assert (code, err, len(json.loads(out)["samples"])) == (0, "", cli.MAX_SAMPLES)
    top = "A{}:*" + "o" * (cli.MAX_RANK - 1)
    code, out, err = run(capsys, "koszul", top.format(cli.MAX_RANK))
    assert (code, err) == (0, "") and out.startswith(f"diagram A{cli.MAX_RANK}:*o")
    start = time.perf_counter()
    code, out, err = run(capsys, "koszul", top.format(cli.MAX_RANK + 1) + "o")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: rank must be at most {cli.MAX_RANK} (at offset 1)\n")


@pytest.mark.parametrize("argv", [
    ("classify", "A1:*", "--m1", "--chi", "1_0"),
    ("classify", "A1:*", "--m1", "--chi", "\u0661"),  # an Arabic-Indic one
    ("classify", "A1:*", "--m1", "--chi", " 1"),
    ("profile", "A1:o", "--string", "1", "--beta", "left", "--lambda", "-1_0/\u0663"),
    ("profile", "A1:o", "--string", "1", "--beta", "left", "--lambda", "1/ 2"),
    ("profile", "A1:o", "--string", "\u0663", "--beta", "left", "--lambda", "1"),
    ("profile", "A1:o", "--string", "1", "--beta", "left", "--lambda", "1", "--samples", "\u0663"),
    ("census", "--family", "A", "--max-rank", "\u0662", "--out", "-"),
    ("census", "--family", "A", "--max-rank", "2.0", "--out", "-"),
    # past the digit cap (the fuzz tests below take the other positions there)
    ("profile", "A1:o", "--string", "1", "--beta", "left", "--lambda", "1", "--samples", "9" * 4301),
], ids=["chi 1_0", "chi arabic 1", "chi space", "lambda -1_0/arabic 3", "lambda space",
        "string arabic 3", "samples arabic 3", "max-rank arabic 2", "max-rank 2.0", "samples 4301 digits"])
def test_numbers_are_ascii(capsys, argv):
    # int() and Fraction() alone read '1_0' as 10 and a non-ASCII decimal digit
    # as its value; every number on the command line is [+-]?[0-9]+ (over
    # [0-9]+ for --lambda), and anything else is one usage error line
    code, out, err = run(capsys, *argv)
    assert (code, out, len(err.splitlines())) == (2, "", 1) and err.startswith("error: "), err


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "classify", "--help")
    assert (code, err) == (0, "") and out.startswith("usage: flagke classify")


def test_profile_accepts_fractions(capsys):
    code, out, _ = run(capsys, "profile", "A1:o", "--string", "1", "--beta", "left",
                       "--chi", "", "--lambda", "1/2", "--samples", "4", "--json")
    assert code == 0
    assert json.loads(out)["lambda"] == "1/2"


def test_profile_wall_ended_domain_reports_without_crashing(capsys):
    # positive constant whose segment ends on a chamber wall: the table is
    # still produced; the final sliver may show a degraded residual
    code, out, _ = run(capsys, "profile", "B6:o**oo*", "--string", "1", "--beta", "left",
                       "--chi", "0,-1,-1", "--lambda", "1", "--samples", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["samples"]) == 8
    assert payload["f_sup"] is not None
    interior = payload["samples"][:-1]
    assert all(abs(row["residual"]) < 1e-8 for row in interior)
    # the last row is (t(f_hi), f_hi), not a second inversion of t(f_hi)
    assert payload["samples"][-1]["f"] == 0.97 * payload["f_sup"]


def test_profile_wall_of_order_21_reaches_its_last_row(capsys):
    # t(f) is flat to 1e-16 at 0.97 f_sup: inverting t_hi again gave t_sup
    code, out, err = run(capsys, "profile", "A9:oo*oooooo", "--m1", "--chi", "-2",
                         "--lambda", "1", "--json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["samples"][-1]["f"] == 0.97 * payload["f_sup"]


# 99 of the 119 pairs of this datum vanish at the wall that ends its domain
A20_WALL = ("A20:ooooooooo*oooooooooo", "--string", "1", "--beta", "left", "--chi", "-1", "--lambda", "1")


def test_profile_wall_of_order_99_raises_no_warning(capsys):
    # tier-1 turns a RuntimeWarning into an error: the wall term J(u_end)/(d Q)
    # is summed in logs, and is +inf only at the wall itself
    code, out, err = run(capsys, "profile", *A20_WALL, "--samples", "5")
    assert (code, err) == (0, "")
    assert len(out.strip().splitlines()) == 3 + 5


@pytest.mark.parametrize("argv", [
    A20_WALL,
    ("B6:o**oo*", "--string", "1", "--beta", "left", "--chi", "0,-1,-1", "--lambda", "1"),
    ("A9:oo*oooooo", "--m1", "--chi", "-2", "--lambda", "1"),
    ("A1:o", "--string", "1", "--beta", "left", "--lambda", "-1"),
    ("D9:*oooooooo", "--m1", "--chi", "16", "--lambda", "0"),
    ("A2:*o", "--m1", "--chi", "-1", "--lambda", "1"),
    # a wall of order 50, where 2K overflows at 0.97 f_sup
    ("D9:oooo*oooo", "--m1", "--chi", "-1", "--lambda", "1"),
], ids=lambda argv: argv[0])
def test_profile_command_runs_under_python_w_error(argv):
    # a fresh interpreter in which every warning is an error: exit 0, nothing
    # on stderr, and every number of the table finite
    env = fresh_env()
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "flagke.cli", "profile", *argv, "--json"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    payload = json.loads(proc.stdout)
    values = [payload["kappa"]] + [row[k] for row in payload["samples"] for k in ("t", "f", "residual")]
    assert len(payload["samples"]) == 64 and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("argv", [
    ("census", "--family", "A", "--max-rank", "7", "--out", "-"),
    ("profile", "A11:oo*oo*ooooo", "--string", "1", "--beta", "left", "--chi", "1,1", "--lambda", "1",
     "--samples", "5000"),
], ids=lambda argv: argv[0])
def test_closed_stdout_exits_1_in_silence(argv):
    # the reader takes one line and closes the pipe (`| head -1`) while the
    # command, with hundreds of kB still to write, is blocked on it: exit 1
    # and nothing on stderr, no traceback
    with subprocess.Popen([sys.executable, "-m", "flagke.cli", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=fresh_env()) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=300), err) == (1, b"")


@pytest.mark.parametrize("argv", [
    ("classify", "B6:o**oo*", "--string", "1", "--beta", "left", "--chi", "-1,1,1"),
    ("profile", "A11:oo*oo*ooooo", "--string", "1", "--beta", "left", "--chi", "3,4",
     "--lambda", "-1/2", "--samples", "8"),
])
def test_option_values_beginning_with_minus(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    joined = []
    for tok in argv:
        if joined and joined[-1] in ("--chi", "--lambda"):
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    assert run(capsys, *joined) == (0, out, err)


@lru_cache(maxsize=None)
def exit_zero_run(key):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["profile", key, "--m1", "--chi=-1", "--lambda", "1", "--json"])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("key", EXIT_ZERO)
def test_exit_zero_profiles_run(key):
    code, out, err = exit_zero_run(key)
    assert code == 0, err
    samples = json.loads(out)["samples"]
    assert len(samples) == 64 and all(abs(row["residual"]) < 1e-8 for row in samples)


def test_exit_zero_profiles_share_t_columns():
    # one normalised problem per exit u_e: the same t(f_hi) within each group
    for group in (("A1:*", "B1:*", "C1:*"), ("A3:*oo", "D3:o*o", "B2:o*", "C2:*o"),
                  ("A5:*oooo", "C3:*oo")):
        columns = []
        for key in group:
            code, out, err = exit_zero_run(key)
            assert code == 0, err
            columns.append([row["t"] for row in json.loads(out)["samples"]])
        for column in columns[1:]:
            assert all(abs(a - b) <= 1e-10 * b for a, b in zip(column, columns[0])), group


def test_classify_full_black_rank_one(capsys):
    code, out, _ = run(capsys, "classify", "A1:*", "--m1", "--chi", "2")
    assert code == 0
    assert "lambda=0  exists=yes" in out
    code, _, _ = run(capsys, "classify", "A2:oo", "--m1", "--chi", "")
    assert code == 3  # degenerate: no black nodes means no character


def test_census_command(tmp_path, capsys):
    out_path = tmp_path / "a.jsonl"
    summary_path = tmp_path / "a.csv"
    code, _, err = run(capsys, "census", "--family", "A", "--max-rank", "3",
                       "--out", str(out_path), "--summary", str(summary_path))
    assert code == 0
    first = out_path.read_bytes()
    assert first
    assert summary_path.read_text().startswith("family,rank")
    code, _, _ = run(capsys, "census", "--family", "A", "--max-rank", "3",
                     "--out", str(out_path))
    assert out_path.read_bytes() == first
    for line in first.decode().splitlines():
        json.loads(line)


@pytest.mark.parametrize("flag", ["--out", "--summary"])
def test_census_reports_unwritable_paths(tmp_path, capsys, flag):
    paths = {"--out": str(tmp_path / "a.jsonl"), "--summary": str(tmp_path / "a.csv")}
    paths[flag] = str(tmp_path / "missing" / "x")
    code, _, err = run(capsys, "census", "--family", "A", "--max-rank", "2",
                       "--out", paths["--out"], "--summary", paths["--summary"])
    assert code == 2
    assert err == f"error: cannot write {paths[flag]}: No such file or directory\n"


def test_census_stdout_and_errors(capsys):
    code, out, err = run(capsys, "census", "--family", "A", "--max-rank", "2", "--out", "-")
    assert code == 0
    assert all(json.loads(line) for line in out.strip().splitlines())
    code, _, _ = run(capsys, "census", "--family", "Q", "--max-rank", "2", "--out", "-")
    assert code == 2
    code, _, _ = run(capsys, "census", "--family", "A", "--max-rank", "99", "--out", "-")
    assert code == 2


def test_census_rank_error_writes_no_file(tmp_path, capsys):
    # the rank bound is checked before the output file is opened
    out_path = tmp_path / "a.jsonl"
    code, _, err = run(capsys, "census", "--family", "A", "--max-rank", "10", "--out", str(out_path))
    assert (code, err) == (2, "error: max_rank must be in 1..9, got 10\n")
    assert not out_path.exists()


def test_census_writes_each_record_before_the_next_is_made(tmp_path, monkeypatch):
    # the census worker of perfbench wraps `census.enumerate_records` the same way
    enumerate_records = cs.enumerate_records
    out, err, lines_before = io.StringIO(), io.StringIO(), []

    def watched(*args):
        for rec in enumerate_records(*args):
            yield rec
            lines_before.append(out.getvalue().count("\n"))

    monkeypatch.setattr(cs, "enumerate_records", watched)
    summary = tmp_path / "b.csv"
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["census", "--family", "B", "--max-rank", "4", "--out", "-", "--summary", str(summary)])
    assert code == 0
    # when record k + 1 is requested (k = 1 .. n), the stream already holds k lines
    assert lines_before == list(range(1, len(lines_before) + 1))
    assert len(out.getvalue().splitlines()) == len(lines_before)
    total = sum(int(row["data"]) for row in csv.DictReader(summary.open(newline="")))
    assert err.getvalue() == f"census: {total} records for family B up to rank 4\n"
    assert total == len(lines_before)


def test_census_command_runs_under_python_w_error(tmp_path, capsys):
    # a fresh interpreter in development mode with every warning an error:
    # stdout is the JSONL of an --out FILE run, stderr the count line alone
    out_path, summary = tmp_path / "b.jsonl", tmp_path / "b.csv"
    assert cli.main(["census", "--family", "B", "--max-rank", "5", "--out", str(out_path)]) == 0
    count_line = capsys.readouterr().err
    env = fresh_env()
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "flagke", "census", "--family", "B",
                           "--max-rank", "5", "--out", "-", "--summary", str(summary)],
                          capture_output=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr.decode()) == (0, count_line)
    assert count_line == "census: 155 records for family B up to rank 5\n"
    assert proc.stdout == out_path.read_bytes()
    assert summary.read_text().startswith("family,rank,")


# The command line as a contract, fuzzed.  Each position takes text from
# digits, signs, separators, a space and non-ASCII digits (a superscript two
# and Arabic-Indic, Devanagari and fullwidth digits).  The run ends with exit
# 0, 2 or 3, or 1 with a numerics error; stderr is empty or one `error:` line
# (and census's summary line on exit 0); and whatever exits 0 was read as the
# value `int` or `Fraction` gives its ASCII text.  Part of the draws are short
# numbers in the grammar, so that exit 0 is reached often.
FUZZ_ALPHABET = "0123456789_+-/.e \u00b2\u0661\u0663\u0966\uff13"
NUMERICS_ERROR = re.compile(r"error: .*(float range|not positive|unresolved|did not converge|not a finite float)")
CAP = cli.MAX_DIGITS
_INTEGER_TEXT = re.compile(f"[+-]?[0-9]{{1,{CAP}}}")
_RATIONAL_TEXT = re.compile(f"[+-]?[0-9]{{1,{CAP}}}(/[0-9]{{1,{CAP}}})?")


def _census_line(text, out, err):
    return err == f"census: {len(out.splitlines())} records for family A up to rank {int(text)}\n"


# position: (argv around the text, the ASCII grammar of a text read at exit 0,
# whether the output shows the value of that text)
FUZZ_POSITIONS = {
    "--chi": (lambda x: ["classify", "A1:*", "--m1", "--chi", x, "--json"], _INTEGER_TEXT,
              lambda x, out, err: json.loads(out)["chi"] == [int(x)]),
    "--lambda": (lambda x: ["profile", "A1:o", "--string", "1", "--beta", "left", "--lambda", x,
                            "--samples", "2", "--json"], _RATIONAL_TEXT,
                 lambda x, out, err: json.loads(out)["lambda"] == str(Fraction(x))),
    "--string": (lambda x: ["classify", "A11:oo*oo*ooooo", "--string", x, "--beta", "left", "--chi", "1,1",
                            "--json"], _INTEGER_TEXT,
                 lambda x, out, err: json.loads(out)["string_start"] == int(x)),
    "diagram": (lambda x: ["koszul", f"A{x}:*", "--json"], re.compile(f"[0-9]{{1,{CAP}}}"),
                lambda x, out, err: json.loads(out)["diagram"] == f"A{int(x)}:*"),
    "--beta": (lambda x: ["classify", "A11:oo*oo*ooooo", "--string", "1", "--beta", x, "--chi", "1,1"],
               None, None),
    "--family": (lambda x: ["census", "--family", x, "--max-rank", "2", "--out", "-"], None, None),
    "subcommand": (lambda x: [x, "A1:*"], None, None),
    # counts: drawn at most 2 characters long, so a run stays small
    "--samples": (lambda x: ["profile", "A1:o", "--string", "1", "--beta", "left", "--lambda", "1",
                             "--samples", x, "--json"], _INTEGER_TEXT,
                  lambda x, out, err: len(json.loads(out)["samples"]) == int(x)),
    "--max-rank": (lambda x: ["census", "--family", "A", "--max-rank", x, "--out", "-"], _INTEGER_TEXT,
                   _census_line),
}


def check_fuzzed_position(position, text):
    argv, grammar, shows = FUZZ_POSITIONS[position]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv(text))
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert grammar is not None and grammar.fullmatch(text) and shows(text, out, err), (position, text)
        assert err == "" or position == "--max-rank", err
        return
    assert code in (2, 3) or code == 1 and NUMERICS_ERROR.match(err), (position, text, code, err)
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ") and err.endswith("\n"), err


@pytest.mark.parametrize("position", ["--chi", "--lambda", "--string", "diagram", "--beta", "--family", "subcommand"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.text(FUZZ_ALPHABET, max_size=12) | st.from_regex(r"[+-]?[0-9]{1,4}(/[0-9]{1,4})?", fullmatch=True))
@example(text="9" * CAP)
@example(text="-" + "9" * CAP)
@example(text="9" * (CAP + 1))
@example(text="1" * 4301)
@example(text="1/" + "9" * (CAP + 1))
def test_fuzzed_argument(position, text):
    check_fuzzed_position(position, text)


@pytest.mark.parametrize("position", ["--samples", "--max-rank"])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.text(FUZZ_ALPHABET, max_size=2))
def test_fuzzed_count(position, text):
    check_fuzzed_position(position, text)
