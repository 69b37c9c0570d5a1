"""Command-line front end.

Subcommands: ``koszul``, ``classify``, ``profile``, ``census``.  Diagrams are
written ``<family><rank>:<mask>`` with ``o`` for white and ``*`` for black,
nodes left to right in index order (D fork tips last).  Diagnostics go to
stderr as one ``error:`` line, argparse's own among them, and the error's kind
sets the exit code: 2 for a parse or usage problem, 3 for a mathematical
domain error, 1 for a numerics failure.  A closed stdout (`| head`) ends the
command silently with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import bundle as bd
from . import census as cs
from . import einstein as es
from . import painted as pd
from . import rootspace as rs
from .errors import DiagramParseError, FlagkeError, UsageError


def parse_diagram(text: str) -> pd.PaintedDiagram:
    """Parse ``<family><rank>:<mask>``; errors carry the byte offset."""
    if not text:
        raise DiagramParseError("empty diagram", 0)
    family = text[0]
    if family not in rs.FAMILIES:
        raise DiagramParseError(f"family must be one of A, B, C, D, got {family!r}", 0)
    colon = text.find(":")
    if colon < 0:
        raise DiagramParseError("missing ':' between rank and mask", len(text))
    rank_text = text[1:colon]
    if not (rank_text.isascii() and rank_text.isdigit()):
        raise DiagramParseError(f"rank must be a positive integer, got {rank_text!r}", 1)
    if len(rank_text) > MAX_DIGITS:
        raise DiagramParseError(f"rank has more than {MAX_DIGITS} digits", 1)
    rank = int(rank_text)
    if rank > MAX_RANK:
        raise DiagramParseError(f"rank must be at most {MAX_RANK}", 1)
    try:
        algebra = rs.Algebra(family, rank)
    except UsageError as exc:
        raise DiagramParseError(str(exc), 1) from exc
    mask = text[colon + 1:]
    if len(mask) != rank:
        raise DiagramParseError(f"mask must have exactly {rank} characters, got {len(mask)}", colon + 1)
    black = set()
    for i, ch in enumerate(mask):
        if ch == "*":
            black.add(i + 1)
        elif ch != "o":
            raise DiagramParseError(f"mask characters must be 'o' or '*', got {ch!r}", colon + 1 + i)
    return pd.PaintedDiagram(algebra, frozenset(black))


# Every number on the command line is ASCII: int() and Fraction() alone also
# read underscores and any Unicode decimal digit ('1_0' as 10, '\u0661' as 1).
# A number has at most MAX_DIGITS digits: Python converts ints of up to 4,300
# digits to and from text, and kappa^2 of a character at the cap has about
# twice as many.
MAX_DIGITS = 2000
# A rank or a sample count inside MAX_DIGITS could still ask for hours of
# work (a command's time grows about as rank^3.6, a profile's with its rows),
# so both have a cap of their own.  The library has none.
MAX_RANK = 64
MAX_SAMPLES = 10_000
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")
_CHI = re.compile(r"([+-]?[0-9]+(,[+-]?[0-9]+)*)?")
_TOO_LONG = re.compile(f"[0-9]{{{MAX_DIGITS + 1}}}")


def _ascii(text: str, grammar: re.Pattern, refusal: str) -> str:
    """text, if `grammar` matches it whole and none of its numbers has more
    than MAX_DIGITS digits; else ArgumentTypeError, which argparse prints
    after the option's name."""
    if not grammar.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{refusal} {text!r}")
    if _TOO_LONG.search(text):
        raise argparse.ArgumentTypeError(f"a number has more than {MAX_DIGITS} digits")
    return text


def _parse_integer(text: str) -> int:
    """The argparse `type=` of an integer option: [+-]?[0-9]+."""
    return int(_ascii(text, _INTEGER, "must be an integer in ASCII digits, got"))


def _parse_rational(text: str) -> Fraction:
    """Exact rational from 'p' or 'p/q', [+-]?[0-9]+(/[0-9]+)?, q > 0; floats are refused."""
    if "." in text or "e" in text.lower():
        raise argparse.ArgumentTypeError(f"exact rational required (use p/q), got {text!r}")
    return Fraction(_ascii(text, _RATIONAL, "cannot parse rational"))


def _parse_chi(text: str) -> tuple[int, ...]:
    """Comma-separated integers, each [+-]?[0-9]+; empty for none."""
    text = _ascii(text, _CHI, "must be a comma-separated integer list, got")
    return tuple(map(int, text.split(","))) if text else ()


def _data_from_args(args) -> bd.AdmissibleData:
    dg = parse_diagram(args.diagram)
    chi = args.chi
    if len(chi) != len(dg.black):
        raise UsageError(f"chi needs {len(dg.black)} entries (one per black node), got {len(chi)}")
    if args.m1:
        if args.string is not None or args.beta is not None:
            raise UsageError("--m1 excludes --string/--beta")
        return bd.admissible_data(dg, None, None, chi)
    if args.string is None or args.beta is None:
        raise UsageError("rank m > 1 needs --string and --beta (or use --m1)")
    return bd.admissible_data(dg, args.string, args.beta, chi)


def _cmd_koszul(args) -> int:
    dg = parse_diagram(args.diagram)
    data = pd.koszul(dg)
    if args.json:
        payload = {
            "diagram": dg.key(),
            "sigma": [str(c) for c in data.sigma.coeffs],
            "koszul_numbers": {str(j): n for j, n in sorted(data.numbers.items())},
        }
        print(json.dumps(payload, indent=None, separators=(",", ":")))
    else:
        print(f"diagram {dg.key()}")
        print("sigma " + " ".join(str(c) for c in data.sigma.coeffs))
        print("koszul " + " ".join(f"n_{j}={n}" for j, n in sorted(data.numbers.items())))
    return 0


def _verdict_payload(data: bd.AdmissibleData, verdict: es.EinsteinVerdict) -> dict:
    end = data.end
    return {
        "diagram": end.s0.key(),
        "m": end.m,
        "string_start": None if end.string is None else end.string.start,
        "beta_end": end.beta_end,
        "chi": list(data.chi),
        "black_nodes": list(end.s0.black_nodes),
        "lambda_zero": {
            "exists": verdict.lambda_zero.exists,
            "required_chi": None if verdict.lambda_zero.required_chi is None
            else list(verdict.lambda_zero.required_chi),
        },
        "lambda_pos": {
            "exists": verdict.lambda_pos.exists,
            "constraint": [str(b) for b in verdict.lambda_pos.constraint],
        },
        "lambda_neg": {
            "exists": verdict.lambda_neg.exists,
            "constraint": [str(b) for b in verdict.lambda_neg.constraint],
            "complete": verdict.lambda_neg.complete,
        },
        "ray_extends": verdict.ray_extends,
        "kappa_sq": str(bd.kappa(data)[0]),
    }


def _cmd_classify(args) -> int:
    data = _data_from_args(args)
    verdict = es.classify(data)
    if args.json:
        print(json.dumps(_verdict_payload(data, verdict), separators=(",", ":")))
        return 0
    end = data.end
    print(f"diagram {end.s0.key()}  m={end.m}"
          + ("" if end.string is None else f"  string@{end.string.start}  beta={end.beta_end}"))
    z = verdict.lambda_zero
    req = "" if z.required_chi is None else "  required_chi=" + ",".join(str(k) for k in z.required_chi)
    print(f"lambda=0  exists={'yes' if z.exists else 'no'}{req}")
    print(f"lambda>0  exists={'yes' if verdict.lambda_pos.exists else 'no'}  "
          + "; ".join(str(b) for b in verdict.lambda_pos.constraint))
    print(f"lambda<0  exists={'yes' if verdict.lambda_neg.exists else 'no'}  "
          + "; ".join(str(b) for b in verdict.lambda_neg.constraint)
          + f"  complete={'yes' if verdict.lambda_neg.complete else 'no'}")
    print(f"ray_extends={'yes' if verdict.ray_extends else 'no'}")
    print(f"kappa_sq={bd.kappa(data)[0]}")
    return 0


def _cmd_profile(args) -> int:
    from . import profile as pf  # numpy loads only where a profile is built

    n = args.samples
    if n < 2:
        raise UsageError("--samples must be at least 2")
    if n > MAX_SAMPLES:
        raise UsageError(f"--samples must be at most {MAX_SAMPLES}")
    data = _data_from_args(args)
    lam = args.lam
    prof = pf.metric_profile(data, lam)
    f_hi = 0.97 * prof.f_sup if math.isfinite(prof.f_sup) else 8.0 * prof.kappa
    t_hi = pf.t_of_f(prof, f_hi)
    # the last row is the pair (t_hi, f_hi) itself: inverting t_hi again can
    # land on t_sup in floating point, or stall where t(f) is flat near a wall
    points = [(t, pf.f_of_t(prof, t)) for t in (t_hi * i / (n - 1) for i in range(n - 1))]
    points.append((t_hi, f_hi))
    rows = [(t, f, pf.residual_at(prof, f)) for t, f in points]
    if args.json:
        payload = {
            "diagram": data.end.s0.key(),
            "m": data.end.m,
            "lambda": str(lam),
            "kappa": prof.kappa,
            "kappa_sq": str(prof.kappa_sq),
            "f_sup": None if not math.isfinite(prof.f_sup) else prof.f_sup,
            "d": prof.d,
            "samples": [{"t": t, "f": f, "residual": r} for t, f, r in rows],
        }
        print(json.dumps(payload, separators=(",", ":")))
        return 0
    print(f"diagram {data.end.s0.key()}  m={data.end.m}  lambda={lam}")
    print(f"kappa={prof.kappa:.12g}  kappa_sq={prof.kappa_sq}  "
          f"f_sup={'inf' if not math.isfinite(prof.f_sup) else format(prof.f_sup, '.12g')}  d={prof.d}")
    print(f"{'t':>18} {'f(t)':>18} {'residual':>12}")
    for t, f, r in rows:
        print(f"{t:18.12g} {f:18.12g} {r:12.3e}")
    return 0


def _write_file(path: str, write, **open_args):
    """Return write(stream) on a new file at path; an OSError is a usage error."""
    try:
        with open(path, "w", encoding="utf-8", **open_args) as fh:
            return write(fh)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_census(args) -> int:
    records = cs.enumerate_records(args.family, args.max_rank)
    if args.out == "-":
        rows = cs.write_jsonl(records, sys.stdout)
    else:
        rows = _write_file(args.out, lambda fh: cs.write_jsonl(records, fh))
    if args.summary:
        _write_file(args.summary, lambda fh: cs.write_summary_csv(rows, fh), newline="")
    print(f"census: {sum(row.data for row in rows)} records for family {args.family} "
          f"up to rank {args.max_rank}", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with the package's one error path: a malformed command line
    (a missing or unknown option, a bad choice, a failing `type=`) raises
    UsageError, which `main` prints as one `error:` line, exit code 2."""

    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flagke",
        description="Kaehler-Einstein existence tests and metric profiles for "
                    "homogeneous bundles over classical flag manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("koszul", help="Koszul form and numbers of a painted diagram")
    p.add_argument("diagram")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_koszul)

    def add_data_args(q):
        q.add_argument("diagram")
        q.add_argument("--string", type=_parse_integer, default=None,
                       help="least node index of the white string (m > 1)")
        q.add_argument("--beta", choices=("left", "right"), default=None)
        q.add_argument("--m1", action="store_true", help="rank-one bundle: no string")
        q.add_argument("--chi", type=_parse_chi, default=(), help="comma-separated integers, one per black node")
        q.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="Einstein existence verdict for a bundle datum")
    add_data_args(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("profile", help="sampled profile f(t) of an admitted datum")
    add_data_args(p)
    p.add_argument("--lambda", dest="lam", type=_parse_rational, required=True,
                   help="Einstein constant, exact p/q")
    p.add_argument("--samples", type=_parse_integer, default=64)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("census", help="enumerate and classify all data of a family")
    p.add_argument("--family", required=True, choices=rs.FAMILIES)
    p.add_argument("--max-rank", type=_parse_integer, required=True)
    p.add_argument("--out", required=True, help="output JSONL path, or - for stdout")
    p.add_argument("--summary", default=None, help="optional CSV summary path")
    p.set_defaults(func=_cmd_census)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    # argparse reads "-1,1,1" or "-1/2" as an option: attach such a value to its flag
    tokens: list[str] = []
    for tok in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] in ("--chi", "--lambda") and tok[:1] == "-" and tok[1:2].isdigit():
            tokens[-1] += "=" + tok
        else:
            tokens.append(tok)
    try:
        try:
            args = parser.parse_args(tokens)
        except SystemExit:  # --help, printed
            return 0
        status = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # stdout's reader is gone (`| head`): point stdout at devnull, so the
        # interpreter's final flush of what is still buffered does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except FlagkeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
