"""Record the command-line corpus, `tests/data/cli_corpus.json`.

Each entry holds a command's argv, its exit code and its stderr.  A
successful `profile` holds its header lines and its table as numbers, which
`tests/test_cli_corpus.py` compares to 1e-12 relative; every other command
holds the sha256 of its stdout.  The commands run in process through
`flagke.cli.main`, in a fresh temporary directory, so that relative output
paths resolve there.

    PYTHONPATH=src python tests/record_cli_corpus.py [OUT]

Re-record only for a declared change of the command line's output: the diff
of the corpus is then that change, command by command.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus.json"

A11 = ("A11:oo*oo*ooooo", "--string", "1", "--beta", "left")
A1_POINT = ("A1:o", "--string", "1", "--beta", "left")

COMMANDS = [
    # koszul: results, plain and --json
    *[(("koszul", key) + fmt)
      for key in ("A11:oo*oo*ooooo", "B3:*oo", "C4:*oo*", "D5:o*oo*", "D4:oo**", "A1:*")
      for fmt in ((), ("--json",))],
    # koszul: domain, parse and argparse errors
    ("koszul", "A3:ooo"),
    ("koszul", "A3:ooo", "--json"),
    ("koszul", "A3:oox"),
    ("koszul", "A²:*"),
    ("koszul", "D2:oo"),
    ("koszul", ""),
    ("koszul",),
    ("koszul", "A1:*", "--bogus"),
    # classify: results, plain and --json
    *[(("classify",) + argv + fmt)
      for argv in (A11 + ("--chi", "2,3"),
                   ("A11:oo*oo*ooooo", "--string", "7", "--beta", "right", "--chi", "1,1"),
                   ("B3:*oo", "--m1", "--chi", "5"),
                   ("B6:o**oo*", "--string", "1", "--beta", "left", "--chi", "-1,1,1"),
                   ("D4:o**o", "--string", "4", "--beta", "right", "--chi=-1,1"),
                   ("A1:*", "--m1", "--chi", "3" + "0" * 155))
      for fmt in ((), ("--json",))],
    # classify: usage, number, argparse and domain errors
    ("classify", "A11:oo*oo*ooooo", "--chi", "2,3"),
    ("classify", *A11, "--chi", "2"),
    ("classify", "A11:oo*oo*ooooo", "--m1", "--string", "1", "--beta", "left", "--chi", "2,3"),
    ("classify", "A11:oo*oo*ooooo", "--string", "2", "--beta", "left", "--chi", "1,1"),
    ("classify", *A11, "--chi", "1,x"),
    ("classify", "A1:*", "--m1", "--chi", "1_0"),
    ("classify", "A1:*", "--m1", "--chi", "١", "--json"),
    ("classify", "A1:*", "--m1", "--chi", "-x"),
    ("classify", "A1:*", "--m1", "--chi", "1", "--bogus"),
    ("classify", *A11[:3], "--beta", "up", "--chi", "1,1"),
    ("classify", "A2:oo", "--m1", "--chi", ""),
    # profile: results, plain and --json
    *[(("profile",) + argv + fmt)
      for argv in (A1_POINT + ("--lambda", "-1", "--samples", "6"),
                   A11 + ("--chi", "1,1", "--lambda", "1", "--samples", "8"),
                   A11 + ("--chi", "3,4", "--lambda", "-1/2", "--samples", "8"),
                   ("B6:o**oo*", "--string", "1", "--beta", "left", "--chi", "0,-1,-1", "--lambda", "1",
                    "--samples", "8"),
                   ("A1:*", "--m1", "--chi=-1", "--lambda", "1", "--samples", "6"),
                   ("D9:*oooooooo", "--m1", "--chi", "16", "--lambda", "0", "--samples", "5"))
      for fmt in ((), ("--json",))],
    ("profile", *A1_POINT, "--lambda", "1/2", "--samples", "4", "--json"),
    # profile: usage, number, argparse, domain and numerics errors
    ("profile", *A1_POINT, "--lambda", "0.5"),
    ("profile", *A1_POINT, "--lambda", "1/0"),
    ("profile", *A1_POINT, "--lambda", "-1_0/٣"),
    ("profile", *A1_POINT, "--lambda", "1", "--samples", "٣"),
    ("profile", *A1_POINT, "--lambda", "1", "--samples", "1"),
    ("profile", *A1_POINT),
    ("profile", *A1_POINT[:3], "--beta", "up", "--lambda", "1"),
    ("profile", *A11, "--chi", "1,1", "--lambda", "-1"),
    ("profile", *A11, "--chi", "1,1", "--lambda", "-1", "--json"),
    ("profile", "A1:*", "--m1", "--chi", "-1", "--lambda", "1" + "0" * 320),
    ("profile", "A1:*", "--m1", "--chi", "-1", "--lambda", "1" + "0" * 320, "--json"),
    ("profile", "A1:*", "--m1", "--chi", "-1" + "0" * 200, "--lambda", "1"),
    # census: results (it has no --json) and usage, argparse and write errors
    ("census", "--family", "A", "--max-rank", "3", "--out", "-"),
    ("census", "--family", "B", "--max-rank", "4", "--out", "-"),
    ("census", "--family", "C", "--max-rank", "3", "--out", "-", "--summary", "c.csv"),
    ("census", "--family", "D", "--max-rank", "4", "--out", "d.jsonl"),
    ("census", "--family", "A", "--max-rank", "2", "--out", "-", "--json"),
    ("census", "--family", "Q", "--max-rank", "2", "--out", "-"),
    ("census", "--family", "A", "--out", "-"),
    ("census", "--family", "A", "--max-rank", "10", "--out", "-"),
    ("census", "--family", "A", "--max-rank", "٢", "--out", "-"),
    ("census", "--family", "A", "--max-rank", "2", "--out", "missing/a.jsonl"),
    ("census", "--family", "A", "--max-rank", "2", "--out", "-", "--summary", "missing/a.csv"),
    # no subcommand, an unknown one
    (),
    ("frobnicate",),
    # numbers past the digit cap, and kappa^2 printed at it
    ("classify", "A1:*", "--m1", "--chi", "9" * 2000),
    ("classify", "A1:*", "--m1", "--chi", "1" * 2200),
    ("classify", "A1:*", "--m1", "--chi", "1" * 4301),
    ("profile", *A1_POINT, "--lambda", "1" * 4301),
    ("koszul", "A" + "1" * 4400 + ":*"),
    # a rank and a sample count past their caps
    ("koszul", "A65:*" + "o" * 64),
    ("profile", *A1_POINT, "--lambda", "1", "--samples", "100000000"),
]


def run(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `flagke argv`, in process."""
    from flagke import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def profile_table(stdout: str) -> tuple[list[str], list[list[float]]]:
    """The header lines of a `profile` table and its rows (t, f, residual)
    as numbers; for --json the header is the payload without its samples."""
    if stdout.startswith("{"):
        payload = json.loads(stdout)
        samples = payload.pop("samples")
        return [json.dumps(payload)], [[row["t"], row["f"], row["residual"]] for row in samples]
    lines = stdout.splitlines()
    return lines[:3], [[float(x) for x in line.split()] for line in lines[3:]]


def entry(argv) -> dict:
    """The corpus entry of one command, run in a fresh temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            code, out, err = run(argv)
        finally:
            os.chdir(cwd)
    record = {"argv": list(argv), "exit": code, "stderr": err}
    if argv[:1] == ("profile",) and code == 0:
        record["header"], record["rows"] = profile_table(out)
    else:
        record["stdout_sha256"] = hashlib.sha256(out.encode()).hexdigest()
    return record


def main(path: str = str(CORPUS)) -> None:
    entries = [entry(tuple(argv)) for argv in COMMANDS]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    # one entry a line, so that a re-recording diffs command by command
    lines = ",\n".join(json.dumps(e, ensure_ascii=False) for e in entries)
    Path(path).write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
