"""Replay the committed command-line corpus (`tests/record_cli_corpus.py`):
every command's exit code and stderr are as recorded, and so is its stdout,
by sha256, or for a successful `profile` by its header lines and its numbers
to 1e-12 relative."""

import json
import math

import pytest

from record_cli_corpus import CORPUS, COMMANDS, entry

ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_the_corpus_is_the_recorders_command_list():
    assert [e["argv"] for e in ENTRIES] == [list(argv) for argv in COMMANDS]


def test_the_corpus_covers_every_subcommand_format_and_exit_code():
    shapes = {(e["argv"][0], "--json" in e["argv"]) for e in ENTRIES if e["argv"]}
    assert shapes >= {(cmd, fmt) for cmd in ("koszul", "classify", "profile", "census") for fmt in (False, True)}
    assert {e["exit"] for e in ENTRIES} == {0, 1, 2, 3}
    # every failure is one `error:` line; census's summary line is its only other stderr
    for e in ENTRIES:
        lines = e["stderr"].splitlines()
        if e["exit"]:
            assert len(lines) == 1 and lines[0].startswith("error: "), e["argv"][:6]
        else:
            assert not lines or e["argv"][0] == "census" and lines[0].startswith("census: "), e["argv"][:6]


@pytest.mark.parametrize("recorded", ENTRIES, ids=[f"{i}-{' '.join(e['argv'])[:60]}" for i, e in enumerate(ENTRIES)])
def test_command_replays_as_recorded(recorded):
    got = entry(tuple(recorded["argv"]))
    assert (got["exit"], got["stderr"]) == (recorded["exit"], recorded["stderr"])
    if "stdout_sha256" in recorded:
        assert got.get("stdout_sha256") == recorded["stdout_sha256"]
        return
    assert got["header"] == recorded["header"]
    assert len(got["rows"]) == len(recorded["rows"])
    for row, want in zip(got["rows"], recorded["rows"]):
        # the residual is an absolute rounding defect: it may sit at 0 or at 1e-16
        assert all(math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12 if k == 2 else 0.0)
                   for k, (x, y) in enumerate(zip(row, want))), (row, want)
