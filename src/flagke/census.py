"""Exhaustive enumeration of admissible data with classification verdicts.

One record per (diagram, bundle datum): rank-one bundles contribute a single
record per diagram with at least one black node; every eligible string
contributes one record per end choice.  Character-dependent verdicts are
reported as symbolic bounds plus the smallest-magnitude integer witness.
Before a record is emitted its witnesses are checked against their bounds'
exact values, not the edges that built them, and for m > 1 its `bundle.End`
against the Koszul update relations, which do not depend on chi; the dual
forms of xi_0 were checked when `bundle.end_of` built that `End`.

Each record is the schema-1 JSON object itself (documented in the README): a
dict in the schema's field order, its rationals canonical ``"p/q"`` text, so
`write_jsonl` dumps it as it is made and two runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from typing import Iterable, Iterator, NamedTuple, Optional

from . import bundle as bd
from . import einstein as es
from . import painted as pd
from . import rootspace as rs
from .errors import UsageError

SCHEMA_VERSION = 1
MAX_RANK_BOUND = 9
# one encoder for every record, where json.dumps builds one per call; a record holds no cycles
_to_json = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def smallest_witness(bounds) -> tuple[int, ...]:
    """Per-node integer of least magnitude satisfying each strict bound: 0 when
    it does, else the bound's edge, the admissible integer nearest 0."""
    return tuple(0 if b.holds(0) else b.edge for b in bounds)


def _record_for(dg: pd.PaintedDiagram,
                string_start: Optional[int],
                beta_end: Optional[str]) -> dict:
    end = bd.end_of(dg, string_start, beta_end)
    crit = es.criterion(end)
    zero_chi = crit.required_chi
    zero_kappa = None if zero_chi is None else bd.kappa(bd.AdmissibleData(end, zero_chi))[0]
    rec = {
        "version": SCHEMA_VERSION,
        "diagram": dg.key(),
        "m": end.m,
        "string_start": string_start,
        "beta_end": beta_end,
        "black_nodes": dg.black_nodes,
        "koszul_numbers": crit.numbers,
        "lambda_zero": {
            "exists": zero_chi is not None,
            "required_chi": zero_chi,
            "kappa_sq": None if zero_kappa is None else str(zero_kappa),
        },
    }
    for tag, bounds in (("pos", crit.pos), ("neg", crit.neg)):
        witness = smallest_witness(bounds)
        if string_start is None and not any(witness):
            witness = _nonzero_witness(bounds, witness)
        data = bd.AdmissibleData(end, witness)
        for b, k in zip(bounds, witness):
            p, q = b.value.as_integer_ratio()
            if not (k * q < p if b.op == "<" else k * q > p):
                raise AssertionError(f"witness {witness} violates its own {tag} bounds for {data}")
        rec["lambda_" + tag] = {
            "constraint": tuple(map(str, bounds)),
            "witness_chi": witness,
            "kappa_sq": str(bd.kappa(data)[0]),
            "ray_extends": es.satisfied(crit.ray, witness),
        }
    rec["lambda_neg"]["complete"] = rec["lambda_neg"]["ray_extends"]
    # the update relations do not depend on chi: the record's End checks them
    if string_start is not None and not bd.koszul_update_check(end):
        raise AssertionError(f"Koszul update relations fail for {end}")
    return rec


def _nonzero_witness(bounds, witness: tuple[int, ...]) -> tuple[int, ...]:
    lst = list(witness)
    for i, b in enumerate(bounds):
        cand = lst[i] + 1 if b.op == ">" else lst[i] - 1
        if b.holds(cand):
            lst[i] = cand
            return tuple(lst)
    raise AssertionError("could not perturb witness away from zero")


def enumerate_records(family: str, max_rank: int) -> Iterator[dict]:
    """All census records of one family up to `max_rank`, in canonical order,
    each the schema-1 object; the arguments are checked at the call."""
    if family not in rs.FAMILIES:
        raise UsageError(f"unknown family {family!r}")
    if not 1 <= max_rank <= MAX_RANK_BOUND:
        raise UsageError(f"max_rank must be in 1..{MAX_RANK_BOUND}, got {max_rank}")
    return _records(family, max_rank)


def _records(family: str, max_rank: int) -> Iterator[dict]:
    for rank in range(rs.MIN_RANK[family], max_rank + 1):
        alg = rs.Algebra(family, rank)
        for mask in itertools.product("*o", repeat=rank):  # '*' < 'o': masks in sorted order
            dg = pd.PaintedDiagram(alg, frozenset(i for i, c in enumerate(mask, start=1) if c == "*"))
            if dg.black:
                yield _record_for(dg, None, None)  # m = 1
            for info in bd.eligible_strings(dg):
                for end in ("left", "right"):
                    yield _record_for(dg, info.start, end)


def write_jsonl(records: Iterable[dict], stream: io.TextIOBase) -> list[SummaryRow]:
    """Write each record as one JSON line as soon as `records` yields it, and
    return the `summarize` rows of the records written, counted in the same
    pass: no record is held after its line is written."""
    def written() -> Iterator[dict]:
        for rec in records:
            stream.write(_to_json(rec) + "\n")
            yield rec
    return summarize(written())


class SummaryRow(NamedTuple):
    """One (family, rank) line of the summary CSV; the field names are its header."""
    family: str
    rank: int
    diagrams: int
    data: int
    lambda0_admitting: int
    neg_complete: int


def summarize(records: Iterable[dict]) -> list[SummaryRow]:
    """Per-(family, rank) counts over a record stream."""
    acc: dict[tuple[str, int], dict] = {}
    for rec in records:
        key = rec["diagram"]
        box = acc.setdefault((key[0], int(key[1:key.index(":")])),
                             {"diagrams": set(), "data": 0, "zero": 0, "negc": 0})
        box["diagrams"].add(key)
        box["data"] += 1
        box["zero"] += rec["lambda_zero"]["exists"]
        box["negc"] += rec["lambda_neg"]["ray_extends"]
    return [
        SummaryRow(fam, rank, len(v["diagrams"]), v["data"], v["zero"], v["negc"])
        for (fam, rank), v in sorted(acc.items())
    ]


def write_summary_csv(rows: Iterable[SummaryRow], stream: io.TextIOBase) -> None:
    writer = csv.writer(stream)
    writer.writerow(SummaryRow._fields)
    writer.writerows(rows)
