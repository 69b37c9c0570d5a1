"""Exhaustive enumeration of admissible data with classification verdicts.

One record per (diagram, bundle datum): rank-one bundles contribute a single
record per diagram with at least one black node; every eligible string
contributes one record per end choice.  Character-dependent verdicts are
reported as symbolic bounds plus the smallest-magnitude integer witness, and
every record is re-validated against the dual-computation cross-checks before
it is emitted.

Records serialise to JSON lines (schema version 1, documented in the README)
with canonical rational encoding ``"p/q"``, so two runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from . import bundle as bd
from . import einstein as es
from . import painted as pd
from . import rootspace as rs
from .errors import ConfigurationError

SCHEMA_VERSION = 1
MAX_RANK_BOUND = 9

def _bound_strs(bounds) -> list[str]:
    return [str(b) for b in bounds]


def _smallest_int_satisfying(op: str, v: Fraction) -> int:
    if op == "<":
        if v > 0:
            return 0
        return int(v) - 1 if v.denominator == 1 else math.floor(v)
    if op == ">":
        if v < 0:
            return 0
        return int(v) + 1 if v.denominator == 1 else math.ceil(v)
    return int(v)


def smallest_witness(bounds) -> tuple[int, ...]:
    """Per-node integer of least magnitude satisfying each strict bound."""
    return tuple(_smallest_int_satisfying(b.op, b.value) for b in bounds)


@dataclass(frozen=True)
class CensusRecord:
    key: str
    m: int
    string_start: Optional[int]
    beta_end: Optional[str]
    black_nodes: tuple[int, ...]
    koszul_numbers: tuple[int, ...]
    zero_exists: bool
    zero_chi: Optional[tuple[int, ...]]
    zero_kappa_sq: Optional[Fraction]
    pos_constraint: tuple[str, ...]
    pos_witness: tuple[int, ...]
    pos_kappa_sq: Fraction
    pos_ray: bool
    neg_constraint: tuple[str, ...]
    neg_witness: tuple[int, ...]
    neg_kappa_sq: Fraction
    neg_ray: bool

    def to_json(self) -> str:
        payload = {
            "version": SCHEMA_VERSION,
            "diagram": self.key,
            "m": self.m,
            "string_start": self.string_start,
            "beta_end": self.beta_end,
            "black_nodes": list(self.black_nodes),
            "koszul_numbers": list(self.koszul_numbers),
            "lambda_zero": {
                "exists": self.zero_exists,
                "required_chi": list(self.zero_chi) if self.zero_chi is not None else None,
                "kappa_sq": rs.frac_str(self.zero_kappa_sq) if self.zero_kappa_sq is not None else None,
            },
            "lambda_pos": {
                "constraint": list(self.pos_constraint),
                "witness_chi": list(self.pos_witness),
                "kappa_sq": rs.frac_str(self.pos_kappa_sq),
                "ray_extends": self.pos_ray,
            },
            "lambda_neg": {
                "constraint": list(self.neg_constraint),
                "witness_chi": list(self.neg_witness),
                "kappa_sq": rs.frac_str(self.neg_kappa_sq),
                "ray_extends": self.neg_ray,
                "complete": self.neg_ray,
            },
        }
        return json.dumps(payload, separators=(",", ":"), sort_keys=False)


def _all_masks(rank: int) -> Iterator[frozenset[int]]:
    for bits in range(1 << rank):
        yield frozenset(i + 1 for i in range(rank) if bits >> i & 1)


def _validated_record(data: bd.AdmissibleData) -> None:
    """Cross-checks every emitted datum must pass."""
    if data.m > 1:
        if bd.kappa_z0_form(data) != bd.kappa_z0_oracle(data):
            raise AssertionError(f"dual-form mismatch for {data}")
        if not bd.koszul_update_check(data):
            raise AssertionError(f"Koszul update relations fail for {data}")


def _record_for(dg: pd.PaintedDiagram,
                string_start: Optional[int],
                beta_end: Optional[str]) -> CensusRecord:
    nodes = tuple(sorted(dg.black))
    template_chi = tuple((0 if string_start is not None else 1) for _ in nodes)
    template = bd.admissible_data(dg, string_start, beta_end, template_chi)
    numbers = pd.koszul(dg).numbers if dg.black else {}
    verdict_any = es.classify(template)

    zero_chi = verdict_any.lambda_zero.required_chi
    if zero_chi is not None:
        data0 = bd.admissible_data(dg, string_start, beta_end, zero_chi)
        _validated_record(data0)
        zero_kappa = bd.kappa(data0)[0]
    else:
        zero_kappa = None

    out = {}
    for tag, bounds in (("pos", verdict_any.lambda_pos.constraint),
                        ("neg", verdict_any.lambda_neg.constraint)):
        witness = smallest_witness(bounds)
        if template.m == 1 and all(k == 0 for k in witness):
            witness = _nonzero_witness(bounds, witness)
        data_w = bd.admissible_data(dg, string_start, beta_end, witness)
        _validated_record(data_w)
        verdict_w = es.classify(data_w)
        if not (verdict_w.lambda_pos if tag == "pos" else verdict_w.lambda_neg).exists:
            raise AssertionError(f"witness {witness} violates its own {tag} bounds for {data_w}")
        out[tag] = (witness, bd.kappa(data_w)[0], verdict_w.ray_extends)

    return CensusRecord(
        key=dg.key(),
        m=template.m,
        string_start=string_start,
        beta_end=beta_end,
        black_nodes=nodes,
        koszul_numbers=tuple(numbers[j] for j in nodes),
        zero_exists=zero_chi is not None,
        zero_chi=zero_chi,
        zero_kappa_sq=zero_kappa,
        pos_constraint=tuple(_bound_strs(verdict_any.lambda_pos.constraint)),
        pos_witness=out["pos"][0],
        pos_kappa_sq=out["pos"][1],
        pos_ray=out["pos"][2],
        neg_constraint=tuple(_bound_strs(verdict_any.lambda_neg.constraint)),
        neg_witness=out["neg"][0],
        neg_kappa_sq=out["neg"][1],
        neg_ray=out["neg"][2],
    )


def _nonzero_witness(bounds, witness: tuple[int, ...]) -> tuple[int, ...]:
    lst = list(witness)
    for i, b in enumerate(bounds):
        cand = lst[i] + 1 if b.op == ">" else lst[i] - 1
        if b.holds(cand):
            lst[i] = cand
            return tuple(lst)
    raise AssertionError("could not perturb witness away from zero")


def enumerate_records(family: str, max_rank: int) -> Iterator[CensusRecord]:
    """All census records of one family up to `max_rank`, in canonical order."""
    if family not in rs.FAMILIES:
        raise ConfigurationError(f"unknown family {family!r}")
    if not 1 <= max_rank <= MAX_RANK_BOUND:
        raise ConfigurationError(f"max_rank must be in 1..{MAX_RANK_BOUND}, got {max_rank}")
    for rank in range(rs.MIN_RANK[family], max_rank + 1):
        alg = rs.Algebra(family, rank)
        masks = sorted(_all_masks(rank), key=lambda b: pd.PaintedDiagram(alg, b).mask())
        for black in masks:
            dg = pd.PaintedDiagram(alg, black)
            if dg.black:
                yield _record_for(dg, None, None)  # m = 1
            for info in bd.eligible_strings(dg):
                for end in ("left", "right"):
                    yield _record_for(dg, info.start, end)


def write_jsonl(records: Iterable[CensusRecord], stream: io.TextIOBase) -> int:
    n = 0
    for rec in records:
        stream.write(rec.to_json())
        stream.write("\n")
        n += 1
    return n


@dataclass(frozen=True)
class SummaryRow:
    family: str
    rank: int
    diagrams: int
    data: int
    zero_admitting: int
    neg_complete: int


def summarize(records: Iterable[CensusRecord]) -> list[SummaryRow]:
    """Per-(family, rank) counts over a record stream."""
    acc: dict[tuple[str, int], dict] = {}
    for rec in records:
        fam, rank = rec.key[0], int(rec.key[1:rec.key.index(":")])
        box = acc.setdefault((fam, rank), {"diagrams": set(), "data": 0, "zero": 0, "negc": 0})
        box["diagrams"].add(rec.key)
        box["data"] += 1
        box["zero"] += rec.zero_exists
        box["negc"] += rec.neg_ray
    return [
        SummaryRow(fam, rank, len(v["diagrams"]), v["data"], v["zero"], v["negc"])
        for (fam, rank), v in sorted(acc.items())
    ]


def write_summary_csv(rows: Iterable[SummaryRow], stream: io.TextIOBase) -> None:
    writer = csv.writer(stream)
    writer.writerow(["family", "rank", "diagrams", "data", "lambda0_admitting", "neg_complete"])
    for r in rows:
        writer.writerow([r.family, r.rank, r.diagrams, r.data, r.zero_admitting, r.neg_complete])
