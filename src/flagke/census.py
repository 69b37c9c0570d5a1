"""Exhaustive enumeration of admissible data with classification verdicts.

One record per (diagram, bundle datum): rank-one bundles contribute a single
record per diagram with at least one black node; every eligible string
contributes one record per end choice.  Character-dependent verdicts are
reported as symbolic bounds plus the smallest-magnitude integer witness.
Before a record is emitted its witnesses are checked against their bounds
and its datum against the Koszul update relations; the dual forms of xi_0
were checked when `bundle.end_of` built the record's `End`.

Records serialise to JSON lines (schema version 1, documented in the README)
with canonical rational encoding ``"p/q"``, so two runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
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


def smallest_witness(bounds) -> tuple[int, ...]:
    """Per-node integer of least magnitude satisfying each strict bound: 0 when
    it does, else the bound's edge, the admissible integer nearest 0."""
    return tuple(0 if b.holds(0) else b.edge for b in bounds)


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


def _record_for(dg: pd.PaintedDiagram,
                string_start: Optional[int],
                beta_end: Optional[str]) -> CensusRecord:
    end = bd.end_of(dg, string_start, beta_end)
    crit = es.criterion(end)
    zero_chi = crit.required_chi
    zero_kappa = None if zero_chi is None else bd.kappa(bd.AdmissibleData(end, zero_chi))[0]

    out = {}
    for tag, bounds in (("pos", crit.pos), ("neg", crit.neg)):
        witness = smallest_witness(bounds)
        if string_start is None and not any(witness):
            witness = _nonzero_witness(bounds, witness)
        data = bd.AdmissibleData(end, witness)
        if not es.satisfied(bounds, witness):
            raise AssertionError(f"witness {witness} violates its own {tag} bounds for {data}")
        out[tag] = (witness, bd.kappa(data)[0], es.satisfied(crit.ray, witness))
    # the update relations do not depend on chi: one datum of the record checks them
    if string_start is not None and not bd.koszul_update_check(data):
        raise AssertionError(f"Koszul update relations fail for {data}")

    return CensusRecord(
        key=dg.key(),
        m=end.m,
        string_start=string_start,
        beta_end=beta_end,
        black_nodes=dg.black_nodes,
        koszul_numbers=crit.numbers,
        zero_exists=zero_chi is not None,
        zero_chi=zero_chi,
        zero_kappa_sq=zero_kappa,
        pos_constraint=tuple(str(b) for b in crit.pos),
        pos_witness=out["pos"][0],
        pos_kappa_sq=out["pos"][1],
        pos_ray=out["pos"][2],
        neg_constraint=tuple(str(b) for b in crit.neg),
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
        for mask in itertools.product("*o", repeat=rank):  # '*' < 'o': masks in sorted order
            dg = pd.PaintedDiagram(alg, frozenset(i for i, c in enumerate(mask, start=1) if c == "*"))
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
