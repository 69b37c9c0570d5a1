"""Record the reference outputs that the census and chi_sweep checks compare
against.  Run it once, from the root of a checkout of the code whose outputs
are to be the reference:

    python3 perfbench/record_reference.py

It writes perfbench/reference.json: the sha256 of each family's census JSONL
and CSV summary at `inputs.CENSUS_MAX_RANK`, and a verdict digest for every
diagram the chi_sweep generator can draw, so the check holds for any seed.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import inputs
import worker
from run import _sha256

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    worker.import_flagke()
    out_dir = os.path.join(os.path.dirname(HERE), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    census = {}
    for family in inputs.FAMILIES:
        spec = {"family": family, "max_rank": inputs.CENSUS_MAX_RANK,
                "out": os.path.join(out_dir, "ref.jsonl"), "summary": os.path.join(out_dir, "ref.csv")}
        p = worker.Pass()
        worker.census_pass(spec, p, None)
        census[family] = {"jsonl_sha256": _sha256(spec["out"]), "csv_sha256": _sha256(spec["summary"])}
        os.remove(spec["out"])
        os.remove(spec["summary"])
    diagrams = []
    for family in inputs.FAMILIES:
        for rank in inputs.SWEEP_RANKS:
            for k in inputs.SWEEP_BLACK:
                for black in itertools.combinations(range(1, rank + 1), k):
                    starts = inputs.string_starts(family, rank, black)
                    if starts:
                        diagrams.append({"key": inputs.key(family, rank, black), "starts": starts, "k": k})
    p = worker.Pass()
    res = worker.chi_sweep_pass({"diagrams": diagrams, "chi_range": list(inputs.SWEEP_CHI_RANGE)}, p, None)
    if p.failed or len(res["digests"]) != len(diagrams):
        print(f"reference run failed: {p.errors}", file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"census": census, "chi_sweep": res["digests"]}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"census {census}; chi_sweep {len(diagrams)} diagrams, {p.attempted} data")
    return 0


if __name__ == "__main__":
    sys.exit(main())
