import copy
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import flagke
from flagke import bundle as bd, census as cs, cli, diagram, einstein as es, profile as pf
from flagke.errors import UsageError

from conftest import automorphism_image, diagram_automorphism, kappa_sq_oracle


def jsonl_of(family, max_rank):
    buf = io.StringIO()
    cs.write_jsonl(cs.enumerate_records(family, max_rank), buf)
    return buf.getvalue()


def test_two_runs_are_byte_identical():
    assert jsonl_of("A", 3) == jsonl_of("A", 3)
    assert jsonl_of("D", 4) == jsonl_of("D", 4)


def independent_count(family, rank):
    """Count (mask, string, end) pairs plus rank-one entries, straight from
    the component combinatorics and independent of bundle.eligible_strings."""
    total = 0
    for bits in range(1 << rank):
        black = {i + 1 for i in range(rank) if bits >> i & 1}
        white = [i for i in range(1, rank + 1) if i not in black]
        # connected white components of the path/fork graph
        comps = []
        if family == "D":
            adj = {i: {i + 1} for i in range(1, rank - 1)}
            adj[rank - 2].add(rank)
            nodes = set(white)
            seen = set()
            for start in white:
                if start in seen:
                    continue
                comp, stack = set(), [start]
                while stack:
                    v = stack.pop()
                    if v in comp:
                        continue
                    comp.add(v)
                    for u in range(1, rank + 1):
                        if u in nodes and (u in adj.get(v, ()) or v in adj.get(u, ())):
                            stack.append(u)
                seen |= comp
                comps.append(comp)
        else:
            run = []
            for i in range(1, rank + 1):
                if i in black:
                    if run:
                        comps.append(set(run))
                    run = []
                else:
                    run.append(i)
            if run:
                comps.append(set(run))
        eligible = 0
        for comp in comps:
            if family in ("B", "C") and rank in comp:
                continue
            if family == "D" and {rank - 1, rank} <= comp:
                continue
            eligible += 1
        total += 2 * eligible + (1 if black else 0)
    return total


def test_record_count_matches_independent_combinatorics():
    for family, max_rank in (("A", 4), ("B", 4), ("C", 4), ("D", 4)):
        got = sum(1 for _ in cs.enumerate_records(family, max_rank))
        minr = {"A": 1, "B": 1, "C": 1, "D": 3}[family]
        want = sum(independent_count(family, r) for r in range(minr, max_rank + 1))
        assert got == want, (family, got, want)


def test_a3_summary_matches_hand_enumeration():
    records = [r for r in cs.enumerate_records("A", 3) if r["diagram"].startswith("A3:")]
    rows = [r for r in cs.summarize(records)]
    assert len(rows) == 1
    row = rows[0]
    # 8 masks; 23 data (7 rank-one + 16 string records); the Ricci-flat ones
    # are the 7 rank-one records, the 2 point-orbit records and the 4
    # records of the two single-node strings of o*o
    assert row.family == "A" and row.rank == 3
    assert row.diagrams == 8
    assert row.data == 23
    assert row.lambda0_admitting == 13
    assert row.neg_complete == 23


# the field order of the README's schema table: a record's keys, then each block's
SCHEMA_KEYS = {
    None: ["version", "diagram", "m", "string_start", "beta_end", "black_nodes", "koszul_numbers",
           "lambda_zero", "lambda_pos", "lambda_neg"],
    "lambda_zero": ["exists", "required_chi", "kappa_sq"],
    "lambda_pos": ["constraint", "witness_chi", "kappa_sq", "ray_extends"],
    "lambda_neg": ["constraint", "witness_chi", "kappa_sq", "ray_extends", "complete"],
}


def test_records_validate_and_fields():
    records = list(cs.enumerate_records("B", 3))
    assert records, "no records enumerated"
    for rec in records:
        assert rec["lambda_neg"]["ray_extends"]  # an admitted negative constant always extends
        for block, keys in SCHEMA_KEYS.items():
            assert list(rec if block is None else rec[block]) == keys, block
        payload = json.loads(json.dumps(rec))
        assert payload["version"] == cs.SCHEMA_VERSION
        assert payload["diagram"].startswith("B")
        assert len(payload["koszul_numbers"]) == len(payload["black_nodes"])
        if rec["m"] == 1:
            assert payload["string_start"] is None
            assert payload["lambda_zero"]["exists"]
            assert any(payload["lambda_pos"]["witness_chi"])
        if payload["lambda_zero"]["exists"]:
            assert payload["lambda_zero"]["kappa_sq"] is not None


def test_zero_witness_reproduces_divisibility():
    for rec in cs.enumerate_records("A", 4):
        if rec["m"] > 1:
            divisible = all(n % rec["m"] == 0 for n in rec["koszul_numbers"])
            assert rec["lambda_zero"]["exists"] == divisible


def test_smallest_witness():
    mk = lambda op, v: es.Bound(1, op, Fraction(v))  # noqa: E731
    assert cs.smallest_witness([mk("<", 2)]) == (0,)
    assert cs.smallest_witness([mk("<", Fraction(-3, 2))]) == (-2,)
    assert cs.smallest_witness([mk("<", -2)]) == (-3,)
    assert cs.smallest_witness([mk(">", Fraction(-5, 3))]) == (0,)
    assert cs.smallest_witness([mk(">", 2)]) == (3,)
    assert cs.smallest_witness([mk(">", Fraction(5, 3))]) == (2,)


def _image_text(text, perm, mirror):
    """The bound text ``k_j op v`` with j relabelled by `perm`, and read
    through k -> -k (op flipped, v negated) when `mirror`."""
    node, op, value = text.split(" ")
    if mirror:
        op = {"<": ">", ">": "<"}[op]
        if value != "0":
            value = value[1:] if value.startswith("-") else "-" + value
    return f"k_{perm[int(node[2:])]} {op} {value}"


@pytest.mark.parametrize("family, ranks", [("A", range(1, 8)), ("D", range(4, 8))], ids="AD")
def test_diagram_automorphisms_map_every_end_to_its_image(family, ranks):
    # the A flip and the D fork swap map each datum to one that the code
    # builds separately, on other nodes, epsilon coordinates and path
    # positions: its bounds, Koszul numbers, lambda = 0 character, kappa^2 and
    # root pairs are the record's, relabelled.  The census witness breaks
    # ties by node order, so kappa^2 is compared at the image of the witness
    records = {(rec["diagram"], rec["string_start"], rec["beta_end"]): rec
               for rec in cs.enumerate_records(family, ranks[-1])
               if cli.parse_diagram(rec["diagram"]).algebra.rank in ranks}
    for (key, start, beta), rec in records.items():
        s0 = cli.parse_diagram(key)
        perm = diagram_automorphism(s0.algebra)
        image_s0, image_start, image_beta, _ = automorphism_image(s0, start, beta, (0,) * len(s0.black))
        image = records[image_s0.key(), image_start, image_beta]
        label = (key, start, beta)
        for tag in ("lambda_pos", "lambda_neg"):
            moved = sorted((_image_text(text, perm, image_beta != beta) for text in rec[tag]["constraint"]),
                           key=lambda text: int(text[2:text.index(" ")]))
            assert moved == list(image[tag]["constraint"]), (label, tag)
        numbers = {perm[j]: n for j, n in zip(rec["black_nodes"], rec["koszul_numbers"])}
        assert numbers == dict(zip(image["black_nodes"], image["koszul_numbers"])), label
        zero_chi = rec["lambda_zero"]["required_chi"]
        image_zero = None if zero_chi is None else automorphism_image(s0, start, beta, zero_chi)[3]
        assert image_zero == image["lambda_zero"]["required_chi"], label
        witnesses = [(1, rec["lambda_pos"]), (-1, rec["lambda_neg"])]
        if zero_chi is not None:
            witnesses.append((0, {"witness_chi": zero_chi, "kappa_sq": rec["lambda_zero"]["kappa_sq"]}))
        for lam, block in witnesses:
            data = bd.admissible_data(s0, start, beta, block["witness_chi"])
            moved = bd.admissible_data(*automorphism_image(s0, start, beta, block["witness_chi"]))
            assert str(bd.kappa(moved)[0]) == block["kappa_sq"], (label, lam)
            # lambda = 0 at the face point, the sum of the black fundamental
            # weights, which the automorphism fixes
            pairs = [sorted(pf.metric_profile(d, lam).pairs) for d in (data, moved)]
            assert pairs[0] == pairs[1], (label, lam)


@pytest.mark.parametrize("family", "ABCD")
def test_every_kappa_sq_is_the_gram_form_in_chi(family):
    # kappa^2 = chi^T G chi + (m - 1)/(2cm), with G the Gram matrix of the
    # black fundamental weights from the inverse Cartan matrix and the
    # closed-form Killing constant: no production weight, table or pairing.
    # Every kappa^2 of every record up to rank 7 (the lambda = 0 character
    # and both witnesses)
    checked = 0
    for rec in cs.enumerate_records(family, 7):
        s0 = cli.parse_diagram(rec["diagram"])
        zero = rec["lambda_zero"]
        pairs = [(block["witness_chi"], block["kappa_sq"]) for block in (rec["lambda_pos"], rec["lambda_neg"])]
        pairs += [(zero["required_chi"], zero["kappa_sq"])] if zero["exists"] else []
        for chi, kappa_sq in pairs:
            want = kappa_sq_oracle(s0, rec["m"], chi)
            assert Fraction(kappa_sq) == want, (rec["diagram"], rec["string_start"], rec["beta_end"], chi)
            checked += 1
    assert checked > 1000


def test_summary_is_permutation_invariant():
    records = list(cs.enumerate_records("A", 3))
    shuffled = records[:]
    random.Random(9).shuffle(shuffled)
    assert cs.summarize(records) == cs.summarize(shuffled)


def test_summary_csv():
    rows = cs.summarize(cs.enumerate_records("A", 2))
    buf = io.StringIO()
    cs.write_summary_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "family,rank,diagrams,data,lambda0_admitting,neg_complete"
    assert len(lines) == 1 + len(rows)


def test_enumerate_validation():
    with pytest.raises(UsageError, match="unknown family"):
        list(cs.enumerate_records("E", 3))
    with pytest.raises(UsageError, match=r"max_rank must be in 1\.\.9"):
        list(cs.enumerate_records("A", 12))


# sha256 of the JSONL and the summary CSV that `flagke census --family F
# --max-rank R` writes, for R = 6, 7 and 9 (the rank-7 values are those of
# perfbench/reference.json).  Schema v1 output must stay byte-identical: a
# deliberate change bumps SCHEMA_VERSION and records these again.
CENSUS_SHA256 = {
    ("A", 6): ("5a231f453835edc20785dc89585055dace167e4065b309d9e66395d0c6a7570e",
               "dababbf86c5b23df8a0a77ffb747e0f3540179f84c9ec12fe87591d508aa27e8"),
    ("B", 6): ("a3c8cd026cab645de91b121620603647e58fbc8c2c2f1edd22276f502d3ecb2d",
               "0466efe1fb34fe48e3b91b05ca57f61335faf14e7ef7da6e437566765d2c0b44"),
    ("C", 6): ("4419ef2ccc0e30d462dacac5d8962573ecf476d85c97f98444d2661a1dbb279f",
               "a8ae04c787ea8b49b6ac5b81a059d2821408b468f07f67aaa3276250fbab45ad"),
    ("D", 6): ("62b6c3cf2f0f66d749bb2cdac5b4f03889c88e5633c6fbabd2f435c103c0cf2e",
               "26bfadb7ddde073db3faca114eb468717eb1a62e2d3536f2c120017967c1ee98"),
    ("A", 7): ("00919975441b43e85aa7afd8fb86ad165ec0b7f233bce312e53c8a21c5a965f8",
               "7fe0de3b492e695fdb902f20a8697452caeba5a7e9a97a3ef55e7182c833a7de"),
    ("B", 7): ("fab897ca9afb41aef6a9c237063c329507c693ba1e3fa825934c11397a97890a",
               "d157957d37069d9142abaa48cac376cae396929e08ef297299e9421a7a476771"),
    ("C", 7): ("52e7ae0a198e23f909e8c815fe98dbd7e5c4c7131db7190c8cb643e54fd32ef2",
               "9a4bc4e69388df1e2df5618dba2d85e081aa58a196d8ebe50a84af4ca60f2c02"),
    ("D", 7): ("2811d286d723b61cff0c92bd9f06c6bb1508b47018185152131dbf53a04f12b3",
               "04bb0c6d0e9dd36ce63b91b3e5bfd6637c5fab1fed3f9bb13a8a434e3c2cd3e3"),
    ("A", 9): ("ad322dd2012654873716546b69877d68e1bbe62d3f6e221e522d6d409e926aed",
               "04dfe4883ede6c5fe547e77ebe5c00c14f36324e68a9c9c78289ca8e40ea0e7f"),
    ("B", 9): ("c9809177f404ae0276b18812afd023e08ae3194dc7a1c7941a6c09bae8645718",
               "8ce0957d5bc748e2f3bb365b996d0251e27d3fa08d8c392cb3a93bea96b776ca"),
    ("C", 9): ("36918620fc6ba55720a4a6bd8a557d32ddd59d2574666bd10a68576ae7689dcb",
               "c232b481050a2a6e91ddb266bbe131d672982ca7e32ff1f7aa2d0f9d833a4bf9"),
    ("D", 9): ("590b41d0dc4551f7efd427cfbd14c8fca6bb0afff01b730931d18c07a91dcf99",
               "f8fc91f94c6bb124b798fab8a32cb99224118c373bddb26c4dfa68620643c239"),
}


@pytest.mark.parametrize("family", "ABCD")
def test_census_bytes_are_pinned_to_rank_6(family, tmp_path, capsys):
    for rank in (6, 7, 9):
        out, summary = tmp_path / f"c{rank}.jsonl", tmp_path / f"c{rank}.csv"
        argv = ["census", "--family", family, "--max-rank", str(rank),
                "--out", str(out), "--summary", str(summary)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        got = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, summary))
        assert got == CENSUS_SHA256[family, rank], rank


def test_violating_witness_raises_under_python_O():
    # the witness self-check must not be an `assert`, which -O strips
    script = textwrap.dedent("""
        from flagke import census as cs, diagram
        cs.smallest_witness = lambda bounds: (2,)  # k_2 = 2 violates k_2 < 2 and k_2 > 2
        try:
            cs._record_for(diagram("A", 3, {2}), 1, "left")
        except AssertionError as exc:
            print("raised:", exc)
        else:
            print("emitted")
    """)
    src = str(Path(flagke.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: witness (2,) violates its own pos bounds"), proc.stdout


def test_witness_check_compares_with_the_exact_bound_not_its_edge(monkeypatch):
    # `smallest_witness` builds a witness from `Bound.edge`, so a check that
    # read the edge again could never see a wrong one: with the edge of
    # k_1 > 2 off by one, the witness (2,) must fail the exact comparison
    dg = diagram("A", 1, {1})
    crit = es.criterion(bd.end_of(dg, None, None))

    def edge_off_by_one(bound):
        wrong = copy.copy(bound)
        object.__setattr__(wrong, "edge", bound.edge - 1)
        return wrong

    assert [str(b) for b in crit.neg] == ["k_1 > 2"]
    wrong = dataclasses.replace(crit, neg=tuple(map(edge_off_by_one, crit.neg)))
    monkeypatch.setattr(es, "criterion", lambda end: wrong)
    with pytest.raises(AssertionError, match=r"^witness \(2,\) violates its own neg bounds"):
        cs._record_for(dg, None, None)
