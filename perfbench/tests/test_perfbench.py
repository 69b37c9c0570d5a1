"""Tests of the benchmark itself: inputs, references, tracing and output."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import inputs
import run
import worker
from tracing import Tracer

from flagke import bundle as bd, cli, painted as pd, profile as pf, rootspace as rs


def test_generators_are_deterministic_per_seed():
    for gen in (inputs.chi_sweep_sample, inputs.profile_sample):
        assert gen(3) == gen(3)
        assert gen(3) != gen(4)


def test_generator_combinatorics_agree_with_flagke():
    for family in inputs.FAMILIES:
        for rank in range(inputs.MIN_RANK[family], 7):
            for black in inputs.masks(rank):
                dg = pd.PaintedDiagram(rs.Algebra(family, rank), black)
                assert [s.start for s in bd.eligible_strings(dg)] == \
                    inputs.string_starts(family, rank, black)
                assert len(pd.r_m_plus(dg)) == inputs.pair_count(family, rank, black)
                numbers = inputs.koszul_by_rule(family, rank, black) if black else None
                if numbers is not None:
                    assert numbers == pd.koszul(dg).numbers


def test_profile_sample_is_admitted_with_the_planned_pair_counts():
    for item in inputs.profile_sample(5):
        data = bd.admissible_data(cli.parse_diagram(item["key"]), item["start"], item["end"],
                                  item["chi"])
        prof = pf.metric_profile(data, Fraction(item["lam"]))
        assert inputs.PROFILE_BANDS[0][0] <= len(prof.pairs) <= inputs.PROFILE_BANDS[-1][1]


def test_census_reference_matches(tmp_path):
    ref = run.load_reference()["census"]["C"]
    spec = {"family": "C", "max_rank": inputs.CENSUS_MAX_RANK,
            "out": str(tmp_path / "c.jsonl"), "summary": str(tmp_path / "c.csv")}
    p = worker.Pass()
    worker.census_pass(spec, p, None)
    assert p.failed == 0
    assert p.attempted == inputs.census_record_count("C", inputs.CENSUS_MAX_RANK)
    assert run._sha256(spec["out"]) == ref["jsonl_sha256"]
    assert run._sha256(spec["summary"]) == ref["csv_sha256"]


def test_chi_sweep_reference_digests_match():
    ref = run.load_reference()["chi_sweep"]
    diagrams = [d for d in inputs.chi_sweep_sample(0) if d["k"] == 1][:4]
    p = worker.Pass()
    res = worker.chi_sweep_pass({"diagrams": diagrams, "chi_range": list(inputs.SWEEP_CHI_RANGE)},
                                p, None)
    assert p.failed == 0
    assert res["digests"] == {d["key"]: ref[d["key"]] for d in diagrams}


def test_t_reference_matches_closed_form():
    # point orbit of SU(2), m = 2, lambda = 0: f = kappa t^2 / 2
    data = bd.admissible_data(pd.PaintedDiagram(rs.Algebra("A", 1), frozenset()), 1, "left", ())
    prof = pf.metric_profile(data, 0)
    for f in (0.1, 1.0, 5.0):
        t = worker.t_reference(prof.pairs, prof.kappa_sq, prof.m, prof.lam, f)
        assert math.isclose(t, math.sqrt(2 * f / prof.kappa), rel_tol=1e-12)


def test_tracing_counts_and_leaves_no_wrapper_installed():
    originals = (rs.inner, rs.Weight.__add__, rs.Weight.__rmul__, pf.quad)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.installed() > 0
        data = bd.admissible_data(cli.parse_diagram("A5:o*oo*"), 3, "left", (1, 1))
        pf.t_of_f(pf.metric_profile(data, 1), 0.1)
    finally:
        tracer.restore()
    assert tracer.installed() == 0
    assert (rs.inner, rs.Weight.__add__, rs.Weight.__rmul__, pf.quad) == originals
    assert tracer.calls("profile.metric_profile") == 1
    assert tracer.calls("profile.quad") >= 1 and tracer.quad_neval > 0
    assert tracer.calls("rootspace.inner") > 0
    calls, incl, self_s = tracer.stats["einstein.z0_form"]
    assert calls == 1 and 0 <= self_s <= incl
    assert not tracer.absent


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
