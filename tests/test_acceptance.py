"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.  Criteria 8 and 9 share one deterministic sample of
admitted data; everything else is exhaustive within its stated rank bound.
"""

import io
import itertools
import math
import random
import time
from fractions import Fraction

from flagke import bundle as bd, census as cs, cli, einstein as es, painted as pd, \
    profile as pf, rootspace as rs

from conftest import FAMILY_MIN_RANK, all_diagrams, cartan_matrix, combination
from test_census import independent_count

_SAMPLES = {}


def _report(name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"[{status}] {name}: {elapsed:.2f}s (budget {budget:.0f}s){extra}")
    assert ok, f"{name} failed{extra}"
    assert elapsed < budget, f"{name} exceeded its runtime budget: {elapsed:.2f}s >= {budget}s"


def _run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_01_koszul_cli_examples(capsys):
    t0 = time.monotonic()
    code1, out1 = _run_cli(capsys, "koszul", "A11:oo*oo*ooooo")
    code2, out2 = _run_cli(capsys, "koszul", "A5:*ooo*")
    elapsed = time.monotonic() - t0
    ok = (code1 == 0 and "n_3=6" in out1 and "n_6=9" in out1
          and code2 == 0 and "n_1=5" in out2 and "n_5=5" in out2)
    _report("criterion 1 (koszul CLI examples)", ok, elapsed, 1.0)


def test_criterion_02_rule_vs_sum_to_rank_8():
    t0 = time.monotonic()
    checked = excluded = mismatches = 0
    excluded_keys = []
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 9):
            for dg in all_diagrams(fam, rank):
                if not dg.black:
                    continue
                numbers = pd.koszul(dg).numbers
                rule = pd.koszul_rule(dg)
                for j in dg.black_nodes:
                    if not isinstance(rule.get(j), int):
                        excluded += 1
                        if len(excluded_keys) < 3:
                            excluded_keys.append(f"{dg.key()}#{j}")
                    else:
                        checked += 1
                        mismatches += rule[j] != numbers[j]
    elapsed = time.monotonic() - t0
    detail = (f"{checked} nodes agree exactly, {excluded} nodes without a rule value"
              + (f" (e.g. {', '.join(excluded_keys)})" if excluded_keys else ""))
    _report("criterion 2 (rule vs root sum, rank <= 8)",
            mismatches == 0 and excluded == 0 and checked > 0, elapsed, 60.0, detail)


def test_criterion_03_dual_form_cross_validation_to_rank_7():
    t0 = time.monotonic()
    checked = mismatches = double_edge = fork = 0
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 8):
            cartan = cartan_matrix(fam, rank)
            adj = pd.adjacency(rs.Algebra(fam, rank))
            for dg in all_diagrams(fam, rank):
                nodes = tuple(sorted(dg.black))
                for info in bd.eligible_strings(dg):
                    # (path position, Cartan entry) of each black neighbour of the string
                    met = [(p, cartan[i - 1][j - 1]) for p, i in enumerate(info.nodes, start=1)
                           for j in adj[i] if j in dg.black]
                    double_edge += any(c == -2 for _, c in met)
                    fork += any(1 < p < len(info.nodes) for p, _ in met)
                    for chi in itertools.product((-2, -1, 0, 1, 2), repeat=len(nodes)):
                        for end in ("left", "right"):
                            data = bd.admissible_data(dg, info.start, end, chi)
                            checked += 1
                            if bd.kappa_z0_form(data) != bd.kappa_z0_oracle(data):
                                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and checked > 0 and double_edge > 0 and fork > 0
    detail = f"{checked} data exact, {double_edge} double-edge and {fork} fork exceptional strings covered"
    _report("criterion 3 (dual-form cross-validation, rank <= 7)", ok, elapsed, 300.0, detail)


def test_criterion_04_koszul_update_relations_to_rank_7():
    t0 = time.monotonic()
    checked = failures = 0
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 8):
            for dg in all_diagrams(fam, rank):
                for info in bd.eligible_strings(dg):
                    for end in ("left", "right"):
                        data = bd.admissible_data(dg, info.start, end, tuple(0 for _ in sorted(dg.black)))
                        checked += 1
                        failures += not bd.koszul_update_check(data.end)
    elapsed = time.monotonic() - t0
    _report("criterion 4 (Koszul update relations, rank <= 7)",
            failures == 0 and checked > 0, elapsed, 120.0, f"{checked} data exact")


def test_criterion_05_existence_verdict_examples():
    t0 = time.monotonic()
    dg = pd.PaintedDiagram(rs.Algebra("A", 11), frozenset({3, 6}))
    v3 = es.classify(bd.admissible_data(dg, 1, "left", (2, 3)))
    v6 = es.classify(bd.admissible_data(dg, 7, "left", (1, 1)))
    v4 = es.classify(bd.admissible_data(
        pd.PaintedDiagram(rs.Algebra("A", 5), frozenset({1, 5})), 2, "left", (1, 1)))
    vp = es.classify(bd.admissible_data(
        pd.PaintedDiagram(rs.Algebra("A", 3), frozenset()), 1, "left", ()))
    ok = (v3.lambda_zero.exists and v3.lambda_zero.required_chi == (2, 3)
          and not v6.lambda_zero.exists
          and not v4.lambda_zero.exists
          and vp.lambda_zero.exists and vp.lambda_pos.exists and vp.lambda_neg.exists)
    elapsed = time.monotonic() - t0
    _report("criterion 5 (existence verdict examples)", ok, elapsed, 1.0)


def _admitted_chi(bounds, rng=None):
    chi = list(cs.smallest_witness(bounds))
    if rng is not None:
        for i, b in enumerate(bounds):
            off = rng.randint(0, 2)
            chi[i] = chi[i] - off if b.op == "<" else chi[i] + off
    return tuple(chi)


def test_criterion_06_algebraic_condition_identity_to_rank_6():
    t0 = time.monotonic()
    rng = random.Random(61)
    lams = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]
    checked = failures = 0
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 7):
            for dg in all_diagrams(fam, rank):
                data_shapes = [(info, end) for info in bd.eligible_strings(dg)
                               for end in ("left", "right")]
                if dg.black:
                    data_shapes.append((None, None))
                for info, end in data_shapes:
                    mk = lambda chi: bd.admissible_data(dg, info and info.start, end, chi)  # noqa: E731
                    probe = mk(tuple(1 for _ in sorted(dg.black)))
                    sigma_target = pd.koszul(probe.end.flag).sigma
                    verdict = es.classify(probe)
                    for lam in lams:
                        bounds = (verdict.lambda_pos if lam > 0 else verdict.lambda_neg).constraint
                        chi = _admitted_chi(bounds, rng)
                        if info is None and not any(chi):
                            chi = tuple(k - 1 if b.op == "<" else k + 1
                                        for k, b in zip(chi, bounds))
                        data = mk(chi)
                        xi_z0 = es.z0_form(data, lam)
                        xi0 = bd.kappa_z0_form(data)
                        checked += 1
                        failures += sigma_target != combination((lam, xi_z0), (data.end.m, xi0))
                    req = verdict.lambda_zero.required_chi
                    if req is not None and (info is not None or any(req)):
                        data0 = mk(req)
                        checked += 1
                        failures += sigma_target != combination((data0.end.m, bd.kappa_z0_form(data0)))
    elapsed = time.monotonic() - t0
    _report("criterion 6 (algebraic condition identity, rank <= 6)",
            failures == 0 and checked > 0, elapsed, 60.0, f"{checked} identities exact")


def test_criterion_07_point_orbit_closed_forms():
    t0 = time.monotonic()
    worst = 0.0
    for m in (2, 3, 5):
        data = bd.admissible_data(pd.PaintedDiagram(rs.Algebra("A", m - 1), frozenset()),
                                  1, "left", ())
        kap = bd.kappa(data)[1]
        b = 2.0 / (m + 1)
        # flat: f = kappa t^2 / 2
        prof = pf.metric_profile(data, 0)
        T = pf.t_of_f(prof, 5 * kap)
        for i in range(64):
            t = T * i / 63
            worst = max(worst, abs(pf.f_of_t(prof, t) - kap * t * t / 2))
        # lambda = 1: f = -(a/b') sin^2(sqrt(-b') t / 2), a = 2 kappa, b' = -b
        prof = pf.metric_profile(data, 1)
        t_max = math.pi / math.sqrt(b)
        for i in range(64):
            t = 0.97 * t_max * i / 63
            expect = (2 * kap / b) * math.sin(math.sqrt(b) * t / 2) ** 2
            worst = max(worst, abs(pf.f_of_t(prof, t) - expect))
        # lambda = -1: f = (a/b) sinh^2(sqrt(b) t / 2)
        prof = pf.metric_profile(data, -1)
        T = pf.t_of_f(prof, 5 * kap)
        for i in range(64):
            t = T * i / 63
            expect = (2 * kap / b) * math.sinh(math.sqrt(b) * t / 2) ** 2
            worst = max(worst, abs(pf.f_of_t(prof, t) - expect))
    elapsed = time.monotonic() - t0
    _report("criterion 7 (point-orbit closed forms, m in {2,3,5})",
            worst < 1e-8, elapsed, 10.0, f"max abs error {worst:.2e}")


def _sampled_profiles():
    """20 seeded admitted data up to rank 6 per Einstein sign, with profiles."""
    if "profiles" in _SAMPLES:
        return _SAMPLES["profiles"]
    rng = random.Random(20260809)
    pool = []
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 7):
            for dg in all_diagrams(fam, rank):
                for info in bd.eligible_strings(dg):
                    pool.append((dg, info, "left"))
                    pool.append((dg, info, "right"))
                if dg.black:
                    pool.append((dg, None, None))
    out = []
    for lam in (Fraction(1), Fraction(0), Fraction(-1)):
        picked = 0
        order = rng.sample(range(len(pool)), len(pool))
        for idx in order:
            dg, info, end = pool[idx]
            mk = lambda chi: bd.admissible_data(dg, info and info.start, end, chi)  # noqa: E731
            probe_chi = tuple(1 for _ in sorted(dg.black))
            try:
                verdict = es.classify(mk(probe_chi))
            except Exception:
                continue
            if lam == 0:
                chi = verdict.lambda_zero.required_chi
                if chi is None or (info is None and not any(chi)):
                    continue
            else:
                bounds = (verdict.lambda_pos if lam > 0 else verdict.lambda_neg).constraint
                chi = _admitted_chi(bounds, rng)
                if info is None and not any(chi):
                    continue
            data = mk(chi)
            out.append((data, lam, pf.metric_profile(data, lam)))
            picked += 1
            if picked == 20:
                break
        assert picked == 20, f"could not draw 20 admitted data for lambda sign {lam}"
    _SAMPLES["profiles"] = out
    return out


def test_criterion_08_ode_residual_on_sampled_data():
    t0 = time.monotonic()
    worst = 0.0
    n = 0
    for data, lam, prof in _sampled_profiles():
        f_hi = 0.9 * prof.f_sup if math.isfinite(prof.f_sup) else 4 * prof.kappa
        T = pf.t_of_f(prof, f_hi)
        # ten strictly interior parameter values; the degenerate sliver where
        # the segment meets a chamber wall is excluded by construction
        for i in range(1, 11):
            worst = max(worst, abs(pf.ode_residual(prof, T * i / 11)))
            n += 1
    elapsed = time.monotonic() - t0
    _report("criterion 8 (ODE residual on sampled data)",
            worst < 1e-6, elapsed, 60.0,
            f"max |residual| {worst:.2e} over {n} evaluations")


def test_criterion_09_verdiani_suite_on_sampled_data():
    t0 = time.monotonic()
    worst_rel = 0.0
    ok = True
    for data, lam, prof in _sampled_profiles():
        if prof.d != data.end.m - 1:
            ok = False
        report = pf.verdiani_check(prof)
        worst_rel = max(worst_rel, report.relative_error)
        ok = ok and report.passed
    elapsed = time.monotonic() - t0
    _report("criterion 9 (Verdiani boundary conditions on sampled data)",
            ok and worst_rel < 1e-4, elapsed, 60.0,
            f"d == m-1 everywhere, worst deviation from the two-term series {worst_rel:.2e}")


def test_criterion_10_census_determinism_family_a_rank_6():
    t0 = time.monotonic()
    buf1, buf2 = io.StringIO(), io.StringIO()
    cs.write_jsonl(cs.enumerate_records("A", 6), buf1)
    cs.write_jsonl(cs.enumerate_records("A", 6), buf2)
    identical = buf1.getvalue().encode() == buf2.getvalue().encode()
    got = sum(1 for line in buf1.getvalue().splitlines() if line)
    want = sum(independent_count("A", r) for r in range(1, 7))
    elapsed = time.monotonic() - t0
    _report("criterion 10 (census determinism, family A rank <= 6)",
            identical and got == want, elapsed, 120.0,
            f"{got} records, byte-identical reruns, independent count {want}")
