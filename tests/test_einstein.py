import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagke import bundle as bd, diagram, einstein as es, painted as pd, profile as pf, rootspace as rs
from flagke.errors import DomainError, UsageError

from conftest import FAMILY_MIN_RANK, all_diagrams, automorphism_image, combination, inner, kappa_sq_oracle, \
    pi_sum, pi_weight, zero_weight


def test_published_verdicts():
    dg = diagram("A", 11, {3, 6})
    v = es.classify(bd.admissible_data(dg, 1, "left", (2, 3)))
    assert v.lambda_zero.exists and v.lambda_zero.required_chi == (2, 3)
    # m = 6 string: 6 does not divide 9
    v6 = es.classify(bd.admissible_data(dg, 7, "left", (1, 1)))
    assert not v6.lambda_zero.exists and v6.lambda_zero.required_chi is None
    # central m = 4 string of A5 with n = (5, 5)
    v4 = es.classify(bd.admissible_data(diagram("A", 5, {1, 5}), 2, "left", (1, 1)))
    assert not v4.lambda_zero.exists
    # point singular orbit: every Einstein constant occurs
    vp = es.classify(bd.admissible_data(diagram("A", 3, set()), 1, "left", ()))
    assert vp.lambda_zero.exists and vp.lambda_pos.exists and vp.lambda_neg.exists
    assert vp.ray_extends


def test_strict_inequalities_m3():
    dg = diagram("A", 11, {3, 6})
    v = es.classify(bd.admissible_data(dg, 1, "left", (1, 1)))  # n/m = (2, 3)
    assert v.lambda_pos.exists and not v.lambda_neg.exists and not v.lambda_zero.exists
    v2 = es.classify(bd.admissible_data(dg, 1, "left", (3, 4)))
    assert v2.lambda_neg.exists and not v2.lambda_pos.exists
    assert v2.lambda_neg.complete
    # boundary value k_s+1 = n/m is in neither region
    v3 = es.classify(bd.admissible_data(dg, 1, "left", (2, 1)))
    assert not v3.lambda_pos.exists and not v3.lambda_neg.exists


def test_right_end_mirrors_left_with_negated_chi():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 7):
            for dg in all_diagrams(fam, rank):
                p = len(dg.black)
                for info in bd.eligible_strings(dg):
                    for chi in itertools.product((-2, 0, 1), repeat=p):
                        right = es.classify(bd.admissible_data(dg, info.start, "right", chi))
                        left = es.classify(bd.admissible_data(dg, info.start, "left", tuple(-k for k in chi)))
                        assert right.lambda_zero.exists == left.lambda_zero.exists
                        assert right.lambda_pos.exists == left.lambda_pos.exists
                        assert right.lambda_neg.exists == left.lambda_neg.exists


def test_rank_one_verdicts():
    dg = diagram("B", 3, {1})  # n_1 = 5
    mk = lambda k: bd.admissible_data(dg, None, None, (k,))  # noqa: E731
    v5 = es.classify(mk(5))
    assert v5.lambda_zero.exists and not v5.lambda_pos.exists and not v5.lambda_neg.exists
    v2 = es.classify(mk(2))
    assert v2.lambda_pos.exists and not v2.lambda_neg.exists and not v2.lambda_zero.exists
    v8 = es.classify(mk(8))
    assert v8.lambda_neg.exists and v8.lambda_neg.complete and not v8.lambda_pos.exists


def test_rank_one_direction_forced_by_z0_positivity():
    # the side of n_j that admits each sign is pinned by beta_j(Z_0) > 0
    dg = diagram("B", 3, {1})
    beta1 = rs.simple_roots(dg.algebra)[0]
    z_pos = es.z0_form(bd.admissible_data(dg, None, None, (2,)), Fraction(1))
    assert inner(beta1, z_pos) > 0
    z_neg = es.z0_form(bd.admissible_data(dg, None, None, (8,)), Fraction(-1))
    assert inner(beta1, z_neg) > 0
    with pytest.raises(DomainError):
        es.z0_form(bd.admissible_data(dg, None, None, (8,)), Fraction(1))


def test_z0_form_published_example():
    dg = diagram("A", 11, {3, 6})
    data = bd.admissible_data(dg, 1, "left", (1, 1))
    z0 = es.z0_form(data, Fraction(1))
    alg = dg.algebra
    assert z0 == combination((3, pi_weight(alg, 3)), (6, pi_weight(alg, 6)))


def test_z0_form_scaling_and_face_conditions():
    dg = diagram("A", 11, {3, 6})
    data = bd.admissible_data(dg, 1, "left", (1, 1))
    assert es.z0_form(data, Fraction(2)) == combination((Fraction(1, 2), es.z0_form(data, Fraction(1))))
    z0 = es.z0_form(data, Fraction(1))
    simples = rs.simple_roots(dg.algebra)
    assert inner(z0, simples[data.end.beta_node - 1]) == 0
    assert all(inner(z0, simples[j - 1]) > 0 for j in data.end.s0.black_nodes)
    with pytest.raises(UsageError):
        es.z0_form(data, Fraction(0))


def test_z0_face_point_default_witness():
    dg = diagram("A", 11, {3, 6})
    xi = es.z0_face_point(bd.end_of(dg, 1, "left"))
    assert pd.chamber_contains(dg, xi)
    # any interior face point is accepted, e.g. an asymmetric one
    other = combination((2, pi_weight(dg.algebra, 3)), (5, pi_weight(dg.algebra, 6)))
    assert pd.chamber_contains(dg, other)
    assert not pd.chamber_contains(dg, combination((-1, xi)))
    assert not pd.chamber_contains(dg, pi_weight(dg.algebra, 1))
    # every end's witness is the sum of its black pi_j, against the inverse-Cartan oracle
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 7):
            for s0 in all_diagrams(fam, rank):
                ends = [(info.start, end) for info in bd.eligible_strings(s0) for end in ("left", "right")]
                for start, end in [(None, None)] + ends:
                    expected = pi_sum(s0.algebra, s0.black_nodes, (1,) * len(s0.black))
                    assert es.z0_face_point(bd.end_of(s0, start, end)) == expected, (s0.key(), start, end)


def test_point_orbit_z0_is_origin():
    data = bd.admissible_data(diagram("A", 2, set()), 1, "left", ())
    zero = zero_weight(data.end.s0.algebra)
    assert es.z0_form(data, Fraction(1)) == zero
    assert es.z0_face_point(data.end) == zero


def test_ray_extension():
    dg = diagram("A", 11, {3, 6})
    # admitted negative constants always extend
    assert es.classify(bd.admissible_data(dg, 1, "left", (3, 4))).ray_extends
    # a vanishing coefficient next to the string blocks the ray
    data0 = bd.admissible_data(dg, 1, "left", (0, 1))
    assert es.classify(data0).lambda_pos.exists
    assert not es.classify(data0).ray_extends


def test_neg_admitted_implies_ray_sweep():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 6):
            for dg in all_diagrams(fam, rank):
                for info in bd.eligible_strings(dg):
                    numbers = pd.koszul(dg).numbers if dg.black else {}
                    for end in ("left", "right"):
                        sign = 1 if end == "left" else -1
                        chi = tuple(sign * (numbers[j] // info.m + 1) for j in sorted(dg.black))
                        data = bd.admissible_data(dg, info.start, end, chi)
                        v = es.classify(data)
                        assert v.lambda_neg.exists
                        assert v.ray_extends, (dg.key(), info.nodes, end)


@pytest.mark.parametrize("start, beta", [(1, "left"), (1, "right"), (None, None)], ids=["left", "right", "rank one"])
def test_criterion_rejects_a_drop_past_its_koszul_number(start, beta):
    # n_j - d_j is the flag's Koszul number at j, so the lambda < 0 bound
    # k_j > n_j/m implies the ray bound k_j > d_j/m; `criterion` checks it
    # once per End.  `end_of` would refuse the raised drop by its dual-form
    # check, so the record is copied with the drop at node 3, the string's
    # black neighbour, raised to n_3 + m
    end = bd.end_of(diagram("A", 11, {3, 6}), start, beta)
    assert es.criterion(end).neg  # the real record passes
    n3 = pd.koszul(end.s0).numbers[3]
    raised = dataclasses.replace(end, drops=((3, n3 + end.m),))
    with pytest.raises(AssertionError, match="misses a ray bound"):
        es.criterion(raised)


def test_alg_cond_identity_small_sweep():
    # Koszul form of the flag = lambda Z_0 + kappa m Z^0 in dual coordinates
    lams = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 5):
            for dg in all_diagrams(fam, rank):
                numbers = pd.koszul(dg).numbers if dg.black else {}
                for info in bd.eligible_strings(dg):
                    for end in ("left", "right"):
                        sign = 1 if end == "left" else -1
                        for lam in lams:
                            if lam > 0:
                                chi = tuple(-sign for _ in sorted(dg.black))
                            else:
                                chi = tuple(sign * (numbers[j] // info.m + 1) for j in sorted(dg.black))
                            data = bd.admissible_data(dg, info.start, end, chi)
                            xi_z0 = es.z0_form(data, lam)
                            xi0 = bd.kappa_z0_form(data)
                            sigma_f = pd.koszul(data.end.flag).sigma
                            assert sigma_f == combination((lam, xi_z0), (data.end.m, xi0)), \
                                (dg.key(), info.nodes, end, lam)


def test_alg_cond_identity_rank_one():
    dg = diagram("C", 3, {1, 3})
    data = bd.admissible_data(dg, None, None, (1, 2))
    for lam in (Fraction(1), Fraction(-3, 2)):
        if lam > 0 and not es.classify(data).lambda_pos.exists:
            continue
        xi_z0 = es.z0_form(data, lam) if (lam > 0) == es.classify(data).lambda_pos.exists else None
    v = es.classify(data)
    numbers = pd.koszul(dg).numbers
    # chi = (1, 2) with n = (n_1, n_3): lambda > 0 iff k_j < n_j
    assert v.lambda_pos.exists == all(k < numbers[j] for k, j in zip((1, 2), (1, 3)))
    lam = Fraction(1)
    xi_z0 = es.z0_form(data, lam)
    sigma = pd.koszul(dg).sigma
    assert sigma == combination((lam, xi_z0), (1, bd.kappa_z0_form(data)))


def test_z0_vanishing_set_is_exactly_the_string_block():
    # the initial vertex annihilates precisely m-1 complementary roots of the
    # flag: those supported on the string through beta
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 8):
            for dg in all_diagrams(fam, rank):
                numbers = pd.koszul(dg).numbers if dg.black else {}
                for info in bd.eligible_strings(dg):
                    for end in ("left", "right"):
                        sign = 1 if end == "left" else -1
                        chi = tuple(-sign for _ in sorted(dg.black))  # admits lambda > 0
                        data = bd.admissible_data(dg, info.start, end, chi)
                        z0 = es.z0_form(data, Fraction(1))
                        flag = data.end.flag
                        zeros = sum(1 for a in pd.r_m_plus(flag) if inner(a, z0) == 0)
                        assert zeros == data.end.m - 1, (dg.key(), info.nodes, end)


def test_verdict_constraint_strings():
    dg = diagram("A", 11, {3, 6})
    v = es.classify(bd.admissible_data(dg, 1, "left", (1, 1)))
    assert str(v.lambda_pos.constraint[0]) == "k_3 < 2"
    assert str(v.lambda_neg.constraint[1]) == "k_6 > 3"


BOUND_CASES = st.tuples(st.sampled_from("<>"), st.integers(-60, 60), st.integers(1, 12), st.integers(-20, 20))


@settings(max_examples=400, deadline=None, database=None)
@given(st.lists(BOUND_CASES, min_size=1, max_size=3))
def test_bound_edges_match_fraction_comparison(cases):
    bounds, chi, direct = [], [], []
    for node, (op, p, q, k) in enumerate(cases, start=1):
        value = Fraction(p, q)
        b = es.Bound(node, op, value)
        truth = k < value if op == "<" else k > value
        assert b.holds(k) == truth, (op, value, k, b.edge)
        assert es.satisfied((b,), (k,)) == truth
        assert str(b) == f"k_{node} {op} {value}"
        shared = es._bound(node, op, p, q)
        assert shared.holds(k) == truth, (op, p, q, k, shared.edge)
        assert shared is es._bound(node, op, p, q)
        assert shared == b and shared.edge == b.edge and str(shared) == str(b)
        bounds.append(b)
        chi.append(k)
        direct.append(truth)
    assert es.satisfied(tuple(bounds), tuple(chi)) == all(direct)


def test_bound_rejects_unknown_op_and_inexact_value():
    with pytest.raises(UsageError):
        es.Bound(1, "<=", Fraction(3, 2))
    with pytest.raises(UsageError):
        es.Bound(1, "<", 1.5)
    assert es.Bound(1, "<", 2).edge == 1


def test_strings_of_one_length_share_bound_objects():
    dg = diagram("A", 5, {2, 4})  # A5:o*o*o, m = 2 strings at nodes 1 and 3
    first, third = (es.criterion(bd.end_of(dg, start, "left")) for start in (1, 3))
    assert [str(b) for b in first.pos] == ["k_2 < 2", "k_4 < 2"]
    assert all(a is b for a, b in zip(first.pos, third.pos))
    assert all(a is b for a, b in zip(first.neg, third.neg))


@st.composite
def painted_past_rank_bound(draw):
    """A painting of rank 10-16, past census.MAX_RANK_BOUND, in families A-D."""
    alg = rs.Algebra(draw(st.sampled_from(rs.FAMILIES)), draw(st.integers(10, 16)))
    black = draw(st.frozensets(st.integers(1, alg.rank)))
    return pd.PaintedDiagram(alg, black)


@settings(max_examples=150, deadline=None, database=None)
@given(painted_past_rank_bound(), st.data())
def test_verdicts_match_chamber_geometry_past_rank_bound(dg, draw):
    # lambda * xi_{Z_0} = sum n_j pi_j -+ m chi must be an interior face point
    # for lambda > 0, its negative one for lambda < 0, and zero for lambda = 0
    nodes = tuple(sorted(dg.black))
    numbers = pd.koszul(dg).numbers if nodes else {}
    if nodes:
        # the white-neighbour count against the root sum, at every black node
        rule = pd.koszul_rule(dg)
        assert all(numbers[j] == n for j, n in rule.items()), (dg.key(), rule, numbers)
        assert rule.keys() == numbers.keys(), (dg.key(), rule, numbers)
    cases = [(None, None)] if nodes else []
    cases += [(info, end) for info in bd.eligible_strings(dg) for end in ("left", "right")]
    for info, end in cases:
        m = 1 if info is None else info.m
        sign = -1 if end == "right" else 1
        limits = [Fraction(sign * numbers[j], m) for j in nodes]
        near = st.tuples(*(st.integers(math.floor(v) - 2, math.ceil(v) + 2) for v in limits))
        if all(v.denominator == 1 for v in limits):
            near = st.one_of(st.just(tuple(int(v) for v in limits)), near)
        chi = draw.draw(near)
        if info is None and not any(chi):
            continue  # a rank-one bundle needs chi != 0
        data = bd.admissible_data(dg, info and info.start, end, chi)
        xi = pi_sum(dg.algebra, nodes, [numbers[j] for j in nodes])
        m_chi = combination((m, pi_sum(dg.algebra, nodes, chi)))
        xi = combination((1, xi), (1 if end == "right" else -1, m_chi))
        v = es.classify(data)
        assert v.lambda_pos.exists == pd.chamber_contains(dg, xi), (dg.key(), m, end, chi)
        assert v.lambda_neg.exists == pd.chamber_contains(dg, combination((-1, xi))), (dg.key(), m, end, chi)
        assert v.lambda_zero.exists == (xi == zero_weight(dg.algebra)), (dg.key(), m, end, chi)
        if end == "left":
            # the right end at -chi mirrors the left end at chi: both have
            # lambda xi_{Z_0} = sigma_F - m xi_0, here from exact root sums and
            # the virtual-epsilon oracle, and so the same three verdicts
            mirror = bd.admissible_data(dg, info.start, "right", tuple(-k for k in chi))
            forms = [combination((1, pd.koszul(d.end.flag).sigma), (-m, bd.kappa_z0_oracle(d))) for d in (data, mirror)]
            assert forms[0] == forms[1] == xi, (dg.key(), m, chi)
            w = es.classify(mirror)
            assert ((w.lambda_pos.exists, w.lambda_neg.exists, w.lambda_zero.exists)
                    == (v.lambda_pos.exists, v.lambda_neg.exists, v.lambda_zero.exists)), (dg.key(), m, chi)
        if dg.algebra.family in "AD":
            # the image under the A flip or the D fork swap, built on other
            # nodes, epsilon coordinates and path positions, has the datum's
            # verdicts, ray condition and kappa^2
            moved = bd.admissible_data(*automorphism_image(dg, info and info.start, end, chi))
            w = es.classify(moved)
            assert ((w.lambda_pos.exists, w.lambda_neg.exists, w.lambda_zero.exists, w.ray_extends)
                    == (v.lambda_pos.exists, v.lambda_neg.exists, v.lambda_zero.exists, v.ray_extends)), \
                (dg.key(), m, end, chi)
            assert bd.kappa(moved)[0] == bd.kappa(data)[0], (dg.key(), m, end, chi)
        # the ray condition by its geometric definition, and the two other
        # readers of the end-shape table against their independent references
        xi0 = bd.kappa_z0_form(data)
        assert bd.kappa(data)[0] == kappa_sq_oracle(dg, m, chi), (dg.key(), m, end, chi)
        simples = rs.simple_roots(dg.algebra)
        assert v.ray_extends == all(inner(xi0, simples[j - 1]) > 0 for j in nodes), (dg.key(), m, end, chi)
        if m > 1:
            assert xi0 == bd.kappa_z0_oracle(data), (dg.key(), m, end, chi)
            assert bd.koszul_update_check(data.end), (dg.key(), m, end)
        # the flag's Koszul form, an exact root sum, is lambda xi_{Z_0} + m xi_0
        # (m xi_0 at lambda = 0); for lambda <= 0 that makes every slope r
        # positive, so the segment meets no chamber wall.  Building the
        # profile checks the vanishing order d = m - 1
        beta = None if info is None else info.nodes[0 if end == "left" else -1]
        flag = pd.PaintedDiagram(dg.algebra, dg.black | ({beta} - {None}))
        assert data.end.flag == flag, (dg.key(), m, end)
        sigma_f = pd.koszul(flag).sigma
        for lam, verdict in ((1, v.lambda_pos), (-1, v.lambda_neg), (0, v.lambda_zero)):
            if not verdict.exists:
                continue
            if lam:
                assert es.z0_form(data, lam) == combination((lam, xi)), (dg.key(), m, end, chi, lam)
                assert sigma_f == combination((lam, es.z0_form(data, lam)), (m, xi0)), (dg.key(), m, end, chi, lam)
            else:
                assert sigma_f == combination((m, xi0)), (dg.key(), m, end, chi)
            prof = pf.metric_profile(data, lam)
            if lam <= 0:
                wall = min((-a / r for a, r in prof.pairs if r < 0), default=None)
                assert all(r > 0 for _, r in prof.pairs) and wall is None, (dg.key(), m, end, chi, lam)
