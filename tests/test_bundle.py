import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagke import bundle as bd, cli, diagram, painted as pd, rootspace as rs
from flagke.errors import DomainError, UsageError

from conftest import FAMILY_MIN_RANK, all_diagrams, combination, inner, pi_sum, pi_weight, weight


def test_string_eligibility_excludes_tails():
    # B/C components through the end node and D components with both fork
    # tips are not A-strings
    assert bd.eligible_strings(diagram("B", 3, set())) == ()
    assert bd.eligible_strings(diagram("C", 3, set())) == ()
    assert bd.eligible_strings(diagram("D", 4, set())) == ()
    assert [s.nodes for s in bd.eligible_strings(diagram("B", 3, {3}))] == [(1, 2)]
    assert [s.nodes for s in bd.eligible_strings(diagram("C", 4, {3}))] == [(1, 2)]
    assert bd.eligible_strings(diagram("A", 3, set()))[0].nodes == (1, 2, 3)


def _drops(dg, start):
    """The drops of the string of `dg` at `start`, at its left end, then its right."""
    return tuple(dict(bd.end_of(dg, start, end).drops) for end in ("left", "right"))


def test_string_structure_a5():
    dg = diagram("A", 5, {1, 5})
    (info,) = bd.eligible_strings(dg)
    assert info.nodes == (2, 3, 4)
    assert info.m == 4
    assert info.eps_seq == ((1, 2), (1, 3), (1, 4), (1, 5))
    assert _drops(dg, 2) == ({1: 3, 5: 1}, {1: 1, 5: 3})


def test_string_structure_b_double_edge():
    dg = diagram("B", 4, {1, 4})
    (info,) = bd.eligible_strings(dg)
    assert info.nodes == (2, 3)
    # node 4 meets the long root alpha_3 across the double edge: <alpha_3, alpha_4^v> = -2
    assert _drops(dg, 2) == ({1: 2, 4: 2}, {1: 1, 4: 4})
    # in the symplectic family the same position is a -1 entry
    assert _drops(diagram("C", 4, {1, 4}), 2) == ({1: 2, 4: 1}, {1: 1, 4: 2})


def test_string_structure_d_fork():
    dg = diagram("D", 4, {3})
    (info,) = bd.eligible_strings(dg)
    assert info.nodes == (1, 2, 4)
    assert info.eps_seq == ((1, 1), (1, 2), (1, 3), (-1, 4))
    assert _drops(dg, 1) == ({3: 2}, {3: 2})

    (info2,) = bd.eligible_strings(diagram("D", 4, {4}))
    assert info2.nodes == (1, 2, 3)
    assert info2.eps_seq == ((1, 1), (1, 2), (1, 3), (1, 4))
    assert _drops(diagram("D", 4, {4}), 1) == ({4: 2}, {4: 2})

    # the sibling tip of D5:ooo*o meets the fork node, path position 3 of 4
    dg5 = diagram("D", 5, {4})
    (info5,) = bd.eligible_strings(dg5)
    assert info5.nodes == (1, 2, 3, 5)
    assert _drops(dg5, 1) == ({4: 2}, {4: 3})


def test_string_structure_d_isolated_tips():
    dg = diagram("D", 4, {1, 2})
    infos = bd.eligible_strings(dg)
    assert [s.nodes for s in infos] == [(3,), (4,)]
    tip3, tip4 = infos
    assert tip3.eps_seq == ((1, 3), (1, 4))
    assert tip4.eps_seq == ((1, 3), (-1, 4))
    assert _drops(dg, 3) == ({2: 1}, {2: 1})
    assert _drops(dg, 4) == ({2: 1}, {2: 1})


def test_string_structure_d_both_tips_black():
    dg = diagram("D", 4, {3, 4})
    (info,) = bd.eligible_strings(dg)
    assert info.nodes == (1, 2)
    assert _drops(dg, 1) == ({3: 1, 4: 1}, {3: 2, 4: 2})


def test_flag_f():
    dg = diagram("A", 11, {3, 6})
    data = bd.admissible_data(dg, 1, "left", (0, 0))
    assert data.end.flag.black == frozenset({1, 3, 6})
    data_r = bd.admissible_data(diagram("A", 5, {1, 5}), 2, "right", (0, 0))
    assert data_r.end.flag.black == frozenset({1, 4, 5})
    m1 = bd.admissible_data(dg, None, None, (1, 0))
    assert m1.end.flag == dg


def test_admissible_data_validation():
    dg = diagram("A", 5, {1, 5})
    with pytest.raises(UsageError):
        bd.admissible_data(dg, 3, "left", (0, 0))  # node 3 is not a string start
    with pytest.raises(UsageError):
        bd.admissible_data(dg, 2, "left", (0,))  # chi length mismatch
    with pytest.raises(UsageError):
        bd.admissible_data(dg, 2, None, (0, 0))  # beta required with string
    with pytest.raises(UsageError):
        bd.admissible_data(dg, None, "left", (1, 0))  # beta without a string


def test_admissible_data_rejects_non_integer_chi():
    # the Einstein bounds are integer edges, exact only for integer chi
    dg = diagram("A", 3, {2})
    end = bd.end_of(dg, 1, "left")
    for bad in (0.5, 2.0, Fraction(1, 2), Fraction(2)):
        with pytest.raises(UsageError):
            bd.AdmissibleData(end, (bad,))
        with pytest.raises(UsageError):
            bd.admissible_data(dg, 1, "left", [bad])
    data = bd.AdmissibleData(end, (np.int64(2),))
    assert data.chi == (2,) and type(data.chi[0]) is int
    assert data == bd.admissible_data(dg, 1, "left", [2])


def test_end_records_are_shared_and_built_per_end():
    dg = diagram("A", 13, {3, 7, 11})  # four strings
    before = bd.end_of.cache_info().currsize
    data = bd.admissible_data(dg, 4, "right", (1, 2, 3))
    assert bd.end_of.cache_info().currsize - before <= 1
    assert data.end is bd.end_of(dg, 4, "right") is bd.admissible_data(dg, 4, "right", (0, 0, 0)).end
    assert data.end is not bd.end_of(dg, 4, "left")
    assert data.end.flag == diagram("A", 13, {3, 6, 7, 11}) and data.end.m == 4


def _bump_first_drop(drops, s0, info, beta_end):
    (node, d), *rest = drops(s0, info, beta_end)
    return ((node, d + 1), *rest)


def _other_end_drops(drops, s0, info, beta_end):
    return drops(s0, info, "right" if beta_end == "left" else "left")


@pytest.mark.parametrize("mutant", [_bump_first_drop, _other_end_drops])
def test_end_of_rejects_drops_that_break_the_dual_forms(monkeypatch, mutant):
    # the drops enter only the form's base, so a wrong table breaks its
    # agreement with the oracle, and every command builds its End through end_of
    drops = bd.neighbour_drops
    monkeypatch.setattr(bd, "neighbour_drops", lambda s0, info, beta_end: mutant(drops, s0, info, beta_end))
    bd.end_of.cache_clear()
    try:
        with pytest.raises(AssertionError, match=r"dual forms differ on A5:\*oo\*o string@2"):
            bd.end_of(diagram("A", 5, {1, 4}), 2, "left")
        with pytest.raises(AssertionError, match="dual forms differ"):
            cli.main(["classify", "A5:*oo*o", "--string", "2", "--beta", "left", "--chi", "1,1"])
    finally:
        bd.end_of.cache_clear()


@st.composite
def painted_to_rank_12(draw):
    fam = draw(st.sampled_from(rs.FAMILIES))
    alg = rs.Algebra(fam, draw(st.integers(FAMILY_MIN_RANK[fam], 12)))
    return pd.PaintedDiagram(alg, draw(st.frozensets(st.integers(1, alg.rank))))


@settings(max_examples=200, deadline=None, database=None)
@given(painted_to_rank_12(), st.data())
def test_dual_forms_match_weight_arithmetic(dg, draw):
    # both dual forms against their formulas rebuilt on Fraction coordinates
    alg, nodes = dg.algebra, tuple(sorted(dg.black))
    for info in bd.eligible_strings(dg):
        for end in ("left", "right"):
            chi = draw.draw(st.tuples(*(st.integers(-5, 5) for _ in nodes)))
            data = bd.admissible_data(dg, info.start, end, chi)
            m, beta = info.m, rs.simple_roots(alg)[data.end.beta_node - 1]
            chi_w = pi_sum(alg, nodes, chi)
            drops = bd.neighbour_drops(dg, info, end)
            base = pi_sum(alg, (data.end.beta_node,) + tuple(j for j, _ in drops), (m,) + tuple(-d for _, d in drops))
            form = combination((1 if end == "left" else -1, chi_w), (Fraction(1, m), base))
            assert bd.kappa_z0_form(data) == form, (dg.key(), info.nodes, end, chi)

            seq = info.eps_seq[::-1] if end == "right" else info.eps_seq
            (sign0, idx0), rest = seq[0], seq[1:]
            w = [Fraction(0)] * alg.ambient_dim
            w[idx0 - 1] = (m - 1) * sign0
            for sign, idx in rest:
                w[idx - 1] -= sign
            xi = combination((1, chi_w), (Fraction(1, m), weight(alg, w)))
            oracle = xi if inner(xi, beta) > 0 else combination((-1, xi))
            assert bd.kappa_z0_oracle(data) == oracle, (dg.key(), info.nodes, end, chi)


def test_kappa_z0_form_a11_example():
    dg = diagram("A", 11, {3, 6})
    data = bd.admissible_data(dg, 1, "left", (2, 3))
    alg = dg.algebra
    chi = combination((2, pi_weight(alg, 3)), (3, pi_weight(alg, 6)))
    w = weight(alg, [2, -1, -1] + [0] * 9)
    assert bd.kappa_z0_form(data) == combination((1, chi), (Fraction(1, 3), w))
    assert bd.kappa(data)[0] == Fraction(41, 18)


def test_kappa_z0_form_m1_is_chi():
    dg = diagram("B", 3, {1})
    data = bd.admissible_data(dg, None, None, (4,))
    assert bd.kappa_z0_form(data) == combination((4, pi_weight(dg.algebra, 1)))
    with pytest.raises(DomainError):
        bd.kappa_z0_form(bd.admissible_data(dg, None, None, (0,)))


def test_kappa_z0_form_b_exception_vector():
    dg = diagram("B", 4, {1, 4})
    data = bd.admissible_data(dg, 2, "left", (0, 0))
    assert bd.kappa_z0_form(data) == weight(
        dg.algebra, [0, Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)]
    )


def test_kappa_z0_form_d_fork_vectors():
    dg = diagram("D", 4, {3})
    left = bd.admissible_data(dg, 1, "left", (0,))
    right = bd.admissible_data(dg, 1, "right", (0,))
    quarter = Fraction(1, 4)
    assert bd.kappa_z0_form(left) == weight(dg.algebra, [3 * quarter, -quarter, -quarter, quarter])
    assert bd.kappa_z0_form(right) == weight(dg.algebra, [quarter, quarter, quarter, 3 * quarter])


def test_right_end_sign_normalisation():
    dg = diagram("A", 5, {1, 5})
    data = bd.admissible_data(dg, 2, "right", (1, -1))
    xi = bd.kappa_z0_form(data)
    beta = rs.simple_roots(dg.algebra)[3]  # node 4 = right end of the string
    assert inner(beta, xi) > 0
    assert xi == bd.kappa_z0_oracle(data)


def test_form_equals_oracle_small_sweep():
    rng = random.Random(3)
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 6):
            for dg in all_diagrams(fam, rank):
                p = len(dg.black)
                for info in bd.eligible_strings(dg):
                    for end in ("left", "right"):
                        chis = {tuple(0 for _ in range(p)),
                                tuple(rng.randint(-2, 2) for _ in range(p))}
                        for chi in chis:
                            data = bd.admissible_data(dg, info.start, end, chi)
                            assert bd.kappa_z0_form(data) == bd.kappa_z0_oracle(data), (dg.key(), info.nodes, end, chi)


def test_xi0_lies_in_the_center_direction():
    # orthogonal to every white simple root of the flag, positive on beta;
    # the character part is orthogonal node by node, so one chi suffices
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 8):
            for dg in all_diagrams(fam, rank):
                for info in bd.eligible_strings(dg):
                    for end in ("left", "right"):
                        data = bd.admissible_data(dg, info.start, end, tuple(1 for _ in sorted(dg.black)))
                        xi = bd.kappa_z0_form(data)
                        flag = data.end.flag
                        simples = rs.simple_roots(dg.algebra)
                        assert all(inner(xi, simples[w - 1]) == 0 for w in sorted(flag.white))
                        assert inner(xi, simples[data.end.beta_node - 1]) > 0


def test_kappa_su2_point_orbit():
    data = bd.admissible_data(diagram("A", 1, set()), 1, "left", ())
    ksq, kap = bd.kappa(data)
    assert ksq == Fraction(1, 8)
    assert math.isclose(kap, 1 / (2 * math.sqrt(2)), rel_tol=1e-15)


def test_kappa_point_orbit_closed_form():
    for m in (2, 3, 5, 7):
        data = bd.admissible_data(diagram("A", m - 1, set()), 1, "left", ())
        assert bd.kappa(data)[0] == Fraction(m - 1, 2 * m * m)


def test_kappa_b_exception_value():
    data = bd.admissible_data(diagram("B", 4, {1, 4}), 2, "left", (1, 1))
    assert bd.kappa(data)[0] == Fraction(11, 42)


def test_kappa_m1_scaling():
    dg = diagram("C", 3, {2})
    pi = pi_weight(dg.algebra, 2)
    for n in (1, 3, 5):
        data = bd.admissible_data(dg, None, None, (n,))
        assert bd.kappa(data)[0] == n * n * inner(pi, pi)


def test_kappa_against_trace_norm_formula():
    # kappa^2 = <chi, chi> + (m-1)/(2cm): the center part via the matrix
    # trace oracle, the su_m part from the Killing norm of the generator
    # i diag(m-1, -1, ..., -1), which is embedding-independent
    from conftest import killing_c, trace_inner

    cases = [
        ("A", 11, {3, 6}, 1, "left", (2, 3)),
        ("A", 5, {1, 5}, 2, "right", (1, -2)),
        ("B", 4, {1, 4}, 2, "left", (1, 1)),
        ("B", 5, {2, 5}, 3, "right", (-1, 2)),
        ("C", 4, {1, 4}, 2, "left", (2, -1)),
        ("D", 4, {3}, 1, "left", (1,)),
        ("D", 5, {4}, 1, "right", (2,)),
        ("D", 6, {1, 4}, 2, "left", (1, 3)),
    ]
    for fam, rank, black, start, end, chi in cases:
        dg = diagram(fam, rank, black)
        data = bd.admissible_data(dg, start, end, chi)
        c = killing_c(dg.algebra)
        m = data.end.m
        chi_w = pi_sum(dg.algebra, dg.black_nodes, chi)
        expected = trace_inner(dg.algebra, chi_w, chi_w)
        expected += Fraction(m - 1, 2 * c * m)
        assert bd.kappa(data)[0] == expected, (fam, rank, black, start, end)
    # rank one: kappa^2 = <chi, chi> alone
    dm1 = bd.admissible_data(diagram("B", 3, {1}), None, None, (4,))
    chi_w = pi_sum(dm1.end.s0.algebra, (1,), (4,))
    assert bd.kappa(dm1)[0] == trace_inner(dm1.end.s0.algebra, chi_w, chi_w)


def test_koszul_update_published_example():
    dg = diagram("A", 11, {3, 6})
    end = bd.end_of(dg, 1, "left")
    assert bd.predicted_koszul_update(end) == {1: 3, 3: 5, 6: 9}
    assert bd.koszul_update_check(end)
    assert pd.koszul(end.flag).numbers == {1: 3, 3: 5, 6: 9}


def test_koszul_update_exceptional_shapes():
    # through the B double edge: the end-side neighbour drops 2 (left) or
    # 2(m-1) (right)
    dg = diagram("B", 3, {1, 3})
    left = bd.end_of(dg, 2, "left")
    right = bd.end_of(dg, 2, "right")
    assert pd.koszul(dg).numbers == {1: 3, 3: 4}
    assert bd.predicted_koszul_update(left) == {1: 2, 2: 2, 3: 2}
    assert bd.koszul_update_check(left) and bd.koszul_update_check(right)

    # D fork: drop 2 (left) or m-2 (right)
    dgd = diagram("D", 4, {3})
    assert pd.koszul(dgd).numbers == {3: 6}
    dleft = bd.end_of(dgd, 1, "left")
    dright = bd.end_of(dgd, 1, "right")
    assert bd.predicted_koszul_update(dleft) == {1: 4, 3: 4}
    assert bd.predicted_koszul_update(dright) == {4: 4, 3: 4}
    assert bd.koszul_update_check(dleft) and bd.koszul_update_check(dright)

    # Sp tail attached through the C double edge follows the generic drop
    dgc = diagram("C", 3, {1, 3})
    cleft = bd.end_of(dgc, 2, "left")
    assert bd.koszul_update_check(cleft)
    assert bd.koszul_update_check(bd.end_of(dgc, 2, "right"))


def test_koszul_update_sweep():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 6):
            for dg in all_diagrams(fam, rank):
                for info in bd.eligible_strings(dg):
                    for end in ("left", "right"):
                        assert bd.koszul_update_check(bd.end_of(dg, info.start, end)), (dg.key(), info.nodes, end)


def test_koszul_update_requires_higher_rank():
    end = bd.end_of(diagram("B", 3, {1}), None, None)
    with pytest.raises(UsageError):
        bd.koszul_update_check(end)
