import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagke import rootspace as rs
from flagke.errors import UsageError

from conftest import FAMILY_MIN_RANK, cartan_matrix, combination, inner, killing_c, pi_weight, \
    simple_root_coordinates, trace_coordinates, trace_inner, weight, zero_weight


def w(alg, *coeffs):
    return weight(alg, coeffs)


def test_simple_roots_examples():
    a2 = rs.Algebra("A", 2)
    assert list(rs.simple_roots(a2)) == [w(a2, 1, -1, 0), w(a2, 0, 1, -1)]
    c2 = rs.Algebra("C", 2)
    assert list(rs.simple_roots(c2)) == [w(c2, 1, -1), w(c2, 0, 2)]
    d3 = rs.Algebra("D", 3)
    assert list(rs.simple_roots(d3)) == [w(d3, 1, -1, 0), w(d3, 0, 1, -1), w(d3, 0, 1, 1)]


def test_positive_root_counts():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 10):
            alg = rs.Algebra(fam, rank)
            n = len(rs.positive_roots(alg))
            if fam == "A":
                assert n == rank * (rank + 1) // 2
            elif fam in ("B", "C"):
                assert n == rank * rank
            else:
                assert n == rank * (rank - 1)


def test_positive_roots_examples():
    a2 = rs.Algebra("A", 2)
    assert set(rs.positive_roots(a2)) == {w(a2, 1, -1, 0), w(a2, 1, 0, -1), w(a2, 0, 1, -1)}
    b2 = rs.Algebra("B", 2)
    assert set(rs.positive_roots(b2)) == {w(b2, 1, -1), w(b2, 1, 1), w(b2, 1, 0), w(b2, 0, 1)}
    assert len(rs.positive_roots(rs.Algebra("D", 4))) == 12


def reflection_closure(simples):
    """(root, simple-root coordinates) for every root of the system that the
    `simples` (plain coordinate tuples) generate: their closure under
    s_i b = b - 2(b.a_i)/(a_i.a_i) a_i, in Fractions, independent of rootspace."""
    simples = [tuple(Fraction(c) for c in a) for a in simples]
    supports = [[(k, y) for k, y in enumerate(a) if y] for a in simples]  # a simple root has at most two
    norms = [sum(y * y for _, y in support) for support in supports]
    units = [tuple(Fraction(int(i == j)) for j in range(len(simples))) for i in range(len(simples))]
    roots = dict(zip(simples, units))
    frontier = list(roots)
    while frontier:
        b = frontier.pop()
        for i, (support, norm) in enumerate(zip(supports, norms)):
            c = 2 * sum(b[k] * y for k, y in support) / norm
            if not c:
                continue
            image = list(b)
            for k, y in support:
                image[k] -= c * y
            image = tuple(image)
            if image not in roots:
                coords = list(roots[b])
                coords[i] -= c
                roots[image] = tuple(coords)
                frontier.append(image)
    return roots


def test_root_tables_match_the_reflection_closure_to_rank_16():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 17):
            alg = rs.Algebra(fam, rank)
            simples = simple_root_coordinates(fam, rank)
            assert list(rs.simple_roots(alg)) == [weight(alg, a) for a in simples], (fam, rank)
            closure = reflection_closure(simples)
            positive = {root for root, coords in closure.items() if all(c >= 0 for c in coords)}
            assert len(positive) * 2 == len(closure), (fam, rank)  # every root is positive or negative
            table = [root.coeffs for root in rs.positive_roots(alg)]
            assert len(set(table)) == len(table), (fam, rank)
            assert set(table) == positive, (fam, rank)


def table_pi(alg, node):
    """pi_node as `fundamental_numerators` tabulates it."""
    den, cols = rs.fundamental_numerators(alg)
    return rs.Weight.from_numerators(alg, cols[node - 1], den)


def test_fundamental_weight_defining_relations():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 10):
            alg = rs.Algebra(fam, rank)
            simples = rs.simple_roots(alg)
            for i in range(1, rank + 1):
                pi = table_pi(alg, i)
                for j, alpha in enumerate(simples, start=1):
                    val = 2 * inner(pi, alpha) / inner(alpha, alpha)
                    assert val == (1 if i == j else 0), (fam, rank, i, j)


def test_fundamental_weight_closed_forms():
    b4 = rs.Algebra("B", 4)
    assert table_pi(b4, 4) == w(b4, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    d4 = rs.Algebra("D", 4)
    assert table_pi(d4, 3) == w(d4, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))
    assert table_pi(d4, 4) == w(d4, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    a3 = rs.Algebra("A", 3)
    assert table_pi(a3, 2) == w(a3, 1, 1, 0, 0)


def test_fundamental_numerators_match_the_inverse_cartan_matrix_to_rank_16():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 17):
            alg = rs.Algebra(fam, rank)
            assert [table_pi(alg, i) for i in range(1, rank + 1)] == \
                [pi_weight(alg, i) for i in range(1, rank + 1)], (fam, rank)


def test_inner_killing_normalisation_a3():
    a3 = rs.Algebra("A", 3)
    alpha = w(a3, 1, -1, 0, 0)
    assert a3.two_c == 2 * killing_c(a3) == 8
    assert inner(alpha, alpha) == Fraction(1, 4)


def test_inner_matches_trace_oracle():
    rng = random.Random(7)
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(max(minr, 2), 5):
            alg = rs.Algebra(fam, rank)
            vecs = list(rs.simple_roots(alg))
            vecs += [pi_weight(alg, i) for i in range(1, rank + 1)]
            vecs += [
                weight(alg, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(alg.ambient_dim)])
                for _ in range(4)
            ]
            for x in vecs:
                for y in vecs:
                    assert inner(x, y) == trace_inner(alg, x, y), (fam, rank)


def test_highest_root_norm_is_inverse_dual_coxeter():
    cases = {
        ("A", 3): (w(rs.Algebra("A", 3), 1, 0, 0, -1), 4),
        ("B", 3): (w(rs.Algebra("B", 3), 1, 1, 0), 5),
        ("C", 3): (w(rs.Algebra("C", 3), 2, 0, 0), 4),
        ("D", 4): (w(rs.Algebra("D", 4), 1, 1, 0, 0), 6),
    }
    for (fam, rank), (theta, hv) in cases.items():
        assert inner(theta, theta) == Fraction(1, hv), (fam, rank)


def test_family_a_projection_semantics():
    a3 = rs.Algebra("A", 3)
    x = w(a3, 1, 1, 0, 0)
    alpha = w(a3, 1, -1, 0, 0)
    # pairing a non-trace-free representative with a root needs no projection
    assert inner(x, alpha) == sum(a * b for a, b in zip(x.coeffs, alpha.coeffs)) / 8
    # representatives differing by a trace multiple compare equal
    ones = w(a3, 1, 1, 1, 1)
    assert x == combination((1, x), (1, ones))
    assert hash(x) == hash(combination((1, x), (1, ones)))
    assert x != combination((1, x), (1, alpha))


def simple_coordinates(alg, w):
    """Coordinates of `w` in the simple-root basis, as Fractions: its pairings
    with the fundamental coweights 2 pi_i / <alpha_i, alpha_i>, since
    <alpha_j, pi_i> = delta_ij <alpha_i, alpha_i> / 2."""
    return tuple(2 * inner(w, pi_weight(alg, i)) / inner(alpha, alpha)
                 for i, alpha in enumerate(rs.simple_roots(alg), start=1))


def test_positive_root_simple_coordinates_are_nonnegative_integers():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 7):
            alg = rs.Algebra(fam, rank)
            for root in rs.positive_roots(alg):
                coords = simple_coordinates(alg, root)
                assert all(c.denominator == 1 and c >= 0 for c in coords), (fam, rank, root)
                assert any(c > 0 for c in coords)


def test_simple_coordinates_rebuild_every_positive_root_to_rank_16():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 17):
            alg = rs.Algebra(fam, rank)
            simples = rs.simple_roots(alg)
            for root in rs.positive_roots(alg):
                rebuilt = combination(*zip(simple_coordinates(alg, root), simples))
                assert rebuilt == root, (fam, rank, root)


def test_positive_root_supports_are_nonzero_simple_coordinates_to_rank_16():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 17):
            alg = rs.Algebra(fam, rank)
            expected = tuple(
                frozenset(i for i, c in enumerate(simple_coordinates(alg, root), start=1) if c != 0)
                for root in rs.positive_roots(alg)
            )
            assert rs.positive_root_supports(alg) == expected, (fam, rank)


def test_fundamental_coordinates_to_rank_16():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 17):
            alg = rs.Algebra(fam, rank)
            for i in range(1, rank + 1):
                unit = tuple(int(j == i) for j in range(1, rank + 1))
                assert rs.fundamental_coordinates(alg, pi_weight(alg, i)) == unit, (fam, rank, i)
            rows = [rs.fundamental_coordinates(alg, alpha) for alpha in rs.simple_roots(alg)]
            assert rows == [tuple(row) for row in cartan_matrix(fam, rank)], (fam, rank)


@st.composite
def weights_to_rank_16(draw):
    """A weight of A-D at ranks 1-16 with small rational epsilon coordinates."""
    fam = draw(st.sampled_from(rs.FAMILIES))
    alg = rs.Algebra(fam, draw(st.integers(FAMILY_MIN_RANK[fam], 16)))
    coord = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    return weight(alg, draw(st.lists(coord, min_size=alg.ambient_dim, max_size=alg.ambient_dim)))


@settings(max_examples=300, deadline=None, database=None)
@given(weights_to_rank_16())
def test_fundamental_coordinates_match_trace_form(x):
    assert rs.fundamental_coordinates(x.algebra, x) == trace_coordinates(x.algebra, x)


def test_algebra_validation():
    with pytest.raises(UsageError, match="requires rank >= 3"):
        rs.Algebra("D", 2)
    with pytest.raises(UsageError, match="unknown family"):
        rs.Algebra("E", 6)
    with pytest.raises(UsageError, match="requires rank >= 1"):
        rs.Algebra("A", 0)


def test_algebra_mismatch_rejected():
    a2 = rs.Algebra("A", 2)
    b2 = rs.Algebra("B", 2)
    with pytest.raises(UsageError):
        inner(zero_weight(a2), zero_weight(b2))
    with pytest.raises(UsageError):
        rs.fundamental_coordinates(a2, zero_weight(b2))


RATIONALS = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 12))


@st.composite
def weight_cases(draw):
    """An algebra of rank 1-16 (past MAX_RANK_BOUND) and two rational coordinate tuples."""
    fam = draw(st.sampled_from(rs.FAMILIES))
    alg = rs.Algebra(fam, draw(st.integers(FAMILY_MIN_RANK[fam], 16)))
    coords = st.lists(RATIONALS, min_size=alg.ambient_dim, max_size=alg.ambient_dim).map(tuple)
    return alg, draw(coords), draw(coords)


def _reference_key(alg, coeffs):
    """What a weight is as a form: family A forgets the mean of its coordinates,
    and its stored coordinates are this trace-free tuple."""
    if alg.family != "A":
        return coeffs
    mean = sum(coeffs) / len(coeffs)
    return tuple(c - mean for c in coeffs)


@settings(max_examples=300, deadline=None, database=None)
@given(weight_cases(), RATIONALS)
def test_weight_matches_fraction_tuples(case, shift):
    alg, x, y = case
    wx, wy = weight(alg, x), weight(alg, y)
    ref = lambda coeffs: _reference_key(alg, tuple(coeffs))  # noqa: E731
    assert wx.coeffs == ref(x) and wy.coeffs == ref(y)
    if alg.family == "A":
        assert sum(wx.num) == 0 and sum(wy.num) == 0
    assert weight(alg, wx.coeffs) == wx

    zero = tuple(Fraction(0) for _ in x)
    assert (wx == zero_weight(alg)) == (_reference_key(alg, x) == _reference_key(alg, zero))
    flat = weight(alg, [shift] * alg.ambient_dim)
    assert (flat == zero_weight(alg)) == (alg.family == "A" or shift == 0)

    same = _reference_key(alg, x) == _reference_key(alg, y)
    assert (wx == wy) == same and (wx != wy) == (not same)
    if same:
        assert hash(wx) == hash(wy)
    shifted = weight(alg, [a + shift for a in x])
    assert (shifted == wx) == (alg.family == "A" or shift == 0)
    if alg.family == "A":
        assert hash(shifted) == hash(wx)
        assert inner(shifted, wy) == inner(wx, wy)

    assert inner(wx, wy) == trace_inner(alg, wx, wy)
    for field in ("algebra", "num", "den", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(wx, field, getattr(wy, field))
    assert wx.coeffs == ref(x)
