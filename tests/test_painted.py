import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from flagke import diagram, painted as pd, rootspace as rs
from flagke.errors import DomainError, UsageError

from conftest import FAMILY_MIN_RANK, all_diagrams, combination, pi_weight, trace_coordinates, trace_free, \
    trace_inner, weight, zero_weight


def in_span(alg, vectors, target) -> bool:
    """Exact rational rank test: is `target` in the span of `vectors`?"""
    rows = [trace_free(v) for v in vectors]
    t = trace_free(target)
    cols = len(t)
    pivots = 0
    for col in range(cols):
        pivot_row = next((r for r in range(pivots, len(rows)) if rows[r][col] != 0), None)
        if pivot_row is None:
            continue
        rows[pivots], rows[pivot_row] = rows[pivot_row], rows[pivots]
        pv = rows[pivots][col]
        rows[pivots] = [v / pv for v in rows[pivots]]
        for r in range(len(rows)):
            if r != pivots and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivots])]
        if t[col] != 0:
            f = t[col]
            t = [a - f * b for a, b in zip(t, rows[pivots])]
        pivots += 1
    return all(v == 0 for v in t)


def test_white_components_with_fork():
    assert pd.white_components(diagram("D", 4, {2})) == ((1,), (3,), (4,))
    assert pd.white_components(diagram("D", 5, {2})) == ((1,), (3, 4, 5))
    assert pd.white_components(diagram("A", 11, {3, 6})) == ((1, 2), (4, 5), (7, 8, 9, 10, 11))
    assert pd.white_components(diagram("B", 3, {1})) == ((2, 3),)


def test_r_m_plus_examples():
    full = diagram("A", 2, {1, 2})
    assert len(pd.r_m_plus(full)) == 3
    assert pd.r_m_plus(diagram("A", 2, set())) == ()
    b3 = diagram("B", 3, {1})
    got = set(pd.r_m_plus(b3))
    alg = b3.algebra
    expect = {
        weight(alg, [1, -1, 0]),
        weight(alg, [1, 0, -1]),
        weight(alg, [1, 1, 0]),
        weight(alg, [1, 0, 1]),
        weight(alg, [1, 0, 0]),
    }
    assert got == expect


def test_r_m_plus_against_span_oracle():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 5):
            for dg in all_diagrams(fam, rank):
                simples = rs.simple_roots(dg.algebra)
                whites = [simples[i - 1] for i in sorted(dg.white)]
                mem = set(pd.r_m_plus(dg))
                for root in rs.positive_roots(dg.algebra):
                    spanned = in_span(dg.algebra, whites, root) if whites else root == zero_weight(dg.algebra)
                    assert (root in mem) == (not spanned), (dg.key(), root)


def test_r_m_plus_partitions_positive_roots():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 9):
            for dg in all_diagrams(fam, rank):
                supports = rs.positive_root_supports(dg.algebra)
                n_white = sum(1 for s in supports if not (s & dg.black))
                assert n_white + len(pd.r_m_plus(dg)) == len(rs.positive_roots(dg.algebra))


def test_koszul_published_examples():
    assert pd.koszul(diagram("A", 11, {3, 6})).numbers == {3: 6, 6: 9}
    assert pd.koszul(diagram("A", 5, {1, 5})).numbers == {1: 5, 5: 5}
    assert pd.koszul(diagram("A", 3, {1, 2, 3})).numbers == {1: 2, 2: 2, 3: 2}


def test_koszul_tail_examples():
    assert pd.koszul(diagram("B", 3, {1})).numbers == {1: 5}
    assert pd.koszul(diagram("C", 3, {1})).numbers == {1: 6}
    assert pd.koszul(diagram("D", 4, {1})).numbers == {1: 6}
    assert pd.koszul(diagram("D", 4, {4})).numbers == {4: 6}
    assert pd.koszul(diagram("B", 2, {2})).numbers == {2: 4}


def test_koszul_sigma_is_exact_root_sum():
    dg = diagram("B", 3, {1})
    assert pd.koszul(dg).sigma == weight(dg.algebra, [5, 0, 0])
    dg = diagram("D", 4, {4})
    assert pd.koszul(dg).sigma == weight(dg.algebra, [3, 3, 3, 3])


def test_koszul_rejects_all_white():
    with pytest.raises(DomainError):
        pd.koszul(diagram("A", 3, set()))


def test_koszul_rule_matches_sum_when_unambiguous():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 6):
            for dg in all_diagrams(fam, rank):
                if not dg.black:
                    continue
                assert pd.koszul_rule(dg) == dict(pd.koszul(dg).numbers), dg.key()


def test_koszul_rule_ambiguous_cases_are_marked():
    # the black B short node, and a black D fork tip whose sibling tip lies in
    # the adjacent white component, against the root sums
    cases = {
        ("D", 4, (4,)): {4: 6},
        ("B", 2, (2,)): {2: 4},
        ("B", 5, (5,)): {5: 10},
        ("D", 6, (5,)): {5: 10},
        ("D", 7, (3, 7)): {3: 7, 7: 6},
        ("B", 2, (1, 2)): {1: 2, 2: 2},  # black short node with no white neighbour
    }
    for (fam, rank, black), expected in cases.items():
        dg = diagram(fam, rank, black)
        assert pd.koszul_rule(dg) == expected, dg.key()
        assert pd.koszul(dg).numbers == expected, dg.key()


def test_koszul_is_cached_and_read_only():
    dg = diagram("A", 11, {3, 6})
    assert pd.koszul(dg) is pd.koszul(dg)
    with pytest.raises(TypeError):
        pd.koszul(dg).numbers[3] = 7


def test_koszul_checks_the_rule_when_built(monkeypatch):
    monkeypatch.setattr(pd, "koszul_rule", lambda dg: {j: 3 for j in dg.black_nodes})
    pd.koszul.cache_clear()
    try:
        with pytest.raises(AssertionError, match="white-neighbour count"):
            pd.koszul(diagram("A", 11, {3, 6}))
    finally:
        pd.koszul.cache_clear()


def test_koszul_check_raises_under_python_O():
    # the check must not be an `assert`, which -O strips
    script = textwrap.dedent("""
        from flagke import diagram, painted as pd
        pd.koszul_rule = lambda dg: {j: 3 for j in dg.black_nodes}
        pd.koszul.cache_clear()
        try:
            pd.koszul(diagram("A", 11, {3, 6}))
        except AssertionError as exc:
            print("raised:", exc)
        else:
            print("built")
    """)
    src = str(Path(pd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: A11:oo*oo*ooooo: root-sum Koszul numbers"), proc.stdout


def test_black_nodes_are_sorted_once_and_not_compared():
    dg = diagram("D", 7, {7, 3, 5})
    assert dg.black_nodes == (3, 5, 7)
    assert dg == diagram("D", 7, (3, 5, 7)) and hash(dg) == hash(diagram("D", 7, (5, 7, 3)))
    assert repr(dg) == "PaintedDiagram('D7:oo*o*o*')"


def test_koszul_numbers_positive_integers():
    for fam, minr in FAMILY_MIN_RANK.items():
        for rank in range(minr, 7):
            for dg in all_diagrams(fam, rank):
                if not dg.black:
                    continue
                for j, n in pd.koszul(dg).numbers.items():
                    assert isinstance(n, int) and n >= 2, (dg.key(), j, n)


def test_chamber_contains():
    dg = diagram("A", 5, {1, 5})
    sigma = pd.koszul(dg).sigma
    assert pd.chamber_contains(dg, sigma)
    assert not pd.chamber_contains(dg, zero_weight(dg.algebra))
    assert not pd.chamber_contains(dg, combination((-1, sigma)))


def kaehler_coefficients(dg, xi):
    """The per-root coefficients 2<alpha, xi>/<alpha, alpha> over R_m^+ by the
    trace form; xi must be orthogonal to every white simple root."""
    alg = dg.algebra
    coords = trace_coordinates(alg, xi)
    if any(coords[i - 1] for i in dg.white):
        raise UsageError("xi must be orthogonal to every white simple root")
    return {a: 2 * trace_inner(alg, a, xi) / trace_inner(alg, a, a) for a in pd.r_m_plus(dg)}


def is_hodge(dg, xi):
    """Whether xi has integer coordinates over the black fundamental weights."""
    coords = trace_coordinates(dg.algebra, xi)
    return all(coords[j - 1].denominator == 1 for j in dg.black)


def test_kaehler_coefficients_full_black_a1():
    dg = diagram("A", 1, {1})
    sigma = pd.koszul(dg).sigma
    coeffs = kaehler_coefficients(dg, sigma)
    (root,) = list(coeffs)
    assert coeffs[root] == 2


def test_kaehler_coefficients_zero_and_precondition():
    dg = diagram("A", 5, {1, 5})
    zero = zero_weight(dg.algebra)
    assert all(v == 0 for v in kaehler_coefficients(dg, zero).values())
    alpha2 = rs.simple_roots(dg.algebra)[1]  # not orthogonal to white node 2
    with pytest.raises(UsageError):
        kaehler_coefficients(dg, alpha2)


def test_kaehler_coefficient_signs_match_chamber_membership():
    rng = random.Random(11)
    for fam in ("A", "B", "C", "D"):
        rank = 4 if fam != "A" else 5
        for dg in all_diagrams(fam, rank):
            if not dg.black:
                continue
            for _ in range(4):
                xi = zero_weight(dg.algebra)
                for j in sorted(dg.black):
                    xi = combination((1, xi), (Fraction(rng.randint(-3, 3)), pi_weight(dg.algebra, j)))
                coeffs = kaehler_coefficients(dg, xi)
                assert (all(v > 0 for v in coeffs.values())) == pd.chamber_contains(dg, xi)


def test_is_hodge():
    dg = diagram("A", 5, {1, 5})
    sigma = pd.koszul(dg).sigma
    assert is_hodge(dg, sigma)
    assert not is_hodge(dg, combination((Fraction(1, 2), sigma)))
    assert is_hodge(dg, combination((3, pi_weight(dg.algebra, 1))))


def test_mask_and_key():
    dg = diagram("A", 11, {3, 6})
    assert dg.mask() == "oo*oo*ooooo"
    assert dg.key() == "A11:oo*oo*ooooo"
    assert diagram("D", 4, {4}).key() == "D4:ooo*"
