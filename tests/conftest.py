"""Shared helpers: independent oracles used across the test suite."""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

import pytest

from flagke import rootspace as rs
from flagke.errors import UsageError

FAMILY_MIN_RANK = {"A": 1, "B": 1, "C": 1, "D": 3}

# rank-one chi = -1 over projective spaces: J vanishes at the chamber exit
EXIT_ZERO = ("A1:*", "A2:*o", "A2:o*", "A3:*oo", "A3:oo*", "A4:*ooo", "A4:ooo*", "A5:*oooo",
             "A5:oooo*", "B1:*", "B2:o*", "C1:*", "C2:*o", "C3:*oo", "C4:*ooo", "C5:*oooo",
             "D3:o*o", "D3:oo*")


def weight(alg: rs.Algebra, coeffs) -> rs.Weight:
    """The weight of `alg` with the rational epsilon coordinates `coeffs`."""
    fracs = [Fraction(c) for c in coeffs]
    if len(fracs) != alg.ambient_dim:
        raise ValueError(f"{alg} weights need {alg.ambient_dim} coordinates, got {len(fracs)}")
    den = lcm(*(f.denominator for f in fracs))
    return rs.Weight.from_numerators(alg, tuple(f.numerator * (den // f.denominator) for f in fracs), den)


def zero_weight(alg: rs.Algebra) -> rs.Weight:
    """The zero form of `alg`."""
    return weight(alg, [0] * alg.ambient_dim)


def cartan_matrix(fam, n):
    """Rows 2<alpha_i, alpha_j>/<alpha_j, alpha_j> (0-based) from the Dynkin
    diagram: simple edges give -1 both ways; at a double edge the long
    root's row reads -2 under the short root (B: alpha_{n-1} over alpha_n,
    C: alpha_n over alpha_{n-1})."""
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    if fam == "D":
        simple = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif fam == "A" or n == 1:
        simple = [(i, i + 1) for i in range(n - 1)]
    else:
        simple = [(i, i + 1) for i in range(n - 2)]
        long_row, short_row = (n - 2, n - 1) if fam == "B" else (n - 1, n - 2)
        cartan[long_row][short_row] = -2
        cartan[short_row][long_row] = -1
    for i, j in simple:
        cartan[i][j] = cartan[j][i] = -1
    return cartan


def simple_root_coordinates(fam, n):
    """The epsilon coordinates of the simple roots (Humphreys, Introduction to
    Lie Algebras and Representation Theory, 12.1): eps_i - eps_{i+1}, then
    eps_n (B), 2 eps_n (C) or eps_{n-1} + eps_n (D); A_n lives in n + 1
    coordinates."""
    dim = n + 1 if fam == "A" else n
    roots = [[1 if k == i else -1 if k == i + 1 else 0 for k in range(dim)]
             for i in range(n if fam == "A" else n - 1)]
    last = {"B": {n - 1: 1}, "C": {n - 1: 2}, "D": {n - 2: 1, n - 1: 1}}.get(fam)
    if last:
        roots.append([last.get(k, 0) for k in range(dim)])
    return roots


def inverse(matrix):
    """The inverse of a nonsingular integer matrix, in Fractions, by Gauss-Jordan elimination."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


@lru_cache(maxsize=None)
def _fundamental_weights(alg: rs.Algebra) -> tuple[rs.Weight, ...]:
    roots = simple_root_coordinates(alg.family, alg.rank)
    return tuple(weight(alg, [sum(c * root[k] for c, root in zip(row, roots)) for k in range(alg.ambient_dim)])
                 for row in inverse(cartan_matrix(alg.family, alg.rank)))


def pi_weight(alg: rs.Algebra, node: int) -> rs.Weight:
    """The fundamental weight pi_node, row `node` of the inverse Cartan matrix
    applied to the simple roots (Humphreys 13.2), independent of rootspace's
    closed-form table and of its simple roots."""
    return _fundamental_weights(alg)[node - 1]


def combination(*terms) -> rs.Weight:
    """sum c w over the (c, w) of `terms`, all of one algebra: a weight has no
    arithmetic, so the sum is formed on its Fraction coordinates and rebuilt
    by `weight`."""
    alg = terms[0][1].algebra
    if any(w.algebra != alg for _, w in terms):
        raise ValueError(f"algebra mismatch in {terms!r}")
    total = [Fraction(0)] * alg.ambient_dim
    for c, w in terms:
        if c:
            total = [t + c * x for t, x in zip(total, w.coeffs)]
    return weight(alg, total)


def pi_sum(alg: rs.Algebra, nodes, ks) -> rs.Weight:
    """sum k_j pi_j over `nodes`, on the Fraction coordinates of `pi_weight`."""
    return combination((0, zero_weight(alg)), *((k, pi_weight(alg, node)) for node, k in zip(nodes, ks)))


def trace_free(w: rs.Weight) -> list[Fraction]:
    """Rational coordinates of `w`; for family A, with their mean subtracted."""
    coeffs = list(w.coeffs)
    if w.algebra.family != "A":
        return coeffs
    mean = sum(coeffs) / len(coeffs)
    return [c - mean for c in coeffs]


def killing_c(alg: rs.Algebra) -> int:
    """The constant c with <eps_i, eps_j> = delta_ij/(2c) for the Killing form
    (Bourbaki, Lie Groups and Lie Algebras, ch. VI, plates I-IV): n + 1 for
    A_n, 2n - 1 for B_n, 2n + 2 for C_n and 2n - 2 for D_n, independent of
    rootspace's own table."""
    n = alg.rank
    return {"A": n + 1, "B": 2 * n - 1, "C": 2 * n + 2, "D": 2 * n - 2}[alg.family]


def inner(x: rs.Weight, y: rs.Weight) -> Fraction:
    """Killing-form inner product <x, y>: one integer dot product of the
    numerators over x.den y.den 2c, c from `killing_c`.  A family-A weight
    is stored trace-free, so no projection is needed.  Pairing weights of
    two algebras is a usage error."""
    alg = x.algebra
    if alg != y.algebra:
        raise UsageError(f"algebra mismatch: {alg} vs {y.algebra}")
    return Fraction(sum(map(mul, x.num, y.num)), x.den * y.den * 2 * killing_c(alg))


def trace_inner(alg: rs.Algebra, x: rs.Weight, y: rs.Weight) -> Fraction:
    """Killing-form pairing via explicit diagonal matrix representatives.

    The dual of a weight v is the diagonal (hermitian) matrix diag(v)/(2c),
    embedded once for su_n and as (D, -D) (plus a zero row for odd
    orthogonal) otherwise; the Killing form is the family multiple of the
    trace form.  Independent of the epsilon-dot shortcut in rootspace.
    """
    c = killing_c(alg)
    xp = trace_free(x)
    yp = trace_free(y)
    if alg.family == "A":
        n = alg.ambient_dim
        factor = 2 * Fraction(n)  # B = 2n tr(XY)
        diag_x = [v / (2 * c) for v in xp]
        diag_y = [v / (2 * c) for v in yp]
    else:
        n = alg.rank
        factor = {
            "B": Fraction(2 * n - 1),
            "C": 2 * Fraction(n + 1),
            "D": 2 * Fraction(n - 1),
        }[alg.family]
        diag_x = [v / (2 * c) for v in xp] + [-v / (2 * c) for v in xp]
        diag_y = [v / (2 * c) for v in yp] + [-v / (2 * c) for v in yp]
        if alg.family == "B":
            diag_x.append(Fraction(0))
            diag_y.append(Fraction(0))
    return factor * sum(a * b for a, b in zip(diag_x, diag_y))


@lru_cache(maxsize=None)
def pi_gram(alg: rs.Algebra) -> tuple[tuple[Fraction, ...], ...]:
    """G_ij = <pi_i, pi_j> (0-based), paired by `trace_inner` over
    `pi_weight`: the inverse Cartan matrix and the Killing constant of
    `killing_c` (Humphreys 13.2; Bourbaki, ch. VI, plates I-IV), with no
    production weight table or inner product."""
    pis = _fundamental_weights(alg)
    return tuple(tuple(trace_inner(alg, x, y) for y in pis) for x in pis)


def kappa_sq_oracle(s0, m: int, chi) -> Fraction:
    """kappa^2 of a datum of rank m with character chi over the black nodes
    of s0: chi^T G chi + (m - 1)/(2cm), G from `pi_gram`.  xi_0 = +-(chi +
    w/m), with w the trace-free virtual-epsilon vector (m - 1) e_beta - sum
    of the other m - 1 e_i of the string.  w is a sum of the string's white
    simple roots, so it is orthogonal to every black pi_j; the cross term
    vanishes, so the sign of chi cannot show, and |w|^2 = m(m - 1)/(2c)."""
    gram, nodes = pi_gram(s0.algebra), s0.black_nodes
    quad = sum(a * b * gram[i - 1][j - 1] for i, a in zip(nodes, chi) for j, b in zip(nodes, chi))
    return quad + Fraction(m - 1, 2 * killing_c(s0.algebra) * m)


def trace_coordinates(alg: rs.Algebra, x: rs.Weight) -> tuple[Fraction, ...]:
    """Coordinates of `x` over the fundamental weights, 2<x, alpha_i>/<alpha_i, alpha_i>,
    paired by `trace_inner` instead of rootspace."""
    return tuple(2 * trace_inner(alg, x, a) / trace_inner(alg, a, a) for a in rs.simple_roots(alg))


def diagram_automorphism(alg: rs.Algebra) -> dict[int, int]:
    """The node map of the Dynkin diagram automorphism of A_n (the flip j ->
    n + 1 - j) or D_n (the swap of the fork tips n - 1 and n), Humphreys
    12.2; B and C have none."""
    n = alg.rank
    if alg.family == "A":
        return {j: n + 1 - j for j in range(1, n + 1)}
    if alg.family == "D":
        return {j: {n - 1: n, n: n - 1}.get(j, j) for j in range(1, n + 1)}
    raise ValueError(f"{alg} has no diagram automorphism")


def automorphism_image(s0, start, beta_end, chi):
    """(diagram, string start, end, chi) of the image of a datum under
    `diagram_automorphism`: black nodes, string and chi relabelled.  The A
    flip reverses the string's path order, so the root painted at one end
    goes to the root at the other end, which reads chi through k -> -k: there
    the image takes the other end and -chi."""
    from flagke import bundle as bd, painted as pd

    perm = diagram_automorphism(s0.algebra)
    image = pd.PaintedDiagram(s0.algebra, frozenset(perm[j] for j in s0.black))
    by_node = dict(zip(s0.black_nodes, chi))
    sign = 1
    if start is not None:
        (nodes,) = [s.nodes for s in bd.eligible_strings(s0) if s.start == start]
        start = min(perm[i] for i in nodes)
        if s0.algebra.family == "A":
            beta_end, sign = {"left": "right", "right": "left"}[beta_end], -1
    return image, start, beta_end, tuple(sign * by_node[perm[j]] for j in image.black_nodes)


def all_diagrams(family: str, rank: int):
    """Every painting of the given diagram, all-white included."""
    from flagke import painted as pd

    alg = rs.Algebra(family, rank)
    for bits in range(1 << rank):
        black = frozenset(i + 1 for i in range(rank) if bits >> i & 1)
        yield pd.PaintedDiagram(alg, black)


@pytest.fixture
def a11_diagram():
    from flagke import diagram

    return diagram("A", 11, {3, 6})
