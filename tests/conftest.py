"""Shared helpers: independent oracles used across the test suite."""

from fractions import Fraction
from math import lcm

import pytest

from flagke import rootspace as rs

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


def pi_sum(alg: rs.Algebra, nodes, ks) -> rs.Weight:
    """sum k_j pi_j over `nodes`, by Weight arithmetic on `fundamental_weight`."""
    total = zero_weight(alg)
    for node, k in zip(nodes, ks):
        total = total + k * rs.fundamental_weight(alg, node)
    return total


def trace_free(w: rs.Weight) -> list[Fraction]:
    """Rational coordinates of `w`; for family A, with their mean subtracted."""
    coeffs = list(w.coeffs)
    if w.algebra.family != "A":
        return coeffs
    mean = sum(coeffs) / len(coeffs)
    return [c - mean for c in coeffs]


def trace_inner(alg: rs.Algebra, x: rs.Weight, y: rs.Weight) -> Fraction:
    """Killing-form pairing via explicit diagonal matrix representatives.

    The dual of a weight v is the diagonal (hermitian) matrix diag(v)/(2c),
    embedded once for su_n and as (D, -D) (plus a zero row for odd
    orthogonal) otherwise; the Killing form is the family multiple of the
    trace form.  Independent of the epsilon-dot shortcut in rootspace.
    """
    c = alg.killing_constant
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


def trace_coordinates(alg: rs.Algebra, x: rs.Weight) -> tuple[Fraction, ...]:
    """Coordinates of `x` over the fundamental weights, 2<x, alpha_i>/<alpha_i, alpha_i>,
    paired by `trace_inner` instead of rootspace."""
    return tuple(2 * trace_inner(alg, x, a) / trace_inner(alg, a, a) for a in rs.simple_roots(alg))


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
