"""Exact univariate polynomials over the rationals.

Polynomials are tuples of Fractions in ascending degree order with a zero
leading coefficient never stored (the zero polynomial is the empty tuple).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Poly = tuple[Fraction, ...]


def make(coeffs: Sequence) -> Poly:
    return trim(tuple(Fraction(c) for c in coeffs))


def trim(p: Sequence[Fraction]) -> Poly:
    p = tuple(p)
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(tuple(out))


def integrate(p: Poly) -> Poly:
    """Antiderivative with zero constant term."""
    return trim((Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(p)))


def eval_exact(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc
