"""Existence and uniqueness of the invariant Kaehler-Einstein metric.

All decisions are exact rational comparisons against the Koszul numbers
n_j of the singular-orbit diagram:

  rank m > 1, beta = left end:   lambda = 0  iff  m | n_j and k_j = n_j/m,
                                 lambda > 0  iff  k_j < n_j/m,
                                 lambda < 0  iff  k_j > n_j/m;
  beta = right end: mirror the three conditions through k_j -> -k_j.

  rank m = 1:  lambda = 0 iff k_j = n_j, lambda > 0 iff k_j < n_j,
               lambda < 0 iff k_j > n_j.

A diagram with no black node imposes no conditions: every Einstein constant
occurs.  A negative Einstein constant always extends to a complete metric;
for lambda != 0 the metric is unique and its initial vertex Z_0 is the exact
dual form returned by `z0_form`.

The ray condition <xi_0, alpha_j> > 0 on the black roots (the admissible
segment continues to a ray in the chamber for lambda != 0), which
`classify` reports as `ray_extends`, is a bound of the same kind, on the
Koszul-number drops d_j of `bundle.neighbour_drops`: k_j > d_j/m at the
left end, k_j < -d_j/m at the right end, k_j > 0 for rank one (d_j = 0 for
a black node that is not a neighbour of the string).  A black j met at path
position p of the string's s = m - 1 nodes, at node i, drops by
|<alpha_i, alpha_j^v>| (s + 1 - p) at the left end and |<alpha_i, alpha_j^v>| p
at the right: the change of the string's 2 rho coefficient p(s + 1 - p) there.

`criterion` builds the chi-free half once per `bundle.End` record: bounds
from integer numerators over m, their integer edges by floor division, and
one shared `Bound` object per (node, op, numerator, m), as bounds are immutable.
It checks there that the lambda < 0 bounds imply the ray bounds: n_j - d_j
is the Koszul number of the flag at j, so it is positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import bundle as bd
from . import painted as pd
from . import rootspace as rs
from .errors import DomainError, UsageError


@dataclass(frozen=True)
class Bound:
    """A strict bound ``k_<node> <op> value`` on one character coefficient.
    `edge` is the extreme admissible integer, so an integer k holds the bound
    iff k <= edge ('<') or k >= edge ('>')."""

    node: int
    op: str  # '<' | '>'
    value: Fraction
    edge: int = field(init=False, repr=False, compare=False)
    text: str = field(init=False, repr=False, compare=False)  # `str`, formatted once

    def __post_init__(self):
        op, v = self.op, self.value
        if op not in ("<", ">") or not isinstance(v, (int, Fraction)):
            raise UsageError(f"a bound needs op '<' or '>' and an exact value, got {op!r} {v!r}")
        p, q = v.numerator, v.denominator
        object.__setattr__(self, "edge", -(-p // q) - 1 if op == "<" else p // q + 1)
        object.__setattr__(self, "text", f"k_{self.node} {op} {rs.frac_str(v)}")

    def holds(self, k: int) -> bool:
        return k <= self.edge if self.op == "<" else k >= self.edge

    def __str__(self) -> str:
        return self.text


def satisfied(bounds: tuple[Bound, ...], chi: tuple[int, ...]) -> bool:
    """Whether the integer `chi`, aligned with the ascending black nodes, meets
    every bound."""
    return all(map(Bound.holds, bounds, chi))


@dataclass(frozen=True)
class LambdaZeroVerdict:
    exists: bool
    required_chi: Optional[tuple[int, ...]]  # defined whenever all m | n_j


@dataclass(frozen=True)
class LambdaPosVerdict:
    exists: bool
    constraint: tuple[Bound, ...]


@dataclass(frozen=True)
class LambdaNegVerdict:
    exists: bool
    constraint: tuple[Bound, ...]

    @property
    def complete(self) -> bool:
        """An admitted negative constant always extends to a complete metric."""
        return self.exists


@dataclass(frozen=True)
class EinsteinVerdict:
    lambda_zero: LambdaZeroVerdict
    lambda_pos: LambdaPosVerdict
    lambda_neg: LambdaNegVerdict
    ray_extends: bool  # the lambda != 0 ray condition on Z^0


@dataclass(frozen=True)
class Criterion:
    """The chi-independent half of the verdicts of one (diagram, string, end)."""

    numbers: tuple[int, ...]                 # Koszul numbers n_j, ascending black nodes
    required_chi: Optional[tuple[int, ...]]  # the lambda = 0 character, when all m | n_j
    pos: tuple[Bound, ...]                   # lambda > 0 iff chi meets all of these
    neg: tuple[Bound, ...]                   # lambda < 0 iff chi meets all of these
    ray: tuple[Bound, ...]                   # xi_0 > 0 on the black roots iff chi meets these


@lru_cache(maxsize=None)
def _bound(node: int, op: str, p: int, q: int) -> Bound:
    """The bound ``k_<node> <op> p/q`` (q > 0), one shared object per key."""
    return Bound(node, op, Fraction(p, q))


@lru_cache(maxsize=None)
def criterion(end: bd.End) -> Criterion:
    """Bounds and lambda = 0 character of one `bundle.End`, shared by its data."""
    nodes = end.s0.black_nodes
    numbers = pd.koszul(end.s0).numbers if nodes else {}
    ns = tuple(numbers[j] for j in nodes)
    m, sign = end.m, end.sign  # the right end mirrors the left one through k_j -> -k_j
    below, above = ("<", ">") if sign > 0 else (">", "<")
    integral = all(n % m == 0 for n in ns)
    drops = dict(end.drops)
    neg = tuple(_bound(j, above, sign * n, m) for j, n in zip(nodes, ns))
    ray = tuple(_bound(j, above, sign * drops.get(j, 0), m) for j in nodes)
    # n_j - d_j is the flag's Koszul number at j, so k_j > n_j/m implies
    # k_j > d_j/m (rank one: n_j > 0): every lambda < 0 character meets the
    # ray bounds, at the least admitted integer and so at every one
    if not all(r.holds(b.edge) for r, b in zip(ray, neg)):
        raise AssertionError(f"a lambda < 0 character misses a ray bound on {end}")
    return Criterion(
        numbers=ns,
        required_chi=tuple(sign * n // m for n in ns) if integral else None,
        pos=tuple(_bound(j, below, sign * n, m) for j, n in zip(nodes, ns)),
        neg=neg,
        ray=ray,
    )


def classify(data: bd.AdmissibleData) -> EinsteinVerdict:
    """Apply the rank-m and rank-1 existence criteria to `data`."""
    crit = criterion(data.end)
    return EinsteinVerdict(
        lambda_zero=LambdaZeroVerdict(crit.required_chi == data.chi, crit.required_chi),
        lambda_pos=LambdaPosVerdict(satisfied(crit.pos, data.chi), crit.pos),
        lambda_neg=LambdaNegVerdict(satisfied(crit.neg, data.chi), crit.neg),
        ray_extends=satisfied(crit.ray, data.chi),
    )


def z0_form(data: bd.AdmissibleData, lam: Fraction) -> rs.Weight:
    """The exact dual form of Z_0 for a nonzero admitted Einstein constant:
    lambda * xi_{Z_0} = sum n_j pi_j -+ m chi (sign by the end choice)."""
    if not isinstance(lam, (int, Fraction)):
        raise UsageError(f"lambda must be an int or a Fraction, got {lam!r}")
    lam = Fraction(lam)
    if lam == 0:
        raise UsageError("z0_form needs lambda != 0; use z0_face_point for lambda = 0")
    crit = criterion(data.end)
    if not satisfied(crit.pos if lam > 0 else crit.neg, data.chi):
        sign = "lambda > 0" if lam > 0 else "lambda < 0"
        raise DomainError(f"data does not admit an Einstein metric with {sign}")
    end = data.end
    scale = -end.sign * end.m
    p, q = lam.numerator, lam.denominator  # 1/lambda = sign(p) q / |p|
    sq = q if p > 0 else -q
    ks = [sq * (n + scale * k) for n, k in zip(crit.numbers, data.chi)]
    return rs.Weight.from_numerators(end.s0.algebra, end.pi_sum(ks), abs(p) * end.den)


def z0_face_point(end: bd.End) -> rs.Weight:
    """Canonical Ricci-flat witness: the sum of the black fundamental weights of s0."""
    return rs.Weight.from_numerators(end.s0.algebra, end.pi_sum([1] * len(end.s0.black)), end.den)
