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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import bundle as bd
from . import painted as pd
from . import rootspace as rs
from .errors import DomainError, UsageError


@dataclass(frozen=True)
class Bound:
    """A strict bound ``k_<node> <op> value`` on one character coefficient."""

    node: int
    op: str  # '<' | '>' | '='
    value: Fraction

    def holds(self, k: int) -> bool:
        if self.op == "<":
            return k < self.value
        if self.op == ">":
            return k > self.value
        return k == self.value

    def __str__(self) -> str:
        return f"k_{self.node} {self.op} {rs.frac_str(self.value)}"


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
    xi_z0_times_lambda: rs.Weight  # lambda * (dual form of Z_0), lambda-independent
    ray_extends: bool              # the lambda != 0 ray condition on Z^0


def _koszul_numbers(data: bd.AdmissibleData) -> dict[int, int]:
    return pd.koszul(data.s0).numbers if data.s0.black else {}


def _bounds(data: bd.AdmissibleData, numbers: dict[int, int]) -> tuple[list[Bound], list[Bound]]:
    """(positive-lambda bounds, negative-lambda bounds), per ascending black node."""
    pos, neg = [], []
    m = data.m
    for node in data.black_nodes:
        n = numbers[node]
        if m == 1:
            pos.append(Bound(node, "<", Fraction(n)))
            neg.append(Bound(node, ">", Fraction(n)))
        elif data.beta_end == "left":
            pos.append(Bound(node, "<", Fraction(n, m)))
            neg.append(Bound(node, ">", Fraction(n, m)))
        else:
            pos.append(Bound(node, ">", Fraction(-n, m)))
            neg.append(Bound(node, "<", Fraction(-n, m)))
    return pos, neg


def classify(data: bd.AdmissibleData) -> EinsteinVerdict:
    """Apply the rank-m and rank-1 existence criteria to `data`."""
    numbers = _koszul_numbers(data)
    m = data.m
    nodes = data.black_nodes
    chi = dict(zip(nodes, data.chi))

    if m == 1:
        required = tuple(numbers[j] for j in nodes)
    elif all(numbers[j] % m == 0 for j in nodes):
        sign = 1 if data.beta_end == "left" else -1
        required = tuple(sign * numbers[j] // m for j in nodes)
    else:
        required = None
    zero = LambdaZeroVerdict(required is not None and required == data.chi, required)

    pos_bounds, neg_bounds = _bounds(data, numbers)
    pos = LambdaPosVerdict(all(b.holds(chi[b.node]) for b in pos_bounds), tuple(pos_bounds))
    neg = LambdaNegVerdict(all(b.holds(chi[b.node]) for b in neg_bounds), tuple(neg_bounds))

    return EinsteinVerdict(
        lambda_zero=zero,
        lambda_pos=pos,
        lambda_neg=neg,
        xi_z0_times_lambda=_xi_z0_scaled(data, numbers),
        ray_extends=ray_extends(data),
    )


def _xi_z0_scaled(data: bd.AdmissibleData, numbers: dict[int, int]) -> rs.Weight:
    """lambda * xi_{Z_0} = sum n_j pi_j -+ m chi (sign by the end choice)."""
    nodes = data.black_nodes
    xi = rs.fundamental_combination(data.s0.algebra, nodes, [numbers[j] for j in nodes])
    m_chi = data.m * bd.chi_weight(data)
    return xi + m_chi if data.beta_end == "right" else xi - m_chi


def z0_form(data: bd.AdmissibleData, lam: Fraction) -> rs.Weight:
    """The exact dual form of Z_0 for a nonzero admitted Einstein constant."""
    lam = Fraction(lam)
    if lam == 0:
        raise UsageError("z0_form needs lambda != 0; use z0_face_point for lambda = 0")
    verdict = classify(data)
    admitted = verdict.lambda_pos.exists if lam > 0 else verdict.lambda_neg.exists
    if not admitted:
        sign = "lambda > 0" if lam > 0 else "lambda < 0"
        raise DomainError(f"data does not admit an Einstein metric with {sign}")
    return (Fraction(1) / lam) * verdict.xi_z0_times_lambda


def z0_face_point(data: bd.AdmissibleData) -> rs.Weight:
    """Canonical Ricci-flat witness: the sum of the black fundamental weights of s0."""
    nodes = data.black_nodes
    return rs.fundamental_combination(data.s0.algebra, nodes, [1] * len(nodes))


def z0_is_face_point(data: bd.AdmissibleData, xi: rs.Weight) -> bool:
    """True iff xi vanishes on beta and is positive on every black root of s0."""
    simples = rs.simple_roots(data.s0.algebra)
    if data.beta_node is not None and rs.inner(xi, simples[data.beta_node - 1]) != 0:
        return False
    whites = data.s0.white - ({data.beta_node} if data.beta_node else set())
    if any(rs.inner(xi, simples[w - 1]) != 0 for w in sorted(whites)):
        return False
    return all(rs.inner(xi, simples[j - 1]) > 0 for j in data.black_nodes)


def ray_extends(data: bd.AdmissibleData) -> bool:
    """Whether the admissible segment continues to a ray in the chamber for
    lambda != 0: the positivity of xi_0 on every black root of the
    singular-orbit diagram.  (For lambda = 0 the segment always extends.)
    """
    xi0 = bd.kappa_z0_form(data)
    simples = rs.simple_roots(data.s0.algebra)
    return all(rs.inner(xi0, simples[j - 1]) > 0 for j in data.black_nodes)
