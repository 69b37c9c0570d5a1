"""Painted Dynkin diagrams: complementary roots, Koszul data, chamber tests.

A diagram is a classical algebra plus the set of black nodes.  White nodes
span the semisimple part of the isotropy; the complementary positive roots
R_m^+ are the positive roots whose simple-root expansion touches a black
node.  The Koszul form is their exact sum; its coordinates over the black
fundamental weights are the Koszul numbers.  `koszul` builds them once per
diagram and checks them against the white-neighbour count `koszul_rule`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from . import rootspace as rs
from .errors import DomainError, UsageError


@dataclass(frozen=True)
class PaintedDiagram:
    algebra: rs.Algebra
    black: frozenset[int]
    black_nodes: tuple[int, ...] = field(init=False, repr=False, compare=False)  # ascending

    def __post_init__(self):
        black = frozenset(self.black)
        if not all(isinstance(i, int) and 1 <= i <= self.algebra.rank for i in black):
            raise UsageError(f"black nodes {sorted(self.black)} out of range for {self.algebra}")
        object.__setattr__(self, "black", black)
        object.__setattr__(self, "black_nodes", tuple(sorted(black)))

    @property
    def white(self) -> frozenset[int]:
        return frozenset(range(1, self.algebra.rank + 1)) - self.black

    def mask(self) -> str:
        return "".join("*" if i in self.black else "o" for i in range(1, self.algebra.rank + 1))

    def key(self) -> str:
        """Canonical serialisation, e.g. ``A11:oo*oo*ooooo``."""
        return f"{self.algebra.family}{self.algebra.rank}:{self.mask()}"

    def __repr__(self) -> str:
        return f"PaintedDiagram({self.key()!r})"


def diagram(family: str, rank: int, black: "frozenset[int] | set[int] | tuple[int, ...]") -> PaintedDiagram:
    return PaintedDiagram(rs.Algebra(family, rank), frozenset(black))


@lru_cache(maxsize=None)
def adjacency(algebra: rs.Algebra) -> dict[int, tuple[int, ...]]:
    """Node adjacency of the Dynkin diagram (D forks at node rank-2)."""
    ell = algebra.rank
    edges = []
    chain_end = ell if algebra.family != "D" else ell - 1
    edges.extend((i, i + 1) for i in range(1, chain_end))
    if algebra.family == "D":
        edges.append((ell - 2, ell))
    adj: dict[int, set[int]] = {i: set() for i in range(1, ell + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return {i: tuple(sorted(v)) for i, v in adj.items()}


def white_components(dg: PaintedDiagram) -> tuple[tuple[int, ...], ...]:
    """Maximal connected all-white node sets, each sorted, ordered by least node."""
    adj = adjacency(dg.algebra)
    white = set(dg.white)
    seen: set[int] = set()
    comps = []
    for start in sorted(white):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(w for w in adj[v] if w in white and w not in comp)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def r_m_plus(dg: PaintedDiagram) -> tuple[rs.Weight, ...]:
    """Positive roots not lying in the span of the white simple roots."""
    roots = rs.positive_roots(dg.algebra)
    supports = rs.positive_root_supports(dg.algebra)
    black = dg.black
    return tuple(r for r, s in zip(roots, supports) if s & black)


def root_sum(roots: tuple[rs.Weight, ...]) -> tuple[int, ...]:
    """The numerators of the sum of positive `roots`, over denominator 1:
    positive roots have integer epsilon coordinates, so it is a column sum."""
    return tuple(map(sum, zip(*(root.num for root in roots))))


@dataclass(frozen=True)
class KoszulData:
    sigma: rs.Weight
    numbers: Mapping[int, int]  # black node -> Koszul number; read-only, the object is cached


@lru_cache(maxsize=None)
def koszul(dg: PaintedDiagram) -> KoszulData:
    """Koszul form (exact root sum over R_m^+) and its black coordinates,
    checked against `koszul_rule` when they are built."""
    if not dg.black:
        raise DomainError(f"{dg.key()}: all-white diagram is not a proper flag manifold")
    sigma = rs.Weight.from_numerators(dg.algebra, root_sum(r_m_plus(dg)), 1)
    coords = rs.fundamental_coordinates(dg.algebra, sigma)
    numbers = {j: coords[j - 1] for j in dg.black_nodes}
    rule = koszul_rule(dg)
    if numbers != rule:
        raise AssertionError(f"{dg.key()}: root-sum Koszul numbers {numbers} differ from "
                             f"the white-neighbour count {rule}")
    return KoszulData(sigma, MappingProxyType(rule))  # equal to the exact coordinates


def koszul_rule(dg: PaintedDiagram) -> dict[int, int]:
    """Koszul numbers by the white-neighbour count of Alekseevsky and
    Perelomov (Funct. Anal. Appl. 20, 1986): 2 plus a weight for each white
    component K of size s adjacent to the black node j.

    sigma = 2 rho - sum_K 2 rho_K and <2 rho, alpha_j^v> = 2 (Humphreys,
    Introduction to Lie Algebras and Representation Theory, 10.2), so
    n_j = 2 - sum_K <2 rho_K, alpha_j^v>.  K meets j at one node i (the
    diagram is a tree), so its weight is c_i |<alpha_i, alpha_j^v>|, with
    c_i the coefficient of alpha_i in 2 rho_K (Humphreys 13.2).  The pairing
    is 2 from a long alpha_i to a short alpha_j across a double edge, else 1.
    At an end node c_i is s for A_s, 2s - 1 for B_s (long end), 2s for C_s
    (short end) and 2(s-1) for D_s (end of the long arm).  The weights:
    - an ordinary string: s;
    - the B tail, K holds the short node of B_n: 2s - 1 (B_1 = A_1: 1 * 1);
    - the C tail, K holds the long node of C_n: 2s (C_1 = A_1: 1 * 2);
    - the black short node of B_n: K is an A_s ending at node n - 1, s * 2;
    - the D tail, K holds both fork tips: 2(s-1);
    - a black D fork tip with its sibling tip in K: K is an A_s path met at
      its second-to-last node, the fork node, where c_i = 2(s-1).
    """
    if not dg.black:
        raise DomainError(f"{dg.key()}: all-white diagram is not a proper flag manifold")
    fam, ell = dg.algebra.family, dg.algebra.rank
    adj = adjacency(dg.algebra)
    comp_of = {node: comp for comp in white_components(dg) for node in comp}
    fork_tips = {ell - 1, ell}
    out: dict[int, int] = {}
    for j in dg.black_nodes:
        total = 2
        for comp in {comp_of[w] for w in adj[j] if w in comp_of}:
            s = len(comp)
            if fam == "D" and fork_tips <= {j, *comp}:
                total += 2 * (s - 1)
            elif fam == "B" and ell in comp:
                total += 2 * s - 1
            elif (fam == "C" and ell in comp) or (fam == "B" and j == ell):
                total += 2 * s
            else:
                total += s
        out[j] = total
    return out


def chamber_contains(dg: PaintedDiagram, xi: rs.Weight) -> bool:
    """Dual test for membership in the T-Weyl chamber of the diagram: xi has
    zero coordinates over the white and positive ones over the black
    fundamental weights."""
    coords = rs.fundamental_coordinates(dg.algebra, xi)
    black = dg.black
    return all(c > 0 if i in black else c == 0 for i, c in enumerate(coords, start=1))

