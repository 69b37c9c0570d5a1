"""Painted Dynkin diagrams: complementary roots, Koszul data, chamber tests.

A diagram is a classical algebra plus the set of black nodes.  White nodes
span the semisimple part of the isotropy; the complementary positive roots
R_m^+ are the positive roots whose simple-root expansion touches a black
node.  The Koszul form is their exact sum; its coordinates over the black
fundamental weights are the Koszul numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import rootspace as rs
from .errors import ConfigurationError, DomainError, UsageError


@dataclass(frozen=True)
class PaintedDiagram:
    algebra: rs.Algebra
    black: frozenset[int]

    def __post_init__(self):
        black = frozenset(self.black)
        if not all(isinstance(i, int) and 1 <= i <= self.algebra.rank for i in black):
            raise ConfigurationError(f"black nodes {sorted(self.black)} out of range for {self.algebra}")
        object.__setattr__(self, "black", black)

    @property
    def white(self) -> frozenset[int]:
        return frozenset(range(1, self.algebra.rank + 1)) - self.black

    def mask(self) -> str:
        return "".join("*" if i in self.black else "o" for i in range(1, self.algebra.rank + 1))

    def key(self) -> str:
        """Canonical serialisation, e.g. ``A11:oo*oo*ooooo``."""
        return f"{self.algebra.family}{self.algebra.rank}:{self.mask()}"

    def __lt__(self, other):
        return (self.algebra, self.mask()) < (other.algebra, other.mask())

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


@dataclass(frozen=True)
class KoszulData:
    sigma: rs.Weight
    numbers: dict[int, int]  # black node -> Koszul number


def koszul(dg: PaintedDiagram) -> KoszulData:
    """Koszul form (exact root sum over R_m^+) and its black coordinates."""
    sigma, items = _koszul_cached(dg)
    return KoszulData(sigma, dict(items))


@lru_cache(maxsize=None)
def _koszul_cached(dg: PaintedDiagram) -> tuple[rs.Weight, tuple[tuple[int, int], ...]]:
    if not dg.black:
        raise DomainError(f"{dg.key()}: all-white diagram is not a proper flag manifold")
    # positive roots have integer epsilon coordinates: sigma is a column sum
    sums = map(sum, zip(*(root.num for root in r_m_plus(dg))))
    sigma = rs.Weight.from_numerators(dg.algebra, tuple(sums), 1)
    coords = rs.fundamental_coordinates(dg.algebra, sigma)
    numbers = []
    for j in sorted(dg.black):
        val = coords[j - 1]
        if val.denominator != 1 or val <= 0:
            raise AssertionError(f"non-positive-integer Koszul coordinate {val} at node {j} of {dg.key()}")
        numbers.append((j, int(val)))
    return sigma, tuple(numbers)


def koszul_rule(dg: PaintedDiagram) -> dict[int, Optional[int]]:
    """Koszul numbers by the combinatorial white-neighbour count.

    Per black node: 2 plus the total weight of the adjacent white components,
    where an ordinary component counts its size, the B-tail so_{2r+1} counts
    2(r-1)+1, the C-tail sp_r counts 2r and the D-tail so_{2r} (both fork
    tips in one component) counts 2(r-1).

    Two shapes get ``None`` instead of a count: a black D fork tip whose
    sibling tip is white, and the black short node of B_n with white
    neighbours.  For both, the published counting recipe does not determine
    the value the root-sum oracle gives, so they are left to the oracle.
    """
    if not dg.black:
        raise DomainError(f"{dg.key()}: all-white diagram is not a proper flag manifold")
    alg = dg.algebra
    ell = alg.rank
    adj = adjacency(alg)
    comps = white_components(dg)
    comp_of = {node: comp for comp in comps for node in comp}
    fork_tips = {ell - 1, ell} if alg.family == "D" else set()
    out: dict[int, Optional[int]] = {}
    for j in sorted(dg.black):
        neighbour_comps = {comp_of[w] for w in adj[j] if w in comp_of}
        total = 0
        ambiguous = alg.family == "B" and j == ell and bool(neighbour_comps)
        for comp in neighbour_comps:
            size = len(comp)
            members = set(comp)
            if alg.family == "B" and ell in members:
                total += 2 * (size - 1) + 1
            elif alg.family == "C" and ell in members:
                total += 2 * size
            elif alg.family == "D" and fork_tips <= members:
                total += 2 * (size - 1)
            elif alg.family == "D" and j in fork_tips and members & fork_tips:
                ambiguous = True
            else:
                total += size
        out[j] = None if ambiguous else total + 2
    return out


def chamber_contains(dg: PaintedDiagram, xi: rs.Weight) -> bool:
    """Dual test for membership in the T-Weyl chamber of the diagram: xi has
    zero coordinates over the white and positive ones over the black
    fundamental weights."""
    coords = rs.fundamental_coordinates(dg.algebra, xi)
    black = dg.black
    return all(c > 0 if i in black else c == 0 for i, c in enumerate(coords, start=1))


def kaehler_coefficients(dg: PaintedDiagram, xi: rs.Weight) -> dict[rs.Weight, Fraction]:
    """The per-root coefficients 2<alpha, xi>/<alpha, alpha> over R_m^+."""
    coords = rs.fundamental_coordinates(dg.algebra, xi)
    if any(coords[i - 1] for i in dg.white):
        raise UsageError("xi must be orthogonal to every white simple root")
    return {a: 2 * rs.inner(a, xi) / rs.inner(a, a) for a in r_m_plus(dg)}


def is_hodge(dg: PaintedDiagram, xi: rs.Weight) -> bool:
    """True iff xi has integer coordinates over the black fundamental weights."""
    coords = rs.fundamental_coordinates(dg.algebra, xi)
    return all(coords[j - 1].denominator == 1 for j in dg.black)
