"""Admissible bundle data over a painted diagram and the flag of its regular orbits.

A bundle of rank m > 1 is specified by a white A-string of the singular-orbit
diagram, a choice of end root beta (``left``/``right`` in the canonical path
order of the string) and an integer character chi over the black fundamental
weights.  Rank one drops the string and the end choice.

Each eligible string carries a "virtual epsilon sequence" e_1, ..., e_m of
signed basis forms with consecutive differences equal to its simple roots.
For an ordinary string at epsilon indices k..k+m-1 this is (eps_k, ...,
eps_{k+m-1}); a D-string whose last node is the fork tip eps_{l-1}+eps_l
flips the final sign: (..., eps_{l-1}, -eps_l).  White components that admit
no such sequence (the B/C tails through the short/long end root, D components
containing both fork tips) cannot carry the tautological rank-m module in
this formalism and are not strings.

Painting the end root beta black lowers the Koszul number of each black
neighbour of the string by an integer d_j that depends only on how the
neighbour attaches; `neighbour_drops` is the single table of these drops.

Two dual computations of the sign-normalised form xi_0 of kappa*Z^0 are kept
deliberately separate: `kappa_z0_form` assembles it from black fundamental
weights with the coefficients d_j/m of `neighbour_drops`, `kappa_z0_oracle`
from the virtual epsilon sequence alone; neither reads the other's tables.
Both are one integer reduction of chi's numerators against a chi-free
integer tuple cached per (diagram, string, end).  They must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, sqrt
from operator import index, mul
from typing import Optional

from . import painted as pd
from . import rootspace as rs
from .errors import DomainError, UsageError

# How an end-side black neighbour attaches to the string.
GENERIC = "generic"
B_DOUBLE = "b_double"  # attached through the B double edge (short-root node)
D_FORK = "d_fork"      # the sibling fork tip of a D-string that contains one tip


@dataclass(frozen=True)
class StringInfo:
    """One eligible white A-string, in canonical path order."""

    nodes: tuple[int, ...]
    eps_seq: tuple[tuple[int, int], ...]  # (sign, epsilon index), length m
    left_neighbor: Optional[int]          # black node before the path start
    right_neighbors: tuple[tuple[int, str], ...]  # (black node, attachment shape)

    @property
    def m(self) -> int:
        return len(self.nodes) + 1

    @property
    def start(self) -> int:
        return self.nodes[0]


@lru_cache(maxsize=None)
def eligible_strings(dg: pd.PaintedDiagram) -> tuple[StringInfo, ...]:
    """The white components of `dg` that are A-strings, by ascending start node."""
    alg = dg.algebra
    ell = alg.rank
    fam = alg.family
    out = []
    for comp in pd.white_components(dg):
        members = set(comp)
        if fam in ("B", "C") and ell in members:
            continue
        if fam == "D" and {ell - 1, ell} <= members:
            continue
        nodes = tuple(sorted(comp))  # path order: ascending, D fork tip last
        size = len(nodes)
        if fam == "D" and ell in members:
            # tip node eps_{l-1}+eps_l ends the path; virtual sequence flips
            # the final sign: (eps_{l-size}, ..., eps_{l-1}, -eps_l)
            first = ell - size
            eps = tuple((1, first + i) for i in range(size)) + ((-1, ell),)
        else:
            eps = tuple((1, nodes[0] + i) for i in range(size + 1))
        left_node = eps[0][1] - 1
        left = left_node if left_node in dg.black else None
        right: list[tuple[int, str]] = []
        if fam == "D" and ell - 2 in members:
            # through the fork node: black tips attach on the end side, the
            # sibling of an in-string tip with the fork coefficient
            has_tip = bool(members & {ell - 1, ell})
            for tip in (ell - 1, ell):
                if tip in dg.black:
                    right.append((tip, D_FORK if has_tip else GENERIC))
        elif fam == "D" and nodes[-1] in (ell - 1, ell):
            pass  # isolated fork tip: its only neighbour is the start side
        elif nodes[-1] + 1 <= ell and nodes[-1] + 1 in dg.black:
            shape = B_DOUBLE if (fam == "B" and nodes[-1] + 1 == ell) else GENERIC
            right.append((nodes[-1] + 1, shape))
        out.append(StringInfo(nodes, eps, left, tuple(right)))
    return tuple(sorted(out, key=lambda s: s.start))


@dataclass(frozen=True)
class AdmissibleData:
    """(A_{m-1}, chi, beta) over a painted singular-orbit diagram; m = 1 drops the string."""

    s0: pd.PaintedDiagram
    string: Optional[StringInfo]
    beta_end: Optional[str]  # 'left' | 'right'
    chi: tuple[int, ...]     # over black nodes of s0 in ascending order; integers only

    def __post_init__(self):
        if (self.string is None) != (self.beta_end is None):
            raise UsageError("string and beta_end must be given together")
        if self.beta_end not in (None, "left", "right"):
            raise UsageError(f"beta_end must be 'left' or 'right', got {self.beta_end!r}")
        try:  # the bounds are integer edges, exact only for integer chi
            object.__setattr__(self, "chi", tuple(map(index, self.chi)))
        except TypeError as exc:
            raise UsageError(f"chi entries must be integers, got {self.chi!r}") from exc
        if len(self.chi) != len(self.s0.black):
            raise UsageError(
                f"chi has {len(self.chi)} entries, diagram has {len(self.s0.black)} black nodes"
            )
        if self.string is None and not any(self.chi):
            raise DomainError("rank-one bundle with chi = 0 is degenerate")

    @property
    def m(self) -> int:
        return 1 if self.string is None else self.string.m

    @property
    def beta_node(self) -> Optional[int]:
        if self.string is None:
            return None
        return self.string.nodes[0] if self.beta_end == "left" else self.string.nodes[-1]

    @property
    def black_nodes(self) -> tuple[int, ...]:
        return self.s0.black_nodes


def admissible_data(
    s0: pd.PaintedDiagram,
    string_start: Optional[int],
    beta_end: Optional[str],
    chi: "tuple[int, ...] | list[int]",
) -> AdmissibleData:
    """Build AdmissibleData, resolving the string by its least node index."""
    if string_start is None:
        return AdmissibleData(s0, None, None, chi)
    return AdmissibleData(s0, string_at(s0, string_start), beta_end, chi)


def string_at(s0: pd.PaintedDiagram, start: int) -> StringInfo:
    """The eligible string of `s0` whose least node index is `start`."""
    for info in eligible_strings(s0):
        if info.start == start:
            return info
    raise UsageError(f"{s0.key()}: no eligible white string starting at node {start}")


def flag_f(data: AdmissibleData) -> pd.PaintedDiagram:
    """The flag of the regular orbits: s0 with the end root beta painted black."""
    if data.string is None:
        return data.s0
    return pd.PaintedDiagram(data.s0.algebra, data.s0.black | {data.beta_node})


def chi_weight(data: AdmissibleData) -> rs.Weight:
    """chi as a weight: sum of k_j times the black fundamental weights."""
    return _chi_weight_cached(data.s0.algebra, data.black_nodes, data.chi)


@lru_cache(maxsize=65536)
def _chi_weight_cached(alg: rs.Algebra, nodes: tuple[int, ...], chi: tuple[int, ...]) -> rs.Weight:
    return rs.fundamental_combination(alg, nodes, chi)


@lru_cache(maxsize=None)
def _string_w(alg: rs.Algebra, eps_seq: tuple, beta_end: str) -> tuple[int, ...]:
    """Numerators of w = (m-1) e_edge - sum of the other virtual epsilons,
    edge by beta_end."""
    seq = tuple(reversed(eps_seq)) if beta_end == "right" else eps_seq
    num = [0] * alg.ambient_dim
    sign0, idx0 = seq[0]
    num[idx0 - 1] += (len(seq) - 1) * sign0
    for sign, idx in seq[1:]:
        num[idx - 1] -= sign
    return tuple(num)


def kappa_z0_oracle(data: AdmissibleData) -> rs.Weight:
    """xi_0 from the virtual epsilon sequence: +-(chi + w/m), sign-normalised,
    i.e. +-(m chi + den w) over m den for chi = num/den.  The integer dot
    product with beta's numerators has the sign of <beta, xi>: a root is
    trace-free, so the family-A projection drops out."""
    chi = chi_weight(data)
    if data.string is None:
        return chi
    alg, m, den = data.s0.algebra, data.m, chi.den
    w = _string_w(alg, data.string.eps_seq, data.beta_end)
    num = [m * a + den * b for a, b in zip(chi.num, w)]
    val = sum(map(mul, rs.simple_roots(alg)[data.beta_node - 1].num, num))
    if val == 0:
        raise AssertionError(f"degenerate sign normalisation for {data}")
    return rs.Weight.from_numerators(alg, tuple(num if val > 0 else [-a for a in num]), m * den)


def kappa_z0_form(data: AdmissibleData) -> rs.Weight:
    """xi_0 assembled from black fundamental weights: chi for rank one, else

        xi_0 = +-chi + pi_beta - sum over `neighbour_drops` of (d_j/m) pi_j,

    with +chi at the left end and -chi at the right.  <beta, xi_0> > 0 holds
    without a sign flip: beta is white, so only pi_beta pairs with it.
    """
    chi = chi_weight(data)
    if data.string is None:
        return chi
    alg = data.s0.algebra
    base, den = _form_base(alg, data.string, data.beta_end, data.beta_node)
    scale = den // chi.den if data.beta_end == "left" else -(den // chi.den)
    return rs.Weight.from_numerators(alg, tuple([scale * a + b for a, b in zip(chi.num, base)]), den)


@lru_cache(maxsize=None)
def _form_base(alg: rs.Algebra, info: StringInfo, beta_end: str,
               beta_node: int) -> tuple[tuple[int, ...], int]:
    """The chi-independent part pi_beta - sum (d_j/m) pi_j of the dual-form
    formula as (numerators, m * d), with d the lcm of the denominators of the
    fundamental weights, which the denominator of every chi weight divides."""
    m = info.m
    drops = neighbour_drops(info, beta_end)
    nodes = (beta_node,) + tuple(node for node, _ in drops)
    ks = (m,) + tuple(-d for _, d in drops)
    sum_pi = rs.fundamental_combination(alg, nodes, ks)
    d = lcm(*(rs.fundamental_weight(alg, i).den for i in range(1, alg.rank + 1)))
    return tuple(a * (d // sum_pi.den) for a in sum_pi.num), m * d


def kappa_sq(xi0: rs.Weight) -> Fraction:
    """kappa^2: the squared Killing norm of a form xi_0 already built."""
    ksq = rs.inner(xi0, xi0)
    if ksq <= 0:
        raise AssertionError(f"kappa^2 = {ksq} must be positive")
    return ksq


def kappa(data: AdmissibleData) -> tuple[Fraction, float]:
    """(kappa^2 exact, kappa float) of `data`."""
    ksq = kappa_sq(kappa_z0_form(data))
    return ksq, sqrt(ksq)


def neighbour_drops(info: StringInfo, beta_end: str) -> tuple[tuple[int, int], ...]:
    """(black neighbour j, d_j): painting the `beta_end` root of `info` black
    lowers the Koszul number n_j by d_j.

    The start-side neighbour loses m-1 (left) or 1 (right); each end-side
    neighbour loses 1 / m-1 generically, 2 / 2(m-1) through the B double edge,
    2 / m-2 at the D fork.  Black nodes not listed keep n_j.
    """
    m = info.m
    left = beta_end == "left"
    drops = []
    if info.left_neighbor is not None:
        drops.append((info.left_neighbor, m - 1 if left else 1))
    end_drop = {
        GENERIC: 1 if left else m - 1,
        B_DOUBLE: 2 if left else 2 * (m - 1),
        D_FORK: 2 if left else m - 2,
    }
    for node, shape in info.right_neighbors:
        drops.append((node, end_drop[shape]))
    return tuple(drops)


def predicted_koszul_update(data: AdmissibleData) -> dict[int, int]:
    """Koszul numbers of flag_f(data) predicted from those of s0: the new
    node gets m, each black neighbour j loses d_j of `neighbour_drops`."""
    if data.m == 1:
        raise UsageError("koszul update is defined for m > 1 only")
    predicted = dict(pd.koszul(data.s0).numbers) if data.s0.black else {}
    for node, d in neighbour_drops(data.string, data.beta_end):
        predicted[node] -= d
    predicted[data.beta_node] = data.m
    return predicted


def koszul_update_check(data: AdmissibleData) -> bool:
    """True iff the Koszul numbers of flag_f(data) satisfy the update relations."""
    actual = pd.koszul(flag_f(data)).numbers
    return actual == predicted_koszul_update(data)
