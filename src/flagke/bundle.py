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
neighbour j of the string A_s (s = m - 1) by an integer d_j (`neighbour_drops`).
j meets the string at one node i, of path position p, and n_j counts
|<alpha_i, alpha_j^v>| times p(s + 1 - p), the coefficient of alpha_i in the
string's 2 rho.  The left end leaves (p - 1)(s + 1 - p) and the right end
p(s - p), so d_j = |<alpha_i, alpha_j^v>| (s + 1 - p) or |<alpha_i, alpha_j^v>| p.

What does not depend on chi is kept once per (diagram, string, end) in an
`End` record, built on first use by `end_of`, and read from it: s0, the
string, the end, m, beta and the flag F.  The Koszul update relations of F
(`predicted_koszul_update`, `koszul_update_check`) take the `End`.  A datum
is its record and chi, whose integer numerators over the black fundamental
weights are one integer product per datum.  Two dual computations of the
sign-normalised form xi_0 of kappa*Z^0 are kept deliberately separate:
`kappa_z0_form` adds +-m chi to the base m pi_beta - sum d_j pi_j of
`neighbour_drops`, `kappa_z0_oracle` adds m chi to the virtual epsilon
vector and normalises the sign by <beta, xi>; they share only chi's
numerators.  `end_of` checks, once per record, that they agree for every
chi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import inf, sqrt
from operator import index, mul
from typing import Optional

from . import painted as pd
from . import rootspace as rs
from .errors import DomainError, UsageError


@dataclass(frozen=True)
class StringInfo:
    """One eligible white A-string, in canonical path order."""

    nodes: tuple[int, ...]
    eps_seq: tuple[tuple[int, int], ...]  # (sign, epsilon index), length m

    @property
    def m(self) -> int:
        return len(self.nodes) + 1

    @property
    def start(self) -> int:
        return self.nodes[0]


@lru_cache(maxsize=None)
def eligible_strings(dg: pd.PaintedDiagram) -> tuple[StringInfo, ...]:
    """The white components of `dg` that are A-strings, by ascending start node."""
    ell, fam = dg.algebra.rank, dg.algebra.family
    out = []
    # each component is sorted, which is its path order (a D fork tip comes
    # last), and they come by least node
    for nodes in pd.white_components(dg):
        if (fam in ("B", "C") and ell in nodes) or (fam == "D" and {ell - 1, ell} <= set(nodes)):
            continue
        # where the D tip eps_{l-1}+eps_l ends the path: (eps_{l-s}, ..., eps_{l-1}, -eps_l)
        tip = fam == "D" and ell in nodes
        first, last = (ell - len(nodes), ell) if tip else (nodes[0], nodes[0] + len(nodes))
        eps = tuple((1, i) for i in range(first, last)) + ((-1 if tip else 1, last),)
        out.append(StringInfo(nodes, eps))
    return tuple(out)


@dataclass(frozen=True, eq=False, slots=True)
class End:
    """The chi-free half of every datum on one (diagram, string, end),
    compared by identity: one record per key, built and checked on first use
    by `end_of`.

    `sign` is -1 at the right end, which mirrors the left one through
    chi -> -chi, and +1 at the left end and for rank one.  `pi` holds the
    black fundamental weights as integer columns over `den`, one row per
    epsilon coordinate, so chi's numerators are one integer product
    `pi_sum(chi)`.  `form_base` is m pi_beta - sum d_j pi_j over `den` (zero
    for rank one), `oracle_w` the virtual-epsilon vector (m - 1) e_beta -
    sum of the other e_i, with denominator 1.
    """

    s0: pd.PaintedDiagram
    string: Optional[StringInfo]
    beta_end: Optional[str]
    sign: int
    m: int
    beta_node: Optional[int]
    # the derived rest, left out of the repr; beta_root holds the numerators
    # of the simple root beta (empty for rank one)
    beta_root: tuple[int, ...] = field(repr=False)
    flag: pd.PaintedDiagram = field(repr=False)  # s0 with beta painted black
    drops: tuple[tuple[int, int], ...] = field(repr=False)  # `neighbour_drops`
    den: int = field(repr=False)
    pi: tuple[tuple[int, ...], ...] = field(repr=False)
    form_base: tuple[int, ...] = field(repr=False)
    oracle_w: tuple[int, ...] = field(repr=False)

    def pi_sum(self, ks) -> tuple[int, ...]:
        """Numerators over `den` of sum k_j pi_j, k aligned with the black nodes."""
        return tuple([sum(map(mul, ks, row)) for row in self.pi])


@lru_cache(maxsize=None)
def end_of(s0: pd.PaintedDiagram, start: Optional[int], beta_end: Optional[str]) -> End:
    """The `End` of the eligible string of `s0` whose least node is `start`
    (rank one: ``None, None``).

    The two dual forms are checked here, once per record.  Over m den they
    are sign m chi + `form_base` and +-(m chi + den `oracle_w`); beta is
    white, so <beta, pi_j> = 0 for every black j and the oracle's sign is
    that of <beta, `oracle_w`>.  They agree for every chi iff that sign is
    `sign` and `form_base` = sign den `oracle_w`.
    """
    if beta_end not in ((None,) if start is None else ("left", "right")):
        raise UsageError(f"beta_end must be 'left' or 'right' with a string, None without, got {beta_end!r}")
    alg, n = s0.algebra, s0.algebra.ambient_dim
    den, cols = rs.fundamental_numerators(alg)
    pi = _black_pi(s0)
    if start is None:
        return End(s0, None, None, 1, 1, None, (), s0, (), den, pi, (0,) * n, (0,) * n)
    info = next((s for s in eligible_strings(s0) if s.start == start), None)
    if info is None:
        raise UsageError(f"{s0.key()}: no eligible white string starting at node {start}")
    sign = -1 if beta_end == "right" else 1
    m, drops = info.m, neighbour_drops(s0, info, beta_end)
    beta = info.nodes[0] if sign > 0 else info.nodes[-1]
    base = tuple([m * a - sum(d * cols[j - 1][i] for j, d in drops) for i, a in enumerate(cols[beta - 1])])
    w = [0] * n
    for i, (e, idx) in enumerate(info.eps_seq[::sign]):
        w[idx - 1] += (m - 1) * e if i == 0 else -e
    root = rs.simple_roots(alg)[beta - 1].num
    val = sum(map(mul, root, w))
    if val * sign <= 0 or base != tuple([sign * den * a for a in w]):
        raise AssertionError(f"dual forms differ on {s0.key()} string@{start} beta={beta_end}")
    return End(s0, info, beta_end, sign, m, beta, root, pd.PaintedDiagram(alg, s0.black | {beta}),
               drops, den, pi, base, tuple(w))


@lru_cache(maxsize=None)
def _black_pi(s0: pd.PaintedDiagram) -> tuple[tuple[int, ...], ...]:
    """`End.pi` of s0, one object shared by the ends of one diagram."""
    cols = rs.fundamental_numerators(s0.algebra)[1]
    return tuple(zip(*(cols[j - 1] for j in s0.black_nodes))) or ((),) * s0.algebra.ambient_dim


@dataclass(frozen=True)
class AdmissibleData:
    """(A_{m-1}, chi, beta) over a painted singular-orbit diagram: its `End`
    record and an integer character chi over the black nodes of s0 in
    ascending order.  Derived, not compared: chi's numerators over `end.den`."""

    end: End
    chi: tuple[int, ...]
    chi_num: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:  # the bounds are integer edges, exact only for integer chi
            chi = tuple(map(index, self.chi))
        except TypeError as exc:
            raise UsageError(f"chi entries must be integers, got {self.chi!r}") from exc
        if len(chi) != len(self.end.s0.black):
            raise UsageError(f"chi has {len(chi)} entries, diagram has {len(self.end.s0.black)} black nodes")
        if self.end.string is None and not any(chi):
            raise DomainError("rank-one bundle with chi = 0 is degenerate")
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "chi_num", self.end.pi_sum(chi))


def admissible_data(
    s0: pd.PaintedDiagram,
    string_start: Optional[int],
    beta_end: Optional[str],
    chi: "tuple[int, ...] | list[int]",
) -> AdmissibleData:
    """Build AdmissibleData, resolving the string by its least node index."""
    return AdmissibleData(end_of(s0, string_start, beta_end), chi)


def kappa_z0_oracle(data: AdmissibleData) -> rs.Weight:
    """xi_0 from the virtual epsilon sequence: +-(chi + w/m), sign-normalised,
    i.e. +-(m chi + den w) over m den for chi = num/den.  The integer dot
    product with beta's numerators has the sign of <beta, xi>: a root is
    trace-free, so the family-A projection drops out."""
    end, alg = data.end, data.end.s0.algebra
    if end.m == 1:
        return rs.Weight.from_numerators(alg, data.chi_num, end.den)
    m, den = end.m, end.den
    num = [m * a + den * b for a, b in zip(data.chi_num, end.oracle_w)]
    val = sum(map(mul, end.beta_root, num))
    if val == 0:
        raise AssertionError(f"degenerate sign normalisation for {data}")
    return rs.Weight.from_numerators(alg, tuple(num if val > 0 else [-a for a in num]), m * den)


def _form_numerators(data: AdmissibleData) -> list[int]:
    """The numerators of xi_0 over m den: +-m chi + `form_base`."""
    end = data.end
    scale = end.sign * end.m
    return [scale * a + b for a, b in zip(data.chi_num, end.form_base)]


def kappa_z0_form(data: AdmissibleData) -> rs.Weight:
    """xi_0 assembled from black fundamental weights: chi for rank one, else

        xi_0 = +-chi + pi_beta - sum over `neighbour_drops` of (d_j/m) pi_j,

    with +chi at the left end and -chi at the right.  <beta, xi_0> > 0 holds
    without a sign flip: beta is white, so only pi_beta pairs with it.
    Over m den it is +-m chi + `form_base`.
    """
    end = data.end
    return rs.Weight.from_numerators(end.s0.algebra, tuple(_form_numerators(data)), end.m * end.den)


def kappa(data: AdmissibleData) -> tuple[Fraction, float]:
    """(kappa^2, kappa) of `data`: the exact squared Killing norm of xi_0
    and its root as a float, inf past the float range.

    kappa^2 is one integer dot product of xi_0's numerators over
    (m den)^2 2c, with no weight built.  A family-A column of
    `fundamental_numerators` sums to 0, so these numerators are already
    trace-free and need no projection."""
    end = data.end
    num = _form_numerators(data)
    ksq = Fraction(sum(map(mul, num, num)), (end.m * end.den) ** 2 * end.s0.algebra.two_c)
    if ksq <= 0:
        raise AssertionError(f"kappa^2 = {ksq} must be positive")
    try:
        return ksq, sqrt(ksq)
    except OverflowError:
        return ksq, inf


def neighbour_drops(s0: pd.PaintedDiagram, info: StringInfo, beta_end: str) -> tuple[tuple[int, int], ...]:
    """(black neighbour j, d_j), in path order: painting the `beta_end` root
    of the string `info` of `s0` black lowers the Koszul number n_j by d_j.
    j meets the string at the node i of path position p, s = m - 1 nodes, and
    d_j = |<alpha_i, alpha_j^v>| (s + 1 - p) at the left end, |<alpha_i,
    alpha_j^v>| p at the right: the drop of the coefficient p(s + 1 - p) of
    alpha_i in the string's 2 rho.  The Cartan integer is 2 (alpha_i .
    alpha_j) / (alpha_j . alpha_j) on the integer root numerators.  Black
    nodes not listed keep n_j.
    """
    adj, roots = pd.adjacency(s0.algebra), rs.simple_roots(s0.algebra)
    s, left = len(info.nodes), beta_end == "left"
    drops = []
    for p, i in enumerate(info.nodes, start=1):
        a = roots[i - 1].num
        for j in adj[i]:
            if j in s0.black:
                b = roots[j - 1].num
                cartan = abs(2 * sum(map(mul, a, b))) // sum(map(mul, b, b))
                drops.append((j, cartan * (s + 1 - p if left else p)))
    return tuple(drops)


def predicted_koszul_update(end: End) -> dict[int, int]:
    """Koszul numbers of the flag `end.flag` predicted from those of s0: the
    new node gets m, and each black neighbour j of the string, met at path
    position p, loses d_j = |<alpha_i, alpha_j^v>| (s + 1 - p) at the left end
    or |<alpha_i, alpha_j^v>| p at the right (`neighbour_drops`), the drop of
    the coefficient p(s + 1 - p) of the string's 2 rho at that node."""
    if end.m == 1:
        raise UsageError("koszul update is defined for m > 1 only")
    predicted = dict(pd.koszul(end.s0).numbers) if end.s0.black else {}
    for node, d in end.drops:
        predicted[node] -= d
    predicted[end.beta_node] = end.m
    return predicted


def koszul_update_check(end: End) -> bool:
    """True iff the Koszul numbers of `end.flag` satisfy the update relations."""
    return pd.koszul(end.flag).numbers == predicted_koszul_update(end)
