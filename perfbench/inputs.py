"""Seeded input generators for the benchmark workloads.

Everything here is plain combinatorics on Dynkin diagrams and uses no
`flagke` code, so the inputs do not depend on the program under test and
the same seed always gives the same inputs.  The program receives only
plain values: diagram keys, string starts, end choices, characters and
Einstein constants written as ``p/q``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

FAMILIES = ("A", "B", "C", "D")
MIN_RANK = {"A": 1, "B": 1, "C": 1, "D": 3}

# census: the `flagke census` command per family up to this rank
CENSUS_MAX_RANK = 7

# chi_sweep: one diagram per (family, rank, number of black nodes) cell, so
# that every seed sweeps the same mix of shapes and grid sizes
SWEEP_RANKS = (7, 8, 9)
SWEEP_BLACK = (1, 2, 3)
SWEEP_CHI_RANGE = (-2, -1, 0, 1, 2)

# profile: per Einstein constant, this many data from each band of root-pair
# counts (the pair count sets the cost of every quadrature)
PROFILE_LAMBDAS = ("1", "0", "-1")
PROFILE_MAX_RANK = 9
PROFILE_BANDS = ((3, 8, 2), (9, 16, 3), (17, 26, 3), (27, 45, 2))  # (lo, hi, count)
PROFILE_ROWS = 4
PROFILE_CHECKED_ROWS = 1  # rows per table checked against the reference t(f)
PROFILE_SHAPE_SEED = 0


def key(family: str, rank: int, black) -> str:
    return f"{family}{rank}:" + "".join("*" if i in black else "o" for i in range(1, rank + 1))


def masks(rank: int):
    for bits in range(1 << rank):
        yield frozenset(i + 1 for i in range(rank) if bits >> i & 1)


def adjacency(family: str, rank: int) -> dict[int, set[int]]:
    """Dynkin graph: a chain, with the D fork tips rank-1 and rank both on rank-2."""
    adj = {i: set() for i in range(1, rank + 1)}
    last = rank - 1 if family == "D" else rank
    edges = [(i, i + 1) for i in range(1, last)]
    if family == "D":
        edges.append((rank - 2, rank))
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def white_components(family: str, rank: int, black) -> list[tuple[int, ...]]:
    adj = adjacency(family, rank)
    white = set(range(1, rank + 1)) - set(black)
    comps, seen = [], set()
    for start in sorted(white):
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            v = stack.pop()
            if v not in comp:
                comp.add(v)
                stack.extend(adj[v] & white)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return comps


def _is_string(family: str, rank: int, comp) -> bool:
    """A white component is an A-string unless it holds the B/C short or long
    end node, or both D fork tips."""
    if family in ("B", "C") and rank in comp:
        return False
    return not (family == "D" and {rank - 1, rank} <= set(comp))


def string_starts(family: str, rank: int, black) -> list[int]:
    """Least nodes of the eligible white strings, ascending."""
    return [c[0] for c in white_components(family, rank, black) if _is_string(family, rank, c)]


def census_record_count(family: str, max_rank: int) -> int:
    """Records `flagke census` writes: one rank-one record per painted diagram
    and two per eligible string."""
    total = 0
    for rank in range(MIN_RANK[family], max_rank + 1):
        for black in masks(rank):
            total += (1 if black else 0) + 2 * len(string_starts(family, rank, black))
    return total


def koszul_by_rule(family: str, rank: int, black):
    """Koszul numbers by the white-neighbour count, or None when the rule
    leaves a node undetermined (a black D fork tip next to a white component
    holding its sibling tip, or the black B short node with white neighbours).

    Each black node gets 2 plus, per adjacent white component of size s:
    s for an A component, 2s-1 for the B tail, 2s for the C tail and 2s-2
    for the D tail holding both fork tips.
    """
    adj = adjacency(family, rank)
    comp_of = {v: c for c in white_components(family, rank, black) for v in c}
    tips = {rank - 1, rank} if family == "D" else set()
    out = {}
    for j in sorted(black):
        comps = {comp_of[w] for w in adj[j] if w in comp_of}
        if family == "B" and j == rank and comps:
            return None
        total = 2
        for comp in comps:
            s = len(comp)
            if family == "B" and rank in comp:
                total += 2 * s - 1
            elif family == "C" and rank in comp:
                total += 2 * s
            elif family == "D" and tips <= set(comp):
                total += 2 * s - 2
            elif family == "D" and j in tips and tips & set(comp):
                return None
            else:
                total += s
        out[j] = total
    return out


def _positive_roots(family: str, rank: int) -> int:
    return {"A": rank * (rank + 1) // 2, "B": rank * rank, "C": rank * rank,
            "D": rank * (rank - 1)}[family]


def pair_count(family: str, rank: int, black) -> int:
    """|R_m^+| of a painted diagram: positive roots outside the white subsystem."""
    white = 0
    for comp in white_components(family, rank, black):
        s = len(comp)
        if family in ("B", "C") and rank in comp:
            white += s * s
        elif family == "D" and {rank - 1, rank} <= set(comp):
            white += s * (s - 1)
        else:
            white += s * (s + 1) // 2
    return _positive_roots(family, rank) - white


def chi_sweep_sample(seed: int) -> list[dict]:
    """One diagram with at least one eligible string per (family, rank, k)
    cell, k the number of black nodes; its χ grid is {-2..2}^k."""
    rng = random.Random(seed)
    out = []
    for family in FAMILIES:
        for rank in SWEEP_RANKS:
            for k in SWEEP_BLACK:
                pool = [b for b in itertools.combinations(range(1, rank + 1), k)
                        if string_starts(family, rank, b)]
                black = rng.choice(pool)
                out.append({"key": key(family, rank, black),
                            "starts": string_starts(family, rank, black), "k": k})
    return out


def _witness(op: str, v: Fraction) -> int:
    """Integer of least magnitude strictly on the `op` side of v."""
    if op == "<":
        return 0 if v > 0 else (int(v) - 1 if v.denominator == 1 else v.__floor__())
    return 0 if v < 0 else (int(v) + 1 if v.denominator == 1 else v.__ceil__())


def admitted_chi(numbers: dict[int, int], m: int, end, lam: Fraction, rng: random.Random):
    """A character admitting `lam`, from the existence criteria on the Koszul
    numbers; lambda = 0 needs m | n_j."""
    sign = -1 if end == "right" else 1
    nodes = sorted(numbers)
    if lam == 0:
        return tuple(sign * numbers[j] // m for j in nodes)
    # lambda > 0 iff sign*k_j < n_j/m, lambda < 0 iff sign*k_j > n_j/m
    op = "<" if lam > 0 else ">"
    if sign < 0:
        op = ">" if op == "<" else "<"
    chi = []
    for j in nodes:
        bound = Fraction(sign * numbers[j], m)
        off = rng.randint(0, 2)
        k = _witness(op, bound)
        chi.append(k - off if op == "<" else k + off)
    if m == 1 and not any(chi):
        chi[0] += -1 if op == "<" else 1
    return tuple(chi)


def profile_sample(seed: int) -> list[dict]:
    """Admitted data in equal numbers for lambda = 1, 0, -1, a fixed count from
    each band of root-pair counts.  The (diagram, string, end) shapes are the
    same for every seed, so every seed has the same cost mix; the seed draws
    the characters and `check_rows`, the table rows checked against the
    reference t(f)."""
    shape_rng, rng = random.Random(PROFILE_SHAPE_SEED), random.Random(seed)
    shapes = []  # (family, rank, black, start, end, numbers, m, pairs of the flag)
    for family in FAMILIES:
        for rank in range(MIN_RANK[family], PROFILE_MAX_RANK + 1):
            for black in masks(rank):
                if not black:
                    continue
                numbers = koszul_by_rule(family, rank, black)
                if numbers is None:
                    continue
                shapes.append((family, rank, black, None, None, numbers, 1,
                               pair_count(family, rank, black)))
                for comp in white_components(family, rank, black):
                    if not _is_string(family, rank, comp):
                        continue
                    # the end root is the first or last node in path order
                    for end, beta in (("left", comp[0]), ("right", comp[-1])):
                        shapes.append((family, rank, black, comp[0], end, numbers, len(comp) + 1,
                                       pair_count(family, rank, black | {beta})))
    out = []
    for lam_text in PROFILE_LAMBDAS:
        lam = Fraction(lam_text)
        for lo, hi, count in PROFILE_BANDS:
            band = [s for s in shapes if lo <= s[7] <= hi]
            picked = 0
            while picked < count:
                family, rank, black, start, end, numbers, m, _ = band[shape_rng.randrange(len(band))]
                if lam == 0 and any(n % m for n in numbers.values()):
                    continue
                chi = admitted_chi(numbers, m, end, lam, rng)
                out.append({"key": key(family, rank, black), "start": start, "end": end,
                            "chi": list(chi), "lam": lam_text,
                            "check_rows": sorted(rng.sample(range(1, PROFILE_ROWS + 1),
                                                            PROFILE_CHECKED_ROWS))})
                picked += 1
    return out
