"""Exact arithmetic for classical root systems in epsilon coordinates.

Weights of the families A, B, C, D are stored as vectors of rationals over
the standard epsilon basis of the Cartan dual (length rank+1 for family A,
rank otherwise).  Family-A weights are kept as the usual non-trace-free
representatives; the inner product projects both arguments onto the
trace-free hyperplane, so representatives differing by a multiple of
eps_1 + ... + eps_n compare equal.

The normalisation of the inner product is the one induced by the Killing
form on each compact real form:  <eps_i, eps_j> = delta_ij / (2c)  with
c = n, 2n-1, 2(n+1), 2(n-1) for A_{n-1}, B_n, C_n, D_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import ConfigurationError, UsageError

FAMILIES = ("A", "B", "C", "D")

MIN_RANK = {"A": 1, "B": 1, "C": 1, "D": 3}


def frac_str(x: Fraction) -> str:
    """Canonical text of a rational: ``"p"`` when integral, else ``"p/q"``."""
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


@dataclass(frozen=True, order=True)
class Algebra:
    """A classical family tag plus rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}")
        if not isinstance(self.rank, int) or self.rank < MIN_RANK[self.family]:
            raise ConfigurationError(
                f"family {self.family} requires rank >= {MIN_RANK[self.family]}, got {self.rank!r}"
            )

    @property
    def ambient_dim(self) -> int:
        """Length of the epsilon coordinate vectors."""
        return self.rank + 1 if self.family == "A" else self.rank

    @property
    def killing_constant(self) -> Fraction:
        """The constant c with <eps_i, eps_j> = delta_ij/(2c)."""
        n = self.rank
        if self.family == "A":
            return Fraction(n + 1)
        if self.family == "B":
            return Fraction(2 * n - 1)
        if self.family == "C":
            return Fraction(2 * (n + 1))
        return Fraction(2 * (n - 1))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _as_fractions(coeffs: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coeffs)


@dataclass(frozen=True, eq=False)
class Weight:
    """An exact linear form on the Cartan, in epsilon coordinates."""

    algebra: Algebra
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = _as_fractions(self.coeffs)
        if len(coeffs) != self.algebra.ambient_dim:
            raise UsageError(
                f"{self.algebra} weights need {self.algebra.ambient_dim} coordinates, got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _raw(cls, algebra: Algebra, coeffs: tuple[Fraction, ...]) -> "Weight":
        """Internal constructor for already-canonical coefficient tuples."""
        w = object.__new__(cls)
        object.__setattr__(w, "algebra", algebra)
        object.__setattr__(w, "coeffs", coeffs)
        return w

    def projected(self) -> tuple[Fraction, ...]:
        """Coordinates after the family-A trace-free projection (identity otherwise)."""
        if self.algebra.family != "A":
            return self.coeffs
        n = len(self.coeffs)
        mean = sum(self.coeffs) / n
        if mean == 0:
            return self.coeffs
        return tuple(c - mean for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.projected())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Weight):
            return NotImplemented
        if self.algebra != other.algebra:
            return False
        if self.coeffs == other.coeffs:
            return True
        return self.projected() == other.projected()

    def __hash__(self) -> int:
        return hash((self.algebra, self.projected()))

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight._raw(self.algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight._raw(self.algebra, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Weight":
        return Weight._raw(self.algebra, tuple(-a for a in self.coeffs))

    def __mul__(self, scalar) -> "Weight":
        s = Fraction(scalar)
        return Weight._raw(self.algebra, tuple(s * a for a in self.coeffs))

    __rmul__ = __mul__

    def _check(self, other: "Weight") -> None:
        if self.algebra != other.algebra:
            raise UsageError(f"algebra mismatch: {self.algebra} vs {other.algebra}")

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.coeffs)
        return f"Weight({self.algebra}, ({body}))"


def weight(algebra: Algebra, coeffs: Sequence) -> Weight:
    return Weight(algebra, _as_fractions(coeffs))


def zero_weight(algebra: Algebra) -> Weight:
    return Weight(algebra, (Fraction(0),) * algebra.ambient_dim)


def epsilon(algebra: Algebra, i: int) -> Weight:
    """The basis form eps_i (1-based)."""
    if not 1 <= i <= algebra.ambient_dim:
        raise UsageError(f"epsilon index {i} out of range for {algebra}")
    coeffs = [Fraction(0)] * algebra.ambient_dim
    coeffs[i - 1] = Fraction(1)
    return Weight(algebra, tuple(coeffs))


@lru_cache(maxsize=None)
def simple_roots(algebra: Algebra) -> tuple[Weight, ...]:
    """Simple roots in the standard ordering (chain first, family tail last)."""
    ell = algebra.rank
    roots = []
    chain_len = ell if algebra.family == "A" else ell - 1
    for i in range(1, chain_len + 1):
        roots.append(epsilon(algebra, i) - epsilon(algebra, i + 1))
    if algebra.family == "B":
        roots.append(epsilon(algebra, ell))
    elif algebra.family == "C":
        roots.append(2 * epsilon(algebra, ell))
    elif algebra.family == "D":
        roots.append(epsilon(algebra, ell - 1) + epsilon(algebra, ell))
    return tuple(roots)


@lru_cache(maxsize=None)
def positive_roots(algebra: Algebra) -> tuple[Weight, ...]:
    """The positive system for `simple_roots`, in a fixed deterministic order."""
    ell = algebra.rank
    n = algebra.ambient_dim
    eps = [epsilon(algebra, i) for i in range(1, n + 1)]
    roots: list[Weight] = []
    for i in range(n):
        for j in range(i + 1, n):
            roots.append(eps[i] - eps[j])
    if algebra.family in ("B", "C", "D"):
        for i in range(ell):
            for j in range(i + 1, ell):
                roots.append(eps[i] + eps[j])
    if algebra.family == "B":
        roots.extend(eps[i] for i in range(ell))
    elif algebra.family == "C":
        roots.extend(2 * eps[i] for i in range(ell))
    return tuple(roots)


def inner(x: Weight, y: Weight) -> Fraction:
    """Killing-form inner product <x, y> (family A projects both arguments)."""
    if x.algebra != y.algebra:
        raise UsageError(f"algebra mismatch: {x.algebra} vs {y.algebra}")
    dot = sum(a * b for a, b in zip(x.projected(), y.projected()))
    return dot / (2 * x.algebra.killing_constant)


@lru_cache(maxsize=None)
def fundamental_weight(algebra: Algebra, node: int) -> Weight:
    """Closed-form representative of the fundamental weight of a simple root."""
    ell = algebra.rank
    if not 1 <= node <= ell:
        raise UsageError(f"node {node} out of range for {algebra}")
    n = algebra.ambient_dim
    head = lambda k: [Fraction(1)] * k + [Fraction(0)] * (n - k)  # noqa: E731
    fam = algebra.family
    if fam in ("A", "C") or (fam == "B" and node < ell) or (fam == "D" and node <= ell - 2):
        return Weight(algebra, tuple(head(node)))
    if fam == "B":  # node == ell
        return Weight(algebra, tuple(Fraction(1, 2) for _ in range(n)))
    coeffs = [Fraction(1, 2)] * n
    if node == ell - 1:  # D fork tip eps_{l-1} - eps_l
        coeffs[-1] = Fraction(-1, 2)
    return Weight(algebra, tuple(coeffs))


@lru_cache(maxsize=None)
def _simple_gram_inverse(algebra: Algebra) -> tuple[tuple[Fraction, ...], ...]:
    simples = simple_roots(algebra)
    ell = algebra.rank
    g = [[inner(simples[i], simples[j]) for j in range(ell)] for i in range(ell)]
    aug = [row[:] + [Fraction(int(i == j)) for j in range(ell)] for i, row in enumerate(g)]
    for col in range(ell):
        pivot = next(r for r in range(col, ell) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(ell):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[ell:]) for row in aug)


def simple_coordinates(algebra: Algebra, w: Weight) -> tuple[Fraction, ...]:
    """Coordinates of `w` in the simple-root basis (family A: of its projection)."""
    if w.algebra != algebra:
        raise UsageError(f"algebra mismatch: {algebra} vs {w.algebra}")
    simples = simple_roots(algebra)
    rhs = [inner(w, s) for s in simples]
    ginv = _simple_gram_inverse(algebra)
    return tuple(sum(ginv[i][j] * rhs[j] for j in range(algebra.rank)) for i in range(algebra.rank))


@lru_cache(maxsize=None)
def positive_root_supports(algebra: Algebra) -> tuple[frozenset[int], ...]:
    """For each positive root, the set of simple-root nodes (1-based) with
    nonzero coefficient in its simple-root expansion."""
    supports = []
    for root in positive_roots(algebra):
        coords = simple_coordinates(algebra, root)
        supports.append(frozenset(i + 1 for i, c in enumerate(coords) if c != 0))
    return tuple(supports)
