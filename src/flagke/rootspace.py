"""Exact arithmetic for classical root systems in epsilon coordinates.

Weights of the families A, B, C, D are vectors of rationals over the
standard epsilon basis of the Cartan dual (length rank+1 for family A, rank
otherwise), stored as a tuple of integer numerators over one positive common
denominator, reduced by their gcd.  A weight is a value with no arithmetic:
it is built only by `Weight.from_numerators`, and every sum is formed on
integer numerators first (the root tables here, `fundamental_numerators`
and the black pi sums of `bundle.End`).  The inner product is one integer
dot product; only its result is a Fraction.
The Cartan subalgebra of su(n) is the trace-free hyperplane, so a family-A
weight is stored by its trace-free representative.

The normalisation of the inner product is the one induced by the Killing
form on each compact real form:  <eps_i, eps_j> = delta_ij / (2c)  with
c = n, 2n-1, 2(n+1), 2(n-1) for A_{n-1}, B_n, C_n, D_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import mul

from .errors import UsageError

FAMILIES = ("A", "B", "C", "D")

MIN_RANK = {"A": 1, "B": 1, "C": 1, "D": 3}


@dataclass(frozen=True, order=True)
class Algebra:
    """A classical family tag plus rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UsageError(f"unknown family {self.family!r}")
        if not isinstance(self.rank, int) or self.rank < MIN_RANK[self.family]:
            raise UsageError(
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

    @cached_property
    def _two_c(self) -> int:
        """2c as an integer, the denominator of <eps_i, eps_i>."""
        return 2 * self.killing_constant.numerator

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True, init=False)
class Weight:
    """An exact linear form on the Cartan, in epsilon coordinates.

    A value with no arithmetic: stored as integer numerators `num` over one
    positive denominator `den`, with gcd(den, *num) == 1 and, for family A,
    sum(num) == 0, so one weight has one stored form and equality and hashing
    compare (algebra, num, den).  `coeffs` is the rational view.  Build one
    only with `from_numerators`; sums and multiples are formed on integer
    numerators before it is called.
    """

    algebra: Algebra
    num: tuple[int, ...]
    den: int

    @classmethod
    def from_numerators(cls, algebra: Algebra, num: tuple[int, ...], den: int) -> "Weight":
        """The weight num/den (den > 0, `num` of the ambient length), reduced;
        family A: its trace-free representative n*x_i - sum(x) over n*den."""
        if algebra.family == "A":
            total = sum(num)
            if total:
                n = len(num)
                num = tuple(n * a - total for a in num)
                den *= n
        g = gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
        w = object.__new__(cls)
        set_ = object.__setattr__  # the dataclass is frozen
        set_(w, "algebra", algebra)
        set_(w, "num", num)
        set_(w, "den", den)
        return w

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The epsilon coordinates as rationals (family A: trace-free)."""
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.coeffs)
        return f"Weight({self.algebra}, ({body}))"


def _root(algebra: Algebra, terms) -> Weight:
    """The root sum of c*eps_i over the (i, c) of `terms` (1-based i): integer
    coordinates, so over denominator 1."""
    num = [0] * algebra.ambient_dim
    for i, c in terms:
        num[i - 1] = c
    return Weight.from_numerators(algebra, tuple(num), 1)


@lru_cache(maxsize=None)
def simple_roots(algebra: Algebra) -> tuple[Weight, ...]:
    """Simple roots in the standard ordering (chain first, family tail last):
    eps_i - eps_{i+1}, then eps_l (B), 2 eps_l (C) or eps_{l-1} + eps_l (D)."""
    ell = algebra.rank
    chain_len = ell if algebra.family == "A" else ell - 1
    terms = [((i, 1), (i + 1, -1)) for i in range(1, chain_len + 1)]
    tail = {"B": ((ell, 1),), "C": ((ell, 2),), "D": ((ell - 1, 1), (ell, 1))}.get(algebra.family)
    if tail:
        terms.append(tail)
    return tuple(_root(algebra, t) for t in terms)


@lru_cache(maxsize=None)
def positive_roots(algebra: Algebra) -> tuple[Weight, ...]:
    """The positive system for `simple_roots`, in a fixed deterministic order:
    eps_i - eps_j (i < j), then eps_i + eps_j (i < j; B, C, D), then eps_i (B)
    or 2 eps_i (C)."""
    ell, n = algebra.rank, algebra.ambient_dim
    terms = [((i, 1), (j, -1)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if algebra.family != "A":
        terms += [((i, 1), (j, 1)) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
    if algebra.family in ("B", "C"):
        c = 1 if algebra.family == "B" else 2
        terms += [((i, c),) for i in range(1, ell + 1)]
    return tuple(_root(algebra, t) for t in terms)


def inner(x: Weight, y: Weight) -> Fraction:
    """Killing-form inner product <x, y>: one integer dot product over the
    common denominator dx*dy*2c."""
    alg = x.algebra
    if alg != y.algebra:
        raise UsageError(f"algebra mismatch: {alg} vs {y.algebra}")
    return Fraction(sum(map(mul, x.num, y.num)), x.den * y.den * alg._two_c)


@lru_cache(maxsize=None)
def fundamental_numerators(algebra: Algebra) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, columns): the closed-form fundamental weights pi_1, ..., pi_l as
    integer numerators over one denominator, n = ambient_dim for family A
    (trace-free: n - k on the first k coordinates of pi_k, -k on the rest),
    else 2 (half-integers at the B short node and the D fork tips)."""
    ell, n = algebra.rank, algebra.ambient_dim
    if algebra.family == "A":
        return n, tuple(tuple([n - k] * k + [-k] * (n - k)) for k in range(1, ell + 1))
    cols = [tuple([2] * k + [0] * (n - k)) for k in range(1, ell + 1)]
    if algebra.family == "B":
        cols[-1] = (1,) * n
    elif algebra.family == "D":  # fork tips eps_{l-1} -+ eps_l
        cols[-2:] = [(1,) * (n - 1) + (-1,), (1,) * n]
    return 2, tuple(cols)


@lru_cache(maxsize=None)
def _simple_root_norms(algebra: Algebra) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each simple root's integer numerators (its denominator is 1) with their
    square sum."""
    return tuple((alpha.num, sum(map(mul, alpha.num, alpha.num))) for alpha in simple_roots(algebra))


def fundamental_coordinates(algebra: Algebra, w: Weight) -> tuple[Fraction, ...]:
    """Coordinates of `w` over the fundamental weights, 2<w, alpha_i>/<alpha_i, alpha_i>
    (Humphreys, Introduction to Lie Algebras and Representation Theory, 13.1).
    The Killing normalisation cancels, so each is one integer dot product:
    2 (w.num . alpha_i) / (w.den |alpha_i|^2)."""
    if w.algebra != algebra:
        raise UsageError(f"algebra mismatch: {algebra} vs {w.algebra}")
    num, den = w.num, w.den
    return tuple(Fraction(2 * sum(map(mul, num, a)), den * sq) for a, sq in _simple_root_norms(algebra))


@lru_cache(maxsize=None)
def positive_root_supports(algebra: Algebra) -> tuple[frozenset[int], ...]:
    """For each positive root, the set of simple-root nodes (1-based) with
    nonzero coefficient in its simple-root expansion.  That coefficient is
    <root, pi_i> times 2/<alpha_i, alpha_i>, so it is nonzero iff the integer
    dot product of the numerators of the root and of pi_i is."""
    pis = fundamental_numerators(algebra)[1]
    return tuple(
        frozenset(i for i, pi in enumerate(pis, start=1) if sum(map(mul, root.num, pi)))
        for root in positive_roots(algebra)
    )
