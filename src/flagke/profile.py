"""Numerical construction of the Kaehler-Einstein profile function f(t).

The segment data are the exact pairs (a_alpha, r_alpha) = (<alpha, xi_Z0>,
<alpha, xi_0>) over the complementary positive roots of the flag F, so that
alpha(Z_0) = a_alpha and alpha(Z^0) = r_alpha / kappa.  All sign decisions
(the vanishing order d, chamber exit, the turning point of the inner
integral) happen on exact rationals; floats enter only in the quadrature.

The exact set-up works on integers.  A positive root has integer epsilon
coordinates, so each root's pair is two integer dot products of its
numerators with those of xi_Z0 and xi_0, and the roots with one integer pair
share one Fraction pair.  Once per distinct pair, `metric_profile` checks
lambda a + m r = <alpha, sigma_F> on integers, sigma_F the Koszul form of F,
the root sum of R_M^+(F): lambda xi_Z0 + m xi_0 = sigma_F by the Koszul
update relations (m xi_0 = sigma_F at lambda = 0), and the check shares only
the roots with the pairs, so it catches a wrong xi_Z0, drop or dual form.

lambda is a scale.  In the normalised coordinate u = f / kappa the chamber
polynomial is prod(a_alpha + u r_alpha), and a_alpha is proportional to
1/lambda.  So the table is built in the unit coordinate v = |lambda| u (v = u
at lambda = 0) from the unit pairs (|lambda| a_alpha, r_alpha) and sgn =
sign lambda alone: there the chamber polynomial Q(v) = prod(a + v r) and the
inner integral J(v) = int_0^v (m - sgn w) Q(w) dw have exact rational
coefficients, and

    t(f) = t_hat(|lambda| f/kappa) / sqrt(|lambda|),
    t_hat(v) = int_0^v sqrt(Q(w) / (2 J(w))) dw ,

the unit time of the profile at lambda = sgn.  lambda's magnitude enters
only as the two float scales f = (kappa/|lambda|) v and t = t_hat /
sqrt(|lambda|) of the queries, so the table, its tolerances and the
bisection of its end are the same for every lambda of one sign.

Each profile builds one table of t_hat(v), once.  Only lambda > 0 bounds the
domain (`MetricProfile._end`), and its table has two parts that meet at the
peak m of J.  The left part is in y = sqrt(v): Q vanishes to order m - 1
and J to order m at 0, so the integrand 2 y sqrt(Q/2J) is analytic in y.
The right part is in s = sqrt(v_end - v), where the integrand is analytic
at a turning point (J has a simple zero), at a chamber wall of order k (Q
has a zero of order k) and at an exit where J vanishes too.  There the
table holds tau(s) = t_hat_sup - t_hat, so t_sup is an exact panel sum and
a query near the end is resolved relative to the end.  For lambda <= 0 the
domain is unbounded and has only the left part: [0, 1] in v, then
[2^k, 2^(k+1)] for k = 0, 1, ..., added as queries reach them, up to the
top of the float range (NumericsError past it).

Each query is tested once, in its own coordinate: f on [0, f_sup), t on
[0, t_sup).  An admitted f whose v rounds onto v_end is at the end, and
f(t) stays below f_sup.  NumericsError is raised where f_sup, kappa/|lambda|
or an f is past the float range.

The pairs are grouped into their distinct values, each with its multiplicity
mu (every root of one T-root has the same pair), so Q = prod (a + v r)^mu
over the distinct pairs and each factor is evaluated once however often it
occurs.  Each part divides out the factors that vanish at its anchor (the
a = 0 pairs at 0, the wall pairs at a wall) and integrates K = J/(Q d), d
the distance from the anchor, which is finite and positive on the whole
part.  K takes Q(w)/Q(v) at the nodes w of its Gauss rule as one weighted
sum of logs, and never forms Q as a product, which could underflow.

On the right part every factor a + v r is evaluated as (a + v_end r) -
s^2 r with a + v_end r exact, so a factor that vanishes at a wall is exactly
-s^2 r.  Each part integrates J from its own end: on the left part from 0,
on the right part from v_end, where J is exact at a wall and 0 at a turning
point, adding the integral of (w - m) Q over [v, v_end].  The peak m lies
between them, so every term of either Gauss sum has one sign and neither
end cancels.

Each part is a run of 16-point Gauss-Legendre panels.  A panel is bisected
until an 8-point rule agrees with it to 1e-14 max(1, |integral|), and keeps
its 16 values of the integrand as the Legendre coefficients of their
degree-15 interpolant.  t(f) adds one 16-point rule over the start of one
panel to the panel sums.  f(t) first solves for the point where the
integral of the panel's interpolant reaches t, by Newton on the polynomial
with no evaluation of the integrand; from there Newton on the exact 16-point
value, safeguarded by the panel's bracket, usually stops after that one
evaluation.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional

import numpy as np

from . import bundle as bd
from . import einstein as es
from . import painted as pd
from . import rootspace as rs
from .errors import DomainError, NumericsError, UsageError

_PANEL_RTOL = 1e-14  # a panel's 16- and 8-point rules agree to this, times max(1, |I|)
_NEWTON_STEPS = 60
_NEWTON_RTOL = 1e-9  # a Newton step this small leaves an error of about its square
# Newton on a panel's interpolant stops on a step in theta below
# 1e-12 theta + 1e-15.  Its integral G is rounded to about 1e-16 of the
# panel's mean, so theta is not resolved below 1e-15; below theta = 1e-8 the
# linear start, off by O(theta) relative, is as close and is taken as it is.
_START_RTOL, _START_ATOL, _LINEAR_START = 1e-12, 1e-15, 1e-8
_SERIES_RTOL = 1e-10  # f and f' against their two-term series in `verdiani_check`


def _past_range(what: str, log10_size: float, sign: str = "") -> NumericsError:
    return NumericsError(f"{what} is about {sign}1e{log10_size:.0f}, past the float range")


def _finite_float(x: Fraction, what: str) -> float:
    """float(x); NumericsError naming `what` and its magnitude when x is past the float range."""
    try:
        return float(x)
    except OverflowError:
        size = math.log10(abs(x.numerator)) - math.log10(x.denominator)
        raise _past_range(what, size, "-" if x < 0 else "") from None


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = (x + 1.0) / 2.0, w / 2.0
    x.flags.writeable = w.flags.writeable = False
    return x, w


_X16, _W16 = _legendre(16)
_X8, _W8 = _legendre(8)
_X24 = np.concatenate((_X16, _X8))


def _series_matrix() -> np.ndarray:
    """(33, 16): from the values of h at the 16 nodes of a panel to the
    Legendre coefficients, in P_k(2 theta - 1), of its degree-15 interpolant
    p (rows 0-15) and of G(theta) = int_0^theta p (rows 16-32).

    The 16-point rule is exact for p P_k, so c_k = (2k + 1) sum_j w_j h_j
    P_k(2 x_j - 1); G is the antiderivative in x = 2 theta - 1, halved, that
    vanishes at x = -1.
    """
    legendre = np.polynomial.legendre
    vander = legendre.legvander(2.0 * _X16 - 1.0, 15)
    to_p = (2.0 * np.arange(16) + 1.0)[:, None] * (vander * _W16[:, None]).T
    return np.vstack((to_p, legendre.legint(to_p, lbnd=-1, scl=0.5)))


_TO_SERIES = _series_matrix()
# P_k = a_k x P_(k-1) - b_k P_(k-2), for k = 2, ..., 16
_RECURRENCE = tuple(((2 * k - 1) / k, (k - 1) / k) for k in range(2, 17))


@dataclass(frozen=True)
class MetricProfile:
    """Immutable segment data; evaluation methods live at module level."""

    pairs: tuple[tuple[Fraction, Fraction], ...]  # (a_alpha, r_alpha)
    kappa_sq: Fraction
    m: int
    lam: Fraction

    def __post_init__(self):
        exact = (int, Fraction)
        if not (all(isinstance(x, exact) for pair in self.pairs for x in pair)
                and isinstance(self.lam, exact) and isinstance(self.kappa_sq, exact)
                and isinstance(self.m, int)):
            raise UsageError("a profile needs exact pairs, lambda and kappa^2 and an integer m, got "
                             f"{self.pairs!r}, {self.lam!r}, {self.kappa_sq!r}, {self.m!r}")
        if self.kappa_sq <= 0 or self.m < 1:
            raise DomainError(f"a profile needs kappa^2 > 0 and m >= 1, got {self.kappa_sq}, {self.m}")
        # the first pair that fails a check is the first occurrence of its
        # value; a unit pair (A, R) has the signs of (a, r), and a = A/(D scale)
        ints, _, den = self._unit_pairs
        for a_int, r_int in ints:
            if a_int < 0:
                raise DomainError(f"alpha(Z_0) = {Fraction(a_int, den) / self._scale} < 0: "
                                  "Z_0 leaves the chamber face")
            if a_int == 0 and r_int <= 0:
                raise DomainError("vanishing alpha(Z_0) requires alpha(Z^0) > 0")
        if self.lam <= 0 and any(r_int < 0 for _, r_int in ints):
            wall = min(Fraction(-a_int, r_int) for a_int, r_int in ints if r_int < 0) / self._scale
            raise DomainError(f"alpha(Z^0) < 0 with lambda = {self.lam} <= 0: the segment meets a "
                              f"chamber wall at u = {wall}")
        _finite_float(self.lam, "lambda")
        if self.lam:
            _finite_float(1 / self.lam, "1/lambda")
        _finite_float(self.kappa_sq, "kappa^2")
        for a_int, r_int in ints:
            _finite_float(Fraction(a_int, den), "a_alpha of a unit root pair")
            _finite_float(Fraction(r_int, den), "r_alpha of a root pair")

    @property
    def d(self) -> int:
        """Vanishing order of the chamber polynomial at 0."""
        ints, mult, _ = self._unit_pairs
        return sum(mu for (a_int, _), mu in zip(ints, mult) if a_int == 0)

    @cached_property
    def kappa(self) -> float:
        return math.sqrt(self.kappa_sq)

    @cached_property
    def _sign(self) -> int:
        """sign lambda: the one trace of lambda in the table."""
        return (self.lam > 0) - (self.lam < 0)

    @cached_property
    def _scale(self) -> Fraction:
        """|lambda|, and 1 at lambda = 0: the unit coordinate is v = scale u."""
        return abs(self.lam) or Fraction(1)

    @cached_property
    def _float_scales(self) -> tuple[float, float, float]:
        """(scale, sqrt(scale), kappa/scale) as floats: v = scale f/kappa,
        t = t_hat/sqrt(scale) and f = (kappa/scale) v at the query boundary."""
        scale = float(self._scale)
        return scale, math.sqrt(scale), self.kappa / scale

    @cached_property
    def _unit_pairs(self) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], int]:
        """(ints, mult, D): the distinct values among the unit pairs (|lambda|
        a, r), in order of first occurrence, as integers (A, R) over their
        least common denominator D, and the multiplicity of each, so that Q =
        prod ((A + v R)/D)^mu.  A pair is keyed by the integer numerators and
        denominators of a and r, which hash at the cost of a tuple of ints; a
        Fraction's hash takes a modular inverse."""
        groups: dict[tuple[int, int, int, int], list] = {}
        for pair in self.pairs:
            a, r = pair
            groups.setdefault((a.numerator, a.denominator, r.numerator, r.denominator), [pair, 0])[1] += 1
        scale = self._scale
        pairs = [(scale * a, r) for (a, r), _ in groups.values()]
        den = math.lcm(*(x.denominator for pair in pairs for x in pair))
        ints = tuple((a.numerator * (den // a.denominator), r.numerator * (den // r.denominator)) for a, r in pairs)
        return ints, tuple(mu for _, mu in groups.values()), den

    @cached_property
    def _j_expansion(self) -> tuple[tuple[int, ...], int]:
        """(c, K) with J(v) = int_0^v (m - sgn w) Q(w) dw = sum c_k v^k / K
        over the unit pairs, c integral and K > 0.

        Over the unit pairs' common denominator D, Q = P / D^n with P
        integral, and L = lcm(1, ..., n + 2) clears the 1/(k + 1) of the
        antiderivative.  So K = D^n L.
        """
        ints, mult, den = self._unit_pairs
        prod = [1]  # P, ascending
        for (a_int, r_int), mu in zip(ints, mult):
            for _ in range(mu):
                prod = [c * a_int + prev * r_int for c, prev in zip(prod + [0], [0] + prod)]
        n = sum(mult)
        lcm = math.lcm(*range(1, n + 3))
        # v^k in (m - sgn v) P has the coefficient m P_k - sgn P_(k-1)
        coeffs = [0] + [(self.m * c - self._sign * prev) * (lcm // (k + 1))
                        for k, (c, prev) in enumerate(zip(prod + [0], [0] + prod))]
        return tuple(coeffs), den ** n * lcm

    def _j_exact(self, x: Fraction) -> Fraction:
        """J(x), exact: sum c_k X^k Y^(N-k) / (K Y^N) for x = X/Y, by integer
        Horner."""
        coeffs, scale = self._j_expansion
        num, den = x.numerator, x.denominator
        acc, den_pow = coeffs[-1], 1
        for c in reversed(coeffs[:-1]):
            den_pow *= den
            acc = acc * num + c * den_pow
        return Fraction(acc, scale * den_pow)

    @cached_property
    def _end(self) -> tuple[Optional[Fraction], Optional[Fraction]]:
        """(v_end, J(v_end)) for lambda > 0: the domain end in v, exact, and
        the inner integral there, exact at a chamber wall and 0 at a turning
        point.  (None, None) for lambda <= 0, where the domain is unbounded.

        For sgn = 1 the inner integral J rises on (0, m) and falls strictly
        afterwards while the chamber holds, so its first positive zero is
        bracketed by exact sign evaluations and bisected to 2 ulps; no
        general root isolation is needed.  v_end is then that float.  The
        bracket starts at lo = m >= 1, so ulp(hi) >= 2^-52 and the loop stops
        once hi - lo <= 2^-51: within log2(hi_0 - m) + 53 halvings for any
        finite top hi_0, about 53 for [m, 2m].  NumericsError when hi_0 has
        no finite float.
        """
        # lambda xi_Z0 = sigma_F - m xi0, and m xi0 = sigma_F at lambda = 0, so
        # for lambda <= 0 every r_alpha > 0 by <alpha, sigma_F> > 0 on R_M^+(F)
        # (`__post_init__` rejects a negative slope): no wall, J rises for ever.
        if self._sign <= 0:
            return None, None
        exits = [Fraction(-a, r) for a, r in self._unit_pairs[0] if r < 0]
        v_exit = min(exits) if exits else None
        peak = Fraction(self.m)
        # With no wall every r_alpha >= 0, so Q is nondecreasing and
        # J(2m) = int_0^m s (Q(m - s) - Q(m + s)) ds <= 0.
        lo, hi = peak, 2 * peak if v_exit is None else v_exit
        _finite_float(hi, "the top of the bracket of v_end")
        # J > 0 on (0, m] while Q > 0, so a wall before the peak would pass
        # the test J(v_exit) >= 0 too; none exists, since lambda xi_Z0 =
        # sigma_F - m xi0 and <alpha, sigma_F> > 0 on R_M^+(F) put every wall
        # past m.
        if v_exit is not None:
            j_exit = self._j_exact(v_exit)
            if j_exit >= 0:
                return v_exit, j_exit
        # J(lo) > 0 >= J(hi): bisect the unique root of the decreasing branch
        while float(hi - lo) > 2.0 * math.ulp(float(hi)):
            mid = (lo + hi) / 2
            j = self._j_exact(mid)
            if j > 0:
                lo = mid
            elif j < 0:
                hi = mid
            else:
                lo = hi = mid
        return Fraction(float((lo + hi) / 2)), Fraction(0)

    @cached_property
    def u_sup(self) -> float:
        """Domain end in the normalised coordinate u, the exact v_end/|lambda|
        rounded once (math.inf when unbounded)."""
        v_end = self._end[0]
        return _finite_float(v_end / self._scale, "the domain end u_sup") if v_end is not None else math.inf

    @cached_property
    def _parts(self) -> tuple[_Part, Optional[_Part], float]:
        """The table of t_hat(v): its left part, its right part (None when
        the domain is unbounded) and the v where they meet (inf when
        unbounded).

        A bounded domain (lambda > 0) splits at the peak m of J.  Each part
        integrates J from its own end, 0 or v_end, so every term of its Gauss
        sum has one sign.
        """
        v_end, j_end = self._end
        zero = Fraction(0)
        if v_end is None:
            return _Part(self, zero, 1, zero, Fraction(1)), None, math.inf
        peak = Fraction(self.m)
        right = _Part(self, v_end, -1, j_end, v_end - peak)
        return _Part(self, zero, 1, zero, peak), right, float(peak)

    @cached_property
    def _t_hat_sup(self) -> float:
        """Supremum of t_hat (math.inf when unbounded), an exact panel sum."""
        left, right, _ = self._parts
        return math.inf if right is None else left.panels[1][-1] + right.panels[1][-1]

    @cached_property
    def t_sup(self) -> float:
        """Domain end in t: a query t is admitted on [0, t_sup) (math.inf when unbounded)."""
        return self._t_hat_sup / self._float_scales[1]

    @cached_property
    def f_sup(self) -> float:
        """Domain end in f, kappa u_sup: a query f is admitted on [0, f_sup) (math.inf
        when unbounded).  NumericsError where a bounded end is past the float range."""
        f_sup = self.kappa * self.u_sup
        if f_sup == math.inf and self._end[0] is not None:
            raise _past_range("the domain end f_sup", math.log10(self.kappa) + math.log10(self.u_sup))
        return f_sup


class _Part:
    """One part of the domain: the points v = v0 + orientation d, v0 the
    anchor as a float and d = y^2 in [0, length], and the panel table of
    H(y) = int_0^y h, h(y) = 2 y sqrt(Q/2J) = 2/sqrt(2K), K = J/(Q d).

    Each factor a + v r is base + d slope, with base = a + anchor r exact.
    The distinct pairs with base 0 (a = 0 on the left part, the wall pairs
    at a wall) are split off, `order` being their total multiplicity; the
    arrays run over the others, with multiplicities mu.  J is integrated from
    the anchor, where it is j_at, by the exact Gauss rule in d, along which
    dJ/dd = (e - sgn d) Q with e = orientation (m - sgn anchor).  At
    the node w = d x a factor's ratio to its value at d is x if split off,
    else x + (1 - x) base/factor(d), two terms of one sign.  K sums their
    logs weighted by mu, forms no product, and is finite and positive on
    the whole part (+inf at a wall, where h = 0).
    """

    def __init__(self, profile: MetricProfile, anchor: Fraction, orientation: int,
                 j_at: Fraction, length: Fraction):
        ints, mult, den = profile._unit_pairs
        # a + anchor r = (A q + p R) / (D q) for anchor = p/q; int/int true
        # division rounds once, correctly, as float(Fraction) does
        p, q = anchor.numerator, anchor.denominator
        exact = [a * q + p * r for a, r in ints]
        base_den = den * q
        keep = np.array([b != 0 for b in exact], dtype=bool)
        base = np.array([b / base_den for b in exact])
        r = np.array([r_int / den for _, r_int in ints])
        mu = np.array(mult, dtype=float)
        self.order = sum(k for k, b in zip(mult, exact) if not b)
        self.base, self.r, self.mu = base[keep], r[keep], mu[keep]
        self.slope, self.orientation, self.v0 = orientation * self.r, orientation, float(anchor)
        # log(J(anchor) / prod slope^mu over the vanishing pairs), at a wall
        self.log_j = (math.log(j_at.numerator) - math.log(j_at.denominator)
                      - float(mu[~keep] @ np.log(orientation * r[~keep]))) if j_at else None
        # (e - sgn w) Q(w) has degree n + 1 for n = sum(mult) root pairs, so
        # Gauss-Legendre with (n + 3)//2 points integrates it exactly; Q in
        # factored form keeps the rule stable where expanded coefficients
        # would cancel
        x, w = _legendre((sum(mult) + 3) // 2)
        self.x, self.one_minus_x = x[:, None], (1.0 - x)[:, None]
        # (e - sgn w) (w/d)^order times the Gauss weight is w0 - d w1 at the node w = d x
        e, self.sign = orientation * (profile.m * q - profile._sign * p) / q, float(profile._sign)
        w = w * x ** self.order
        self.w0, self.w1 = w * e, self.sign * w * x
        self.extent = math.sqrt(float(length))  # in y, of the first table

    @cached_property
    def panels(self) -> tuple[list[float], list[float], list[np.ndarray]]:
        """(edges, cum, series): the panel ends in y, H there, and per panel
        [a, b] the Legendre coefficients (`_TO_SERIES`) of the interpolant p
        of theta -> h(a + theta (b - a)) at the 16 Gauss nodes and of G =
        int_0^theta p, so that H = cum + (b - a) G(theta) to the panel's
        accuracy.  Built on first use over [0, extent]; `reach` publishes longer ones."""
        edges, cum, series = [0.0], [0.0], []
        self._add_panels(edges, cum, series, self.extent)
        return edges, cum, series

    def factors(self, d):
        """a + v r at the distance d (or each entry of an array d), one per
        kept pair, pairs last."""
        return self.base + np.multiply.outer(d, self.slope)

    def k(self, d, factors):
        """K = J/(Q d) at d (or each entry of an array d), given `factors(d)`;
        NumericsError unless it is positive."""
        ratios = (self.base / factors)[..., None, :] * self.one_minus_x + self.x
        q_ratio = np.exp(np.log(ratios) @ self.mu)  # at the nodes, over the kept pairs
        out = (q_ratio * (self.w0 - np.multiply.outer(d, self.w1))).sum(axis=-1)
        if self.log_j is not None:
            # J(v_end)/(d Q) from logs: +inf at the wall d = 0, where h = 0
            with np.errstate(divide="ignore", over="ignore"):
                out = out + np.exp(self.log_j - (self.order + 1) * np.log(d) - np.log(factors) @ self.mu)
        if not out.min() > 0:  # NaN fails too
            raise NumericsError(f"inner integral not positive inside the domain (d in [{np.min(d)}, {np.max(d)}])")
        return out

    def h(self, y: np.ndarray) -> np.ndarray:
        """The integrand 2 y sqrt(Q/2J) = 1/sqrt(K/2) at the points y >= 0:
        K/2 cannot overflow where 2K would, and is exact unless K < 2^-1021."""
        d = y * y
        return 1.0 / np.sqrt(0.5 * self.k(d, self.factors(d)))

    def _add_panels(self, edges: list[float], cum: list[float], series: list[np.ndarray],
                    hi: float) -> None:
        """Append panels from the last edge up to hi, bisecting each until its
        16- and 8-point rules agree, and keep each panel's interpolant."""
        pending = [(edges[-1], hi)]
        while pending:
            a, b = pending.pop()
            vals = self.h(a + (b - a) * _X24)
            fine = (b - a) * float(vals[:16] @ _W16)
            coarse = (b - a) * float(vals[16:] @ _W8)
            if abs(fine - coarse) <= _PANEL_RTOL * max(1.0, abs(fine)):
                edges.append(b)
                cum.append(cum[-1] + fine)
                series.append(_TO_SERIES @ vals[:16])
            elif b - a <= 1e-12 * hi:
                raise NumericsError(f"panel [{a}, {b}] unresolved (rule difference {fine - coarse})")
            else:
                mid = 0.5 * (a + b)
                pending += [(mid, b), (a, mid)]

    def reach(self, y: float = 0.0, target: float = 0.0) -> tuple[list[float], list[float], list[np.ndarray]]:
        """The panel table, holding y and H = target.  On an unbounded domain
        (lambda <= 0) a short table is copied, extended by the panels of
        [2^k, 2^(k+1)] in v after its last edge y = 2^(k/2) and published
        whole: no published table changes, and each is a prefix of one panel
        sequence, so threads sharing the part get the serial floats.  Every
        r >= 0 there, so for lambda < 0 J/Q(s v) <= s^2 J/Q(v), that is
        K(s d) <= s K(d), for s >= 1: the new panels, out to s = 2, stay
        finite while 8 K at the last edge does."""
        edges, cum, series = table = self.panels
        if self.sign <= 0 and (edges[-1] < y or cum[-1] <= target):
            edges, cum, series = edges[:], cum[:], series[:]
            while edges[-1] < y or cum[-1] <= target:
                hi, d = edges[-1] * math.sqrt(2.0), edges[-1] ** 2
                k = float(self.k(d, self.factors(d))) if self.sign < 0 else 0.0
                if not math.isfinite(hi * hi + 8.0 * k):
                    raise NumericsError(f"the table of t(v) reaches the end of the float range at v = {d:.6g}")
                self._add_panels(edges, cum, series, hi)
            self.panels = table = edges, cum, series
        return table

    def integral(self, y: float) -> float:
        """H(y) for y >= 0, within the panels on a bounded domain.  h is
        finite at every edge (0 at a wall), so at an edge this is cum there."""
        edges, cum, _ = self.reach(y)
        i = _panel_index(edges, y)
        lo = edges[i]
        return cum[i] + (y - lo) * float(self.h(lo + (y - lo) * _X16) @ _W16)

    def solve(self, target: float) -> float:
        """y with H(y) = target (0 for target <= 0), within the panels on a bounded domain.

        The start is the root of the panel's interpolant (`_interpolant_root`),
        which costs no evaluation of h.  From there Newton runs in (log y,
        log H), so that a power law H = c y^p takes one step, inside the
        panel's bracket, on the exact 16-point value of H.
        """
        if target <= 0:
            return 0.0
        edges, cum, series = self.reach(target=target)
        i = _panel_index(cum, target)
        lo, start = edges[i], cum[i]
        blo, bhi = lo, edges[i + 1]
        width = bhi - lo
        y = lo + width * _interpolant_root(series[i], (target - start) / width)
        for _ in range(_NEWTON_STEPS):
            vals = self.h(np.append(lo + (y - lo) * _X16, y))
            value = start + (y - lo) * float(vals[:16] @ _W16)
            if value == target:
                return y
            if value < target:
                blo = y
            else:
                bhi = y
            newton = value > 0 and vals[16] > 0
            if newton:
                # log1p keeps the digits of log(value/target) near the root;
                # far below it, its argument rounds to -1
                if value < 0.5 * target:
                    log_ratio = math.log(value / target)
                else:
                    log_ratio = math.log1p((value - target) / target)
                step = -log_ratio * value / (y * vals[16])
                y_new = y * math.exp(step)
                # a converged step may round onto an end of the bracket
                if blo <= y_new <= bhi and abs(y_new - y) <= _NEWTON_RTOL * y:
                    return y_new
                newton = blo < y_new < bhi
            if not newton:
                y_new = 0.5 * (blo + bhi)
            if bhi - blo <= 4 * math.ulp(bhi):
                return y_new
            y = y_new
        raise NumericsError(f"inversion did not converge at H = {target}")


def _interpolant_root(series: np.ndarray, tau: float) -> float:
    """theta in (0, 1) with G(theta) = tau for one panel's `series`: Newton
    on the polynomial in plain floats, safeguarded by bisection, from the
    linear start tau / G(1), which is returned as it is when tiny."""
    coeffs = series.tolist()
    p, g = coeffs[:16], coeffs[16:]
    theta = tau / p[0]  # G(1) = p[0], the panel's mean of h
    if theta <= _LINEAR_START:
        return theta
    if theta >= 1.0:
        theta = 0.5
    lo, hi = 0.0, 1.0
    for _ in range(_NEWTON_STEPS):
        x = 2.0 * theta - 1.0
        prev, cur = 1.0, x
        slope, value = p[0] + p[1] * x, g[0] + g[1] * x
        for (a_k, b_k), p_k, g_k in zip(_RECURRENCE, p[2:], g[2:]):
            prev, cur = cur, a_k * x * cur - b_k * prev
            slope += p_k * cur
            value += g_k * cur
        a_k, b_k = _RECURRENCE[-1]
        value += g[16] * (a_k * x * cur - b_k * prev)
        if value < tau:
            lo = theta
        else:
            hi = theta
        if slope > 0:
            new = theta - (value - tau) / slope
            if lo <= new <= hi and abs(new - theta) <= _START_RTOL * theta + _START_ATOL:
                return new
            if lo < new < hi:
                theta = new
                continue
        theta = 0.5 * (lo + hi)
    return theta


def _panel_index(ends: list[float], value: float) -> int:
    """The panel whose ends bracket value (the last one past the end)."""
    return min(bisect.bisect_right(ends, value), len(ends) - 1) - 1


def metric_profile(
    data: bd.AdmissibleData,
    lam,
    z0: Optional[rs.Weight] = None,
) -> MetricProfile:
    """Build the profile of an admitted datum.

    lam is an int or a Fraction.  For lambda != 0 the initial vertex is
    forced.  For lambda = 0 it may be any interior point of the chamber face
    of the singular orbit, and each choice gives another Ricci-flat metric
    of the same datum: `z0` selects it (default: the sum of the black
    fundamental weights; DomainError off the face or on its boundary).
    """
    if not isinstance(lam, (int, Fraction)):
        raise UsageError(f"lambda must be an int or a Fraction, got {lam!r}")
    lam = Fraction(lam)
    if lam != 0:
        if z0 is not None:
            raise UsageError("z0 is free only for lambda = 0")
        xi_z0 = es.z0_form(data, lam)
    else:
        if es.criterion(data.end).required_chi != data.chi:
            raise DomainError("data does not admit a Ricci-flat metric")
        xi_z0 = z0 if z0 is not None else es.z0_face_point(data.end)
        if not pd.chamber_contains(data.end.s0, xi_z0):
            raise DomainError("supplied z0 is not an interior face point")
    end, xi0 = data.end, bd.kappa_z0_form(data)
    m, roots = end.m, pd.r_m_plus(end.flag)
    sigma = pd.root_sum(roots)
    # A positive root has denominator 1, so <alpha, xi> is the integer dot
    # product of the numerators over den(xi) 2c.  Equal integer pairs share
    # one Fraction pair, and lambda xi_Z0 + m xi_0 = sigma_F (the Koszul
    # update relations; m xi_0 = sigma_F at lambda = 0) is checked once per
    # distinct pair, times 2c q den(xi_Z0) den(xi_0) for lambda = p/q.
    z_num, z_den, x_num, x_den = xi_z0.num, xi_z0.den, xi0.num, xi0.den
    two_c, p, q = end.flag.algebra.two_c, lam.numerator, lam.denominator
    shared: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    pairs = []
    for alpha in roots:
        key = (sum(map(mul, alpha.num, z_num)), sum(map(mul, alpha.num, x_num)))
        pair = shared.get(key)
        if pair is None:
            ka, kr = key
            ks = sum(map(mul, alpha.num, sigma))
            if p * ka * x_den + m * kr * q * z_den != ks * q * z_den * x_den:
                where = end.s0.key() + ("" if end.string is None else
                                        f" string@{end.string.start} beta={end.beta_end}")
                raise AssertionError(
                    f"{where} chi={data.chi} lambda={lam}: lambda a + m r = "
                    f"{lam * Fraction(ka, two_c * z_den) + m * Fraction(kr, two_c * x_den)} differs from "
                    f"<alpha, sigma_F> = {Fraction(ks, two_c)} at alpha = {alpha}")
            pair = shared[key] = (Fraction(ka, two_c * z_den), Fraction(kr, two_c * x_den))
        pairs.append(pair)
    profile = MetricProfile(pairs=tuple(pairs), kappa_sq=bd.kappa(data)[0], m=m, lam=lam)
    if profile.d != m - 1:
        raise AssertionError(f"vanishing order {profile.d} differs from m - 1 = {m - 1}")
    return profile


def _admit(x: float, name: str, sup: float, end: str) -> None:
    """DomainError unless the query `name` = x lies in [0, sup), sup its `end`."""
    if not math.isfinite(x):
        raise DomainError(f"{name} = {x} is not finite")
    if x < 0:
        raise DomainError(f"{name} = {x} is negative")
    if x >= sup:
        raise DomainError(f"{name} = {x} is beyond the {end} {sup}")


def _locate(profile: MetricProfile, f: float) -> tuple[float, _Part, float]:
    """Admit f and return (v, part, d): v = |lambda| f/kappa, the part holding it and
    the distance d from the part's anchor, 0 where v rounds onto the domain end."""
    _admit(f, "f", profile.f_sup, "domain end")
    u = f / profile.kappa
    if u == math.inf:
        raise DomainError(f"f = {f} is past the float range of u = f/kappa")
    v = u * profile._float_scales[0]
    left, right, split = profile._parts
    part = right if v > split else left
    return v, part, max(part.orientation * (v - part.v0), 0.0)


def t_of_f(profile: MetricProfile, f: float) -> float:
    """Arc-length parameter t as a function of the segment coordinate f: the
    unit time t_hat at v from the table, over sqrt(|lambda|)."""
    _, part, d = _locate(profile, f)
    h = part.integral(math.sqrt(d))
    return (h if part.orientation > 0 else profile._t_hat_sup - h) / profile._float_scales[1]


def f_of_t(profile: MetricProfile, t: float) -> float:
    """Inverse of t_of_f: Newton on the panel of the table that holds t, started from
    that panel's interpolant.  Below f_sup; NumericsError past the float range."""
    _admit(t, "t", profile.t_sup, "parameter range")
    _, root, f_per_v = profile._float_scales
    t_hat = t * root
    left, right, _ = profile._parts
    part = left if right is None or t_hat < left.panels[1][-1] else right
    y = part.solve(t_hat if part is left else profile._t_hat_sup - t_hat)
    v = part.v0 + part.orientation * (y * y)
    f = f_per_v * v
    if not f < math.inf:  # nan where kappa/|lambda| = inf and v = 0
        if f_per_v == math.inf:
            raise _past_range("kappa/|lambda|", math.log10(profile.kappa) - math.log10(profile._float_scales[0]))
        raise _past_range(f"f at t = {t}", math.log10(f_per_v) + math.log10(v))
    return min(f, math.nextafter(profile.f_sup, 0.0))


def _point(profile: MetricProfile, f: float) -> tuple[float, float, float]:
    """Admit f once and return (sqrt(2 J/Q), J S/Q, f'') at v = |lambda|
    f/kappa, where S = Q'/Q is the sum of r/(a + v r) over the unit pairs and
    f'' = kappa ((m - sgn v) - J S/Q), which holds no lambda: in v, J/Q
    carries a factor |lambda| and S its inverse.  On its part J/Q = d K, and
    a split-off factor d slope adds orientation/d to S, so J S/Q = K (d
    S_kept + orientation order): no product of d and K, which could overflow
    on an unbounded domain, and no 0/0 at the anchor.  NumericsError where
    either of the first two is not a finite float, as within about 1e-6 of a
    high-order wall, where K overflows, and at a wall itself."""
    v, part, d = _locate(profile, f)
    factors = part.factors(d)
    k, s_kept = float(part.k(d, factors)), float(part.r @ (part.mu / factors))
    speed, jsq = math.sqrt(2.0 * d) * math.sqrt(k), k * (d * s_kept + part.orientation * part.order)
    if not (math.isfinite(speed) and math.isfinite(jsq)):
        raise NumericsError(f"sqrt(2J/Q) = {speed} or J S/Q = {jsq} is not a finite float at f = {f}")
    return speed, jsq, profile.kappa * ((profile.m - profile._sign * v) - jsq)


def f_dot(profile: MetricProfile, f: float) -> float:
    """df/dt = kappa sqrt(2 J/Q) along the profile, from the first integral;
    in v the root carries sqrt(|lambda|)."""
    return profile.kappa * _point(profile, f)[0] / profile._float_scales[1]


def f_ddot(profile: MetricProfile, f: float) -> float:
    """d^2f/dt^2 = kappa ((m - sgn v) - J S / Q), S the log-derivative of Q."""
    return _point(profile, f)[2]


def residual_at(profile: MetricProfile, f: float) -> float:
    """Residual of  f'' + A(f)/2 f'^2 + lambda f - kappa m  at the point f.

    f' and f'' come from the first integral, so A(f)/2 f'^2 = kappa J S/Q:
    the residual vanishes identically and measures only cancellation.
    """
    _, jsq, fdd = _point(profile, f)
    return fdd + profile.kappa * jsq + float(profile.lam) * f - profile.kappa * profile.m


def ode_residual(profile: MetricProfile, t: float) -> float:
    """The residual of `residual_at` at the point f(t) of parameter t."""
    return residual_at(profile, f_of_t(profile, t))


@dataclass(frozen=True)
class VerdianiReport:
    """What `verdiani_check` measured: the exact series coefficient u2 (None
    when d != m - 1), the largest relative deviation of f and f' from their
    series (inf then) and the probe times."""

    u2: Optional[Fraction]
    relative_error: float
    t_probes: tuple[float, ...]
    passed: bool


def verdiani_check(profile: MetricProfile) -> VerdianiReport:
    """Check the smooth closing over the singular orbit, f(0) = 0, f'(0) = 0
    and f''(0) = kappa, against the exact two-term series of f.

    With d = m - 1, J(v) = sum c_k v^k / K starts at c_m v^m, and x =
    t_hat^2/2 = |lambda| t^2/2 gives v = x + u2 x^2 + O(x^3), u2 = -(c_(m+1)
    / c_m + sgn)/(3m) exact, so

        f = (kappa/|lambda|) x (1 + u2 x),    f' = kappa t (1 + 2 u2 x).

    `f_of_t`, and `f_dot` at its f, are compared with these at x = 1e-8 rho
    and 1e-10 rho, rho = min(1, a/|r|) over the unit pairs with a > 0 and r
    != 0: the distance from 0 to the nearest other zero of Q, capped at 1.
    So the dropped terms are about 1e-16 relative, and the probes scale with
    a face point at lambda = 0 as they do with lambda.  The check passes
    when d = m - 1 and the largest relative deviation is below
    `_SERIES_RTOL` = 1e-10; when d != m - 1 no series is formed.
    """
    m = profile.m
    if profile.d != m - 1:
        return VerdianiReport(None, math.inf, (), False)
    coeffs = profile._j_expansion[0]
    u2 = -(Fraction(coeffs[m + 1], coeffs[m]) + profile._sign) / (3 * m)
    rho = min([Fraction(1)] + [Fraction(a, abs(r)) for a, r in profile._unit_pairs[0] if a > 0 and r])
    _, root, f_per_v = profile._float_scales
    xs = (1e-8 * float(rho), 1e-10 * float(rho))
    probes = tuple(math.sqrt(2.0 * x) / root for x in xs)
    c, worst = float(u2), 0.0
    for x, t in zip(xs, probes):
        f = f_of_t(profile, t)
        worst = max(worst, abs(f / (f_per_v * x * (1.0 + c * x)) - 1.0),
                    abs(f_dot(profile, f) / (profile.kappa * t * (1.0 + 2.0 * c * x)) - 1.0))
    return VerdianiReport(u2, worst, probes, worst < _SERIES_RTOL)


def domain_end(profile: MetricProfile) -> float:
    """f_sup: for lambda > 0 the first of the turning point of the inner integral
    and the chamber exit, one of which occurs; +inf for lambda <= 0."""
    return profile.f_sup
