"""Numerical construction of the Kaehler-Einstein profile function f(t).

The segment data are the exact pairs (a_alpha, r_alpha) = (<alpha, xi_Z0>,
<alpha, xi_0>) over the complementary positive roots of the flag F, so that
alpha(Z_0) = a_alpha and alpha(Z^0) = r_alpha / kappa.  All sign decisions
(the vanishing order d, chamber exit, the turning point of the inner
integral) happen on exact rationals; floats enter only in the quadrature.

Everything is computed in the normalised coordinate u = f / kappa, where the
chamber polynomial Q(u) = prod(a_alpha + u r_alpha) and the inner integral
J(u) = int_0^u (m - lambda w) Q(w) dw have exact rational coefficients and

    t(f) = int_0^{f/kappa} sqrt(Q(u) / (2 J(u))) du .

Each profile builds one table of t(u), once, in two parts that meet at the
peak m/lambda of J for lambda > 0 and at u_end/2 otherwise.  The left part
is in v = sqrt(u): Q vanishes to order m - 1 and J to order m at 0, so the
integrand 2 v sqrt(Q/2J) is analytic in v.  The right part is in
s = sqrt(u_end - u), where the integrand is analytic at a turning point (J
has a simple zero), at a chamber wall of order k (Q has a zero of order k)
and at an exit where J vanishes too.  There the table holds
tau(s) = t_sup - t, so t_sup is an exact panel sum and a query near the end
is resolved relative to the end.  An unbounded domain has only the left
part: [0, 1] in u, then [2^k, 2^(k+1)] for k = 0, 1, ..., added as queries
reach them.

The pairs are grouped into their distinct values, each with its multiplicity
mu (every root of one T-root has the same pair), so Q = prod (a + u r)^mu
over the distinct pairs and each factor is evaluated once however often it
occurs.  The inner integral takes Q(w)/Q(u) at the nodes w of its Gauss
rule as exp(sum mu log(factor(w)/factor(u))), one weighted sum of logs, so
that Q neither underflows nor cancels.

On the right part every factor a + u r is evaluated as (a + u_end r) -
s^2 r with a + u_end r exact, so a factor that vanishes at a wall is exactly
-s^2 r.  For lambda > 0, J there is J(u_end) plus the integral of
(lambda w - m) Q over [u, u_end], with J(u_end) exact at a wall and 0 at a
turning point; on the left part, and for lambda <= 0, J is integrated from
0.  Either way every term of the Gauss sum has one sign, so neither end
cancels.

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
import collections
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
_CURVATURE_RTOL = 1e-4  # fitted f''(0+) against kappa in `verdiani_check`


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
        for a, r in self.pairs:
            if a < 0:
                raise DomainError(f"alpha(Z_0) = {a} < 0: Z_0 leaves the chamber face")
            if a == 0 and r <= 0:
                raise DomainError("vanishing alpha(Z_0) requires alpha(Z^0) > 0")

    @property
    def d(self) -> int:
        """Vanishing order of the chamber polynomial at 0."""
        return sum(1 for a, _ in self.pairs if a == 0)

    @property
    def kappa(self) -> float:
        return math.sqrt(self.kappa_sq)

    @cached_property
    def _distinct_pairs(self) -> tuple[tuple[tuple[Fraction, Fraction], ...], tuple[int, ...]]:
        """The distinct values among `pairs`, in order of first occurrence,
        and the multiplicity of each: Q = prod (a + u r)^mu over them."""
        counts = collections.Counter(self.pairs)
        return tuple(counts), tuple(counts.values())

    @cached_property
    def _j_expansion(self) -> tuple[tuple[int, ...], int]:
        """(c, K) with J(u) = int_0^u (m - lambda w) Q(w) dw = sum c_k u^k / K,
        c integral and K > 0.

        Over the pairs' common denominator D, Q = P / D^n with P integral;
        m - lambda u = (m q - p u) / q for lambda = p/q; and L = lcm(1, ...,
        n + 2) clears the 1/(k + 1) of the antiderivative.  So K = D^n q L.
        """
        den = math.lcm(*(x.denominator for pair in self.pairs for x in pair))
        prod = [1]  # P, ascending
        for a, r in self.pairs:
            a_int, r_int = int(a * den), int(r * den)
            prod = [c * a_int + prev * r_int for c, prev in zip(prod + [0], [0] + prod)]
        p, q = self.lam.numerator, self.lam.denominator
        n = len(self.pairs)
        lcm = math.lcm(*range(1, n + 3))
        # u^k in (m q - p u) P has the coefficient m q P_k - p P_(k-1)
        coeffs = [0] + [(self.m * q * c - p * prev) * (lcm // (k + 1))
                        for k, (c, prev) in enumerate(zip(prod + [0], [0] + prod))]
        return tuple(coeffs), den ** n * q * lcm

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
    def _gauss_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes/weights on [0, 1] that integrate the inner integrand exactly.

        The integrand (m - lambda w) Q(w) is a polynomial of degree |pairs|+1,
        so Gauss-Legendre with ceil((deg+1)/2) = (|pairs| + 3)//2 points has
        no truncation error; evaluating Q in factored form keeps the rule
        numerically stable where the expanded coefficients would cancel
        catastrophically.
        """
        return _legendre((len(self.pairs) + 3) // 2)

    @cached_property
    def u_exit(self) -> Optional[Fraction]:
        """First chamber wall along the ray: min of -a/r over the negative slopes."""
        exits = [-a / r for a, r in self.pairs if r < 0 and a > 0]
        return min(exits) if exits else None

    @cached_property
    def _end(self) -> tuple[Optional[Fraction], Optional[Fraction]]:
        """(u_end, J(u_end)): the domain end, exact (None when unbounded), and
        for lambda > 0 the inner integral there, exact at a chamber wall and 0
        at a turning point (None for lambda <= 0, where it is not needed).

        For lambda > 0 the inner integral J rises on (0, m/lambda) and falls
        strictly afterwards while the chamber holds, so its first positive
        zero is bracketed by exact sign evaluations and bisected to a few
        ulps; no general root isolation is needed.  u_end is then that float.
        """
        u_exit = self.u_exit
        if self.lam <= 0:
            return u_exit, None
        # J > 0 on (0, m/lambda] while Q > 0, so a wall before the peak would
        # pass the test J(u_exit) >= 0 too; none exists, since lambda xi_Z0 =
        # sigma_F - m xi0 and <alpha, sigma_F> > 0 on R_M^+(F) put every wall
        # past m/lambda.
        if u_exit is not None:
            j_exit = self._j_exact(u_exit)
            if j_exit >= 0:
                return u_exit, j_exit
        peak = Fraction(self.m) / self.lam
        if u_exit is not None:
            lo, hi = peak, u_exit
        else:
            # No wall: every r_alpha >= 0, so Q is nondecreasing and
            # J(2m/lambda) = lambda int_0^{m/lambda} s (Q(m/lambda - s) - Q(m/lambda + s)) ds <= 0.
            lo, hi = peak, max(2 * peak, Fraction(1))
        # J(lo) > 0 >= J(hi): bisect the unique root of the decreasing branch
        for _ in range(200):
            if float(hi - lo) <= 2.0 * math.ulp(float(hi)):
                break
            mid = (lo + hi) / 2
            v = self._j_exact(mid)
            if v > 0:
                lo = mid
            elif v < 0:
                hi = mid
            else:
                lo = hi = mid
        return Fraction(float((lo + hi) / 2)), Fraction(0)

    @cached_property
    def u_sup(self) -> float:
        """Domain end in the normalised coordinate (math.inf when unbounded)."""
        u_end = self._end[0]
        return float(u_end) if u_end is not None else math.inf

    @cached_property
    def _parts(self) -> tuple[_Part, Optional[_Part], float]:
        """The table of t(u): its left part, its right part (None when the
        domain is unbounded) and the u where they meet (inf when unbounded).

        They meet at the peak m/lambda of J for lambda > 0, and at u_end/2
        for lambda <= 0, where J rises all the way.  Each part integrates J
        from the end on its side of the peak, so every term of its Gauss sum
        has one sign.
        """
        u_end, j_end = self._end
        zero = Fraction(0)
        if u_end is None:
            return _Part(self, zero, 1, zero, zero, Fraction(1)), None, math.inf
        split = self.m / self.lam if self.lam > 0 else u_end / 2
        j_point, j_at = (u_end, j_end) if self.lam > 0 else (zero, zero)
        left = _Part(self, zero, 1, zero, zero, split)
        right = _Part(self, u_end, -1, j_point, j_at, u_end - split)
        return left, right, float(split)

    @cached_property
    def t_sup(self) -> float:
        """Supremum of the reachable parameter values t (math.inf when unbounded)."""
        left, right, _ = self._parts
        return math.inf if right is None else left.panels[1][-1] + right.panels[1][-1]

    @property
    def f_sup(self) -> float:
        return self.kappa * self.u_sup


class _Part:
    """One part of the domain: the points u = anchor + orientation d, d =
    y^2 in [0, length], and the panel table of H(y) = int_0^y h, h(y) =
    2 y sqrt(Q/2J).

    The arrays run over the distinct pairs, and Q is the product of their
    factors raised to the multiplicities mu.  Each factor a + u r is base +
    d slope, with base = a + anchor r exact.  J is integrated from j_point
    (u = 0, or u = anchor on the right part for lambda > 0), where it is
    j_at, by the exact Gauss rule in d, along which dJ/dd = (e - lambda d) Q
    with e = orientation (m - lambda anchor).  At the node w = j_d (1 - x) +
    d x, a factor's ratio to its value at d is x + (1 - x) at_j/factor(d),
    at_j its value at j_point: two terms of one sign.  Q(w)/Q(d) is exp of
    the sum of the ratios' logs weighted by mu, so that Q neither underflows
    nor cancels.
    """

    def __init__(self, profile: MetricProfile, anchor: Fraction, orientation: int,
                 j_point: Fraction, j_at: Fraction, length: Fraction):
        pairs, mult = profile._distinct_pairs
        self.mu = np.array(mult, dtype=float)
        self.base = np.array([float(a + anchor * r) for a, r in pairs])
        self.at_j = np.array([float(a + j_point * r) for a, r in pairs])
        self.r = np.array([float(r) for _, r in pairs])
        self.slope = orientation * self.r
        x, w = profile._gauss_rule
        self.x, self.one_minus_x = x[:, None], (1.0 - x)[:, None]
        self.j_d = float(abs(j_point - anchor))  # j_point's distance d
        # (e - lambda w) times the Gauss weight is w0 - d w1 at the node w
        e, lam = float(orientation * (profile.m - profile.lam * anchor)), float(profile.lam)
        self.w0 = w * (e - lam * self.j_d * (1.0 - x))
        self.w1 = lam * w * x
        self.j_at = float(j_at)
        self.extent = math.sqrt(float(length))  # in y; `grow` extends it

    @cached_property
    def panels(self) -> tuple[list[float], list[float], list[np.ndarray]]:
        """(edges, cum, series): the panel ends in y, H there, and per panel
        [a, b] the Legendre coefficients (`_TO_SERIES`) of the interpolant p
        of theta -> h(a + theta (b - a)) at the 16 Gauss nodes and of G =
        int_0^theta p, so that H = cum + (b - a) G(theta) to the panel's
        accuracy.  Built on first use over [0, extent]; `grow` extends them."""
        edges, cum, series = [0.0], [0.0], []
        self._add_panels(edges, cum, series, self.extent)
        return edges, cum, series

    def factors(self, d):
        """a + u r at the distance d (or each entry of an array d), one per
        distinct pair, pairs last."""
        return self.base + np.multiply.outer(d, self.slope)

    def jq(self, d, factors):
        """J/Q at d, given `factors(d)`."""
        ratios = (self.at_j / factors)[..., None, :] * self.one_minus_x + self.x
        q_ratio = np.exp(np.log(ratios) @ self.mu)  # Q(w)/Q(d) at the nodes
        out = (d - self.j_d) * (q_ratio * (self.w0 - np.multiply.outer(d, self.w1))).sum(axis=-1)
        if self.j_at:
            out = out + self.j_at / np.prod(factors ** self.mu, axis=-1)
        return out

    def h(self, y: np.ndarray) -> np.ndarray:
        """The integrand 2 y sqrt(Q/2J) at the points y > 0."""
        d = y * y
        jq = self.jq(d, self.factors(d))
        if not np.all(jq > 0):
            raise NumericsError(f"inner integral not positive inside the domain (y in [{y.min()}, {y.max()}])")
        return 2.0 * y / np.sqrt(2.0 * jq)

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

    def grow(self) -> None:
        """Append the panels of [2^k, 2^(k+1)] in u after the last edge
        y = 2^(k/2) (unbounded domains)."""
        edges, cum, series = self.panels
        hi = edges[-1] * math.sqrt(2.0)
        if not math.isfinite(hi * hi):
            raise NumericsError("the parameter range outgrew the float range")
        self._add_panels(edges, cum, series, hi)

    def integral(self, y: float) -> float:
        """H(y), for y within the panels."""
        edges, cum, _ = self.panels
        i = _panel_index(edges, y)
        lo = edges[i]
        if y == lo:
            return cum[i]
        return cum[i] + (y - lo) * float(self.h(lo + (y - lo) * _X16) @ _W16)

    def solve(self, target: float) -> float:
        """y with H(y) = target, for 0 < target within the panels.

        The start is the root of the panel's interpolant (`_interpolant_root`),
        which costs no evaluation of h.  From there Newton runs in (log y,
        log H), so that a power law H = c y^p takes one step, inside the
        panel's bracket, on the exact 16-point value of H.
        """
        edges, cum, series = self.panels
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

    For lambda != 0 the initial vertex is forced.  For lambda = 0 it may be
    any interior point of the chamber face of the singular orbit, and each
    choice gives another Ricci-flat metric of the same datum: `z0` selects
    it (default: the sum of the black fundamental weights).  A point off
    the face or on its boundary raises DomainError.
    """
    lam = Fraction(lam)
    if lam != 0:
        if z0 is not None:
            raise UsageError("z0 is free only for lambda = 0")
        xi_z0 = es.z0_form(data, lam)
    else:
        if es.criterion(data.s0, data.string, data.beta_end).required_chi != data.chi:
            raise DomainError("data does not admit a Ricci-flat metric")
        xi_z0 = z0 if z0 is not None else es.z0_face_point(data)
        if not pd.chamber_contains(data.s0, xi_z0):
            raise DomainError("supplied z0 is not an interior face point")
    xi0 = bd.kappa_z0_form(data)
    ksq = bd.kappa_sq(xi0)
    flag = bd.flag_f(data)
    pairs = tuple(
        (rs.inner(alpha, xi_z0), rs.inner(alpha, xi0)) for alpha in pd.r_m_plus(flag)
    )
    profile = MetricProfile(pairs=pairs, kappa_sq=ksq, m=data.m, lam=lam)
    if profile.d != data.m - 1:
        raise AssertionError(
            f"vanishing order {profile.d} differs from m - 1 = {data.m - 1}"
        )
    return profile


def _check_f(profile: MetricProfile, f: float) -> float:
    """Validate f and return the normalised coordinate u."""
    if not math.isfinite(f):
        raise DomainError(f"f = {f} is not finite")
    if f < 0:
        raise DomainError(f"f = {f} is negative")
    u = f / profile.kappa
    if u >= profile.u_sup:
        raise DomainError(f"f = {f} is beyond the domain end {profile.f_sup}")
    return u


def _t_of_u(profile: MetricProfile, u: float) -> float:
    if u == 0:
        return 0.0
    left, right, split = profile._parts
    if u > split:
        return profile.t_sup - right.integral(math.sqrt(profile.u_sup - u))
    y = math.sqrt(u)
    while left.panels[0][-1] < y:
        left.grow()
    return left.integral(y)


def t_of_f(profile: MetricProfile, f: float) -> float:
    """Arc-length parameter t as a function of the segment coordinate f."""
    return _t_of_u(profile, _check_f(profile, f))


def f_of_t(profile: MetricProfile, t: float) -> float:
    """Inverse of t_of_f: Newton on the panel of the table that holds t,
    started from that panel's interpolant."""
    if not math.isfinite(t):
        raise DomainError(f"t = {t} is not finite")
    if t < 0:
        raise DomainError(f"t = {t} is negative")
    if t == 0:
        return 0.0
    if t >= profile.t_sup:
        raise DomainError(f"t = {t} is beyond the parameter range {profile.t_sup}")
    left, right, _ = profile._parts
    if right is None:
        while left.panels[1][-1] <= t:
            left.grow()
    if t < left.panels[1][-1]:
        y = left.solve(t)
        return profile.kappa * (y * y)
    s = right.solve(profile.t_sup - t)
    return profile.kappa * (profile.u_sup - s * s)


def _point(profile: MetricProfile, f: float) -> tuple[float, float, float]:
    """Validate f once and return (u, J(u)/Q(u), S(u)), where S = Q'/Q is the
    sum over the pairs of r_alpha/(a_alpha + u r_alpha), each distinct pair
    weighted by its multiplicity; Q must not vanish."""
    u = _check_f(profile, f)
    left, right, split = profile._parts
    part, d = (right, profile.u_sup - u) if u > split else (left, u)
    factors = part.factors(d)
    if not np.all(factors > 0):
        raise DomainError(f"chamber polynomial vanishes at f = {f}")
    return u, float(part.jq(d, factors)), float(part.r @ (part.mu / factors))


def _speed(profile: MetricProfile, jq: float) -> float:
    return profile.kappa * math.sqrt(max(2.0 * jq, 0.0))


def _acceleration(profile: MetricProfile, u: float, jq: float, s: float) -> float:
    # J Q'/Q^2 = (J/Q) S
    return profile.kappa * ((profile.m - float(profile.lam) * u) - jq * s)


def f_dot(profile: MetricProfile, f: float) -> float:
    """df/dt along the profile, from the first integral."""
    _, jq, _ = _point(profile, f)
    return _speed(profile, jq)


def f_ddot(profile: MetricProfile, f: float) -> float:
    """d^2f/dt^2 = kappa ((m - lambda u) - J S / Q), S the log-derivative of Q."""
    u, jq, s = _point(profile, f)
    return _acceleration(profile, u, jq, s)


def residual_at(profile: MetricProfile, f: float) -> float:
    """Residual of  f'' + A(f)/2 f'^2 + lambda f - kappa m  at the point f.

    f' and f'' come from the first integral, so the residual vanishes
    identically and measures only floating-point cancellation.
    """
    u, jq, s = _point(profile, f)
    fd = _speed(profile, jq)
    fdd = _acceleration(profile, u, jq, s)
    lam = float(profile.lam)
    return fdd + 0.5 * (s / profile.kappa) * fd * fd + lam * f - profile.kappa * profile.m


def ode_residual(profile: MetricProfile, t: float) -> float:
    """The residual of `residual_at` at the point f(t) of parameter t."""
    return residual_at(profile, f_of_t(profile, t))


@dataclass(frozen=True)
class VerdianiReport:
    """Small-t boundary behaviour versus the smooth-extension conditions."""

    d: int
    m: int
    kappa: float
    f_at_zero: float
    fdot_small: float          # f'(t) at the smallest probe, should be ~ kappa * t
    fitted_curvature: float    # least-squares c in f ~ (c/2) t^2
    relative_error: float
    t_probes: tuple[float, ...]
    passed: bool


def verdiani_check(profile: MetricProfile) -> VerdianiReport:
    """Check f(0) = 0, f'(0+) -> 0 and f''(0+) -> kappa on a small-t probe set."""
    t_ref = _reference_time(profile)
    probes = tuple(t_ref * s for s in (1e-3, 1e-4, 1e-5))
    f0 = f_of_t(profile, 0.0)
    fs = [f_of_t(profile, t) for t in probes]
    # least squares for f = (c/2) t^2 + e t^4: regressing 2f/t^2 on t^2
    # absorbs the quartic correction, so c is the curvature at 0
    ys = [2.0 * f / (t * t) for f, t in zip(fs, probes)]
    xs = [t * t for t in probes]
    n = len(probes)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    fitted = (sy * sxx - sx * sxy) / (n * sxx - sx * sx)
    rel = abs(fitted - profile.kappa) / profile.kappa
    fdot = f_dot(profile, fs[0])
    d_ok = profile.d == profile.m - 1
    passed = d_ok and f0 == 0.0 and rel < _CURVATURE_RTOL
    return VerdianiReport(
        d=profile.d,
        m=profile.m,
        kappa=profile.kappa,
        f_at_zero=f0,
        fdot_small=fdot,
        fitted_curvature=fitted,
        relative_error=rel,
        t_probes=probes,
        passed=passed,
    )


def _reference_time(profile: MetricProfile) -> float:
    u1 = 1.0
    if math.isfinite(profile.u_sup):
        u1 = min(1.0, profile.u_sup / 2)
    return _t_of_u(profile, u1)


def domain_end(profile: MetricProfile) -> float:
    """f_sup: least of the inner-integral turning point (lambda > 0) and the
    chamber exit, +inf when neither occurs."""
    return profile.f_sup
