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

The integrand has an inverse-square-root singularity at 0; the substitution
u = v^2 removes it before the adaptive quadrature runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.integrate import quad

from . import bundle as bd
from . import einstein as es
from . import painted as pd
from . import poly
from . import rootspace as rs
from .errors import DomainError, NumericsError, UsageError

_QUAD_EPS = 1e-12  # target absolute accuracy 1e-10 with margin
_INVERT_RTOL = 1e-12
_CURVATURE_RTOL = 1e-4  # fitted f''(0+) against kappa in `verdiani_check`


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
    def q_coeffs(self) -> poly.Poly:
        """Q(u) = prod (a_alpha + u r_alpha), exact."""
        q = poly.make([1])
        for a, r in self.pairs:
            q = poly.mul(q, poly.make([a, r]))
        return q

    @cached_property
    def j_coeffs(self) -> poly.Poly:
        """J(u) = int_0^u (m - lambda w) Q(w) dw, exact."""
        integrand = poly.mul(poly.make([self.m, -self.lam]), self.q_coeffs)
        return poly.integrate(integrand)

    @cached_property
    def _pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (a_alpha, r_alpha) as two float arrays, converted once."""
        a = np.array([float(x) for x, _ in self.pairs])
        r = np.array([float(x) for _, x in self.pairs])
        return a, r

    @cached_property
    def _gauss_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes/weights on [0, 1] that integrate the inner integrand exactly.

        The integrand (m - lambda w) Q(w) is a polynomial of degree |pairs|+1,
        so Gauss-Legendre with ceil((deg+1)/2) points has no truncation error;
        evaluating Q in factored form keeps the rule numerically stable where
        the expanded coefficients would cancel catastrophically.
        """
        n = (len(self.pairs) + 3) // 2 + 1
        x, w = np.polynomial.legendre.leggauss(n)
        return (x + 1.0) / 2.0, w / 2.0

    @cached_property
    def u_exit(self) -> Optional[Fraction]:
        """First chamber wall along the ray: min of -a/r over the negative slopes."""
        exits = [-a / r for a, r in self.pairs if r < 0 and a > 0]
        return min(exits) if exits else None

    @cached_property
    def _j_at_exit(self) -> Fraction:
        """J(u_exit), exact (only read with lambda > 0 and an exit)."""
        return poly.eval_exact(self.j_coeffs, self.u_exit)

    @cached_property
    def _j_split(self) -> float:
        """Where `_j_at` switches to integrating back from the exit: m/lambda
        when J(u_exit) == 0 exactly (lambda > 0), else inf."""
        if self.lam > 0 and self.u_exit is not None and self._j_at_exit == 0:
            return float(self.m / self.lam)
        return math.inf

    @cached_property
    def u_sup(self) -> float:
        """Domain end in the normalised coordinate (math.inf when unbounded).

        For lambda > 0 the inner integral J rises on (0, m/lambda) and falls
        strictly afterwards while the chamber holds, so its first positive
        zero is bracketed by exact sign evaluations and bisected; no general
        root isolation is needed.
        """
        u_exit = self.u_exit
        if self.lam <= 0:
            return float(u_exit) if u_exit is not None else math.inf
        peak = Fraction(self.m) / self.lam
        # J > 0 on (0, m/lambda] while Q > 0, so a wall before the peak would
        # pass this test too; none exists, since lambda xi_Z0 = sigma_F - m xi0
        # and <alpha, sigma_F> > 0 on R_M^+(F) put every wall past m/lambda.
        if u_exit is not None:
            if self._j_at_exit >= 0:
                return float(u_exit)
            lo, hi = peak, u_exit
        else:
            # No wall: every r_alpha >= 0, so Q is nondecreasing and
            # J(2m/lambda) = lambda int_0^{m/lambda} s (Q(m/lambda - s) - Q(m/lambda + s)) ds <= 0.
            lo, hi = peak, max(2 * peak, Fraction(1))
        jpoly = self.j_coeffs
        # J(lo) > 0 >= J(hi): bisect the unique root of the decreasing branch
        for _ in range(80):
            if float(hi - lo) <= 1e-13 * max(1.0, abs(float(hi))):
                break
            mid = (lo + hi) / 2
            v = poly.eval_exact(jpoly, mid)
            if v > 0:
                lo = mid
            elif v < 0:
                hi = mid
            else:
                return float(mid)
        return float((lo + hi) / 2)

    @cached_property
    def t_sup(self) -> float:
        """Supremum of the reachable parameter values t (math.inf when unbounded)."""
        if not math.isfinite(self.u_sup):
            return math.inf
        return _t_of_u(self, self.u_sup * (1 - 1e-9))

    @property
    def f_sup(self) -> float:
        return self.kappa * self.u_sup


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


def _q_at(profile: MetricProfile, u: float) -> float:
    # factored product: stable sign behaviour near the chamber walls
    a, r = profile._pair_arrays
    out = 1.0
    for factor in (a + u * r).tolist():
        out *= factor
    return out


def _j_at(profile: MetricProfile, u: float) -> float:
    """J(u) = int_0^u (m - lambda w) Q(w) dw by the exact Gauss rule.

    Where J vanishes at the chamber exit, J(u) = int_u^{u_exit} (lambda w - m)
    Q(w) dw past m/lambda: every term has one sign, while the forward sum
    cancels to noise next to the exit.
    """
    if u == 0.0:
        return 0.0
    nodes, weights = profile._gauss_rule
    a, r = profile._pair_arrays
    if u > profile._j_split:
        width = profile.u_sup - u
        ws, scale = u + width * nodes, -width
    else:
        ws, scale = u * nodes, u
    q_vals = np.prod(a[:, None] + np.outer(r, ws), axis=0)
    integrand = (profile.m - float(profile.lam) * ws) * q_vals
    return scale * float(weights @ integrand)


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


def _t_integrand(profile: MetricProfile, u: float) -> float:
    """dt/du = sqrt(Q(u) / (2 J(u))), the integrand of t(u)."""
    qv = _q_at(profile, u)
    jv = _j_at(profile, u)
    if jv <= 0 or qv < 0:
        raise DomainError(f"inner integral nonpositive at u = {u}: beyond the domain end")
    return math.sqrt(qv / (2.0 * jv))


def _t_of_u(profile: MetricProfile, u: float) -> float:
    if u == 0:
        return 0.0

    def integrand(v: float) -> float:
        return 2.0 * v * _t_integrand(profile, v * v)

    out = quad(
        integrand, 0.0, math.sqrt(u),
        epsabs=_QUAD_EPS, epsrel=_QUAD_EPS, limit=400, full_output=1,
    )
    val, err = out[0], out[1]
    if err > 1e-8 * max(1.0, abs(val)):
        raise NumericsError(f"quadrature failed to converge (estimated error {err})")
    return val


def t_of_f(profile: MetricProfile, f: float) -> float:
    """Arc-length parameter t as a function of the segment coordinate f."""
    return _t_of_u(profile, _check_f(profile, f))


def f_of_t(profile: MetricProfile, t: float) -> float:
    """Monotone inverse of t_of_f: safeguarded Newton inside a bisection bracket.

    Terminates on |t(u) - t| below a relative-in-t tolerance, which keeps the
    returned f accurate in relative terms all the way down to t -> 0.
    """
    if not math.isfinite(t):
        raise DomainError(f"t = {t} is not finite")
    if t < 0:
        raise DomainError(f"t = {t} is negative")
    if t == 0:
        return 0.0
    if t >= profile.t_sup:
        raise DomainError(f"t = {t} is beyond the parameter range {profile.t_sup}")
    if math.isfinite(profile.u_sup):
        hi = profile.u_sup * (1 - 1e-9)
    else:
        hi = 1.0
        while _t_of_u(profile, hi) < t:
            hi *= 2.0
            if hi > 1e18:
                raise NumericsError(f"failed to bracket t = {t}")
    lo = 0.0
    u = hi / 2
    tol = max(_INVERT_RTOL * t, 2e-12)
    for _ in range(200):
        tu = _t_of_u(profile, u)
        if abs(tu - t) <= tol:
            break
        if tu > t:
            hi = u
        else:
            lo = u
        try:
            slope = _t_integrand(profile, u)
        except DomainError:
            slope = math.inf
        step = (t - tu) / slope if math.isfinite(slope) and slope > 0 else 0.0
        u_new = u + step
        if not (lo < u_new < hi):
            u_new = 0.5 * (lo + hi)
        if hi - lo <= 1e-16 * max(1.0, hi):
            u = u_new
            break
        u = u_new
    else:
        raise NumericsError(f"inversion did not converge at t = {t}")
    return profile.kappa * u


def _point(profile: MetricProfile, f: float) -> tuple[float, float, float]:
    """Validate f once and return (u, Q(u), J(u)); Q must not vanish."""
    u = _check_f(profile, f)
    qv = _q_at(profile, u)
    if qv <= 0:
        raise DomainError(f"chamber polynomial vanishes at f = {f}")
    return u, qv, _j_at(profile, u)


def _log_derivative(profile: MetricProfile, u: float, f: float) -> float:
    """S(u) = Q'(u)/Q(u), the sum over the pairs of r_alpha/(a_alpha + u r_alpha)."""
    a, r = profile._pair_arrays
    total = 0.0
    for x, b in zip(a.tolist(), r.tolist()):
        denom = x + u * b
        if denom == 0:
            raise DomainError(f"chamber wall reached at f = {f}")
        total += b / denom
    return total


def _speed(profile: MetricProfile, qv: float, jv: float) -> float:
    return profile.kappa * math.sqrt(max(2.0 * jv / qv, 0.0))


def _acceleration(profile: MetricProfile, u: float, qv: float, jv: float, s: float) -> float:
    # J Q'/Q^2 = J S/Q
    return profile.kappa * ((profile.m - float(profile.lam) * u) - jv * s / qv)


def f_dot(profile: MetricProfile, f: float) -> float:
    """df/dt along the profile, from the first integral."""
    _, qv, jv = _point(profile, f)
    return _speed(profile, qv, jv)


def f_ddot(profile: MetricProfile, f: float) -> float:
    """d^2f/dt^2 = kappa ((m - lambda u) - J S / Q), S the log-derivative of Q."""
    u, qv, jv = _point(profile, f)
    return _acceleration(profile, u, qv, jv, _log_derivative(profile, u, f))


def mean_curvature_sum(profile: MetricProfile, f: float) -> float:
    """A(f): the sum over the pairs of alpha(Z^0)/(alpha(Z_0) + f alpha(Z^0)),
    which is S(u)/kappa."""
    return _log_derivative(profile, _check_f(profile, f), f) / profile.kappa


def residual_at(profile: MetricProfile, f: float) -> float:
    """Residual of  f'' + A(f)/2 f'^2 + lambda f - kappa m  at the point f.

    f' and f'' come from the first integral, so the residual vanishes
    identically and measures only floating-point cancellation.
    """
    u, qv, jv = _point(profile, f)
    s = _log_derivative(profile, u, f)
    fd = _speed(profile, qv, jv)
    fdd = _acceleration(profile, u, qv, jv, s)
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
