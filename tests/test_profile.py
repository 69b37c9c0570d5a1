import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from flagke import bundle as bd, cli, diagram, profile as pf, rootspace as rs
from flagke.errors import DomainError, UsageError

from conftest import EXIT_ZERO


def point_orbit(m):
    return bd.admissible_data(diagram("A", m - 1, set()), 1, "left", ())


def a11_data(chi):
    return bd.admissible_data(diagram("A", 11, {3, 6}), 1, "left", chi)


def sample_profiles():
    return [
        (pf.metric_profile(a11_data((1, 1)), Fraction(1)), "a11 lam+"),
        (pf.metric_profile(a11_data((3, 4)), Fraction(-1)), "a11 lam-"),
        (pf.metric_profile(a11_data((2, 3)), Fraction(0)), "a11 lam0"),
        (pf.metric_profile(bd.admissible_data(diagram("B", 3, {1}), None, None, (2,)), Fraction(1)), "b3 m1"),
        (pf.metric_profile(bd.admissible_data(diagram("D", 4, {3}), 1, "left", (1,)), Fraction(2)), "d4 fork"),
    ]


def multiplicity_profiles():
    """Data whose pairs repeat most: D9 rank one at lambda = 0 has one pair
    of multiplicity 16; A8 rank one at lambda = 1 has 25 pairs in 6 distinct
    values and ends at a wall."""
    return [
        (pf.metric_profile(bd.admissible_data(cli.parse_diagram("D9:*oooooooo"), None, None, (16,)), 0),
         "d9 one pair"),
        (pf.metric_profile(bd.admissible_data(cli.parse_diagram("A8:**oooo*o"), None, None, (-1, 0, -2)), 1),
         "a8 wall"),
    ]


def grouping_profiles():
    """`sample_profiles`, a wall at lambda = 1 and `multiplicity_profiles`."""
    wall = pf.metric_profile(bd.admissible_data(diagram("B", 3, {1}), None, None, (-1,)), 1)
    assert math.isfinite(wall.f_sup)
    return sample_profiles() + [(wall, "b3 wall")] + multiplicity_profiles()


def test_point_orbit_flat_profile():
    data = point_orbit(2)
    prof = pf.metric_profile(data, 0)
    kap = prof.kappa
    T = pf.t_of_f(prof, 4 * kap)
    for i in range(33):
        t = T * i / 32
        assert abs(pf.f_of_t(prof, t) - kap * t * t / 2) < 1e-9
    assert math.isinf(prof.f_sup)


def test_point_orbit_positive_profile():
    m = 2
    prof = pf.metric_profile(point_orbit(m), 1)
    kap = prof.kappa
    a, b = 2 * kap, -2.0 / (m + 1)
    t_max = math.pi / math.sqrt(-b)
    assert abs(prof.t_sup - t_max) < 1e-12
    assert abs(prof.f_sup - kap * (m + 1)) < 1e-12
    for i in range(33):
        t = 0.97 * t_max * i / 32
        expected = -(a / b) * math.sin(math.sqrt(-b) * t / 2) ** 2
        assert abs(pf.f_of_t(prof, t) - expected) < 1e-9


def test_point_orbit_negative_profile():
    m = 3
    prof = pf.metric_profile(point_orbit(m), -1)
    kap = prof.kappa
    a, b = 2 * kap, 2.0 / (m + 1)
    T = pf.t_of_f(prof, 5 * kap)
    for i in range(33):
        t = T * i / 32
        expected = (a / b) * math.sinh(math.sqrt(b) * t / 2) ** 2
        assert abs(pf.f_of_t(prof, t) - expected) < 1e-9
    assert math.isinf(prof.f_sup)


def test_polynomial_p_point_orbit_is_monomial():
    for m in (2, 4):
        prof = pf.metric_profile(point_orbit(m), 1)
        q = _exact_q(prof)
        assert len(q) == m  # degree m-1
        assert all(c == 0 for c in q[:-1]) and q[-1] > 0
        assert prof.d == m - 1


def test_polynomial_p_structure():
    prof = pf.metric_profile(a11_data((1, 1)), Fraction(1))
    q = _exact_q(prof)
    n_roots = len(prof.pairs)
    import flagke.painted as pdm
    assert n_roots == len(pdm.r_m_plus(bd.flag_f(a11_data((1, 1)))))
    assert len(q) - 1 == n_roots
    d = prof.d
    assert all(c == 0 for c in q[:d]) and q[d] != 0
    assert d == 3 - 1


def test_polynomial_p_matches_pair_product():
    prof = pf.metric_profile(a11_data((1, 1)), Fraction(1))
    _, mult = prof._distinct_pairs
    for u in (0.1, 0.4, 0.9):
        via_q = float(_horner(_exact_q(prof), Fraction(u)))
        # one factor per distinct pair, raised to its multiplicity
        factors = prof._parts[0].factors(u)
        assert math.isclose(math.prod(f ** k for f, k in zip(factors.tolist(), mult)), via_q, rel_tol=1e-9)


def test_t_of_f_basics():
    prof = pf.metric_profile(a11_data((1, 1)), Fraction(1))
    assert pf.t_of_f(prof, 0.0) == 0.0
    grid = [prof.f_sup * s for s in (0.1, 0.25, 0.5, 0.75, 0.9)]
    ts = [pf.t_of_f(prof, f) for f in grid]
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))
    with pytest.raises(DomainError):
        pf.t_of_f(prof, -0.1)
    with pytest.raises(DomainError):
        pf.t_of_f(prof, prof.f_sup * 1.01)


def test_inverse_round_trip():
    rng = random.Random(5)
    for prof, label in sample_profiles():
        hi = prof.f_sup * 0.95 if math.isfinite(prof.f_sup) else 5 * prof.kappa
        for _ in range(25):
            x = rng.uniform(1e-6, hi)
            t = pf.t_of_f(prof, x)
            assert abs(pf.f_of_t(prof, t) - x) < 1e-8 * max(1.0, x), label
        for s in (0.05, 0.3, 0.6, 0.9):
            t = s * pf.t_of_f(prof, hi)
            assert abs(pf.t_of_f(prof, pf.f_of_t(prof, t)) - t) < 1e-8, label


def test_f_of_t_follows_the_series_at_small_t():
    # f = kappa t^2/2 (1 + O(t^2)) at the singular orbit, down to t where f
    # is still a normal float
    for prof, label in sample_profiles():
        for t in (1e-6, 1e-9, 1e-12, 1e-100):
            series = prof.kappa * t * t / 2
            assert abs(pf.f_of_t(prof, t) - series) <= 1e-9 * series, (label, t)


def test_f_of_t_domain_errors():
    prof = pf.metric_profile(point_orbit(2), 1)
    with pytest.raises(DomainError):
        pf.f_of_t(prof, -1.0)
    with pytest.raises(DomainError):
        pf.f_of_t(prof, prof.t_sup * 1.01)


def a3_wall_profile():
    return pf.metric_profile(bd.admissible_data(diagram("A", 3, {2}), 1, "left", (-1,)), 1)


def test_f_dot_rejects_negative_f():
    with pytest.raises(DomainError, match=r"^f = -5\.0 is negative$"):
        pf.f_dot(a3_wall_profile(), -5.0)


def test_f_dot_rejects_f_past_domain_end():
    prof = a3_wall_profile()
    assert math.isfinite(prof.f_sup)
    with pytest.raises(DomainError, match="beyond the domain end"):
        pf.f_dot(prof, prof.f_sup)
    with pytest.raises(DomainError, match="beyond the domain end"):
        pf.f_dot(prof, 1e9)


NON_FINITE_PROFILES = {
    # unbounded: f and t range over [0, inf)
    "A1 lam-": lambda: pf.metric_profile(point_orbit(2), -1),
    # bounded: the segment ends on a chamber wall at f_sup
    "A3 lam+": a3_wall_profile,
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("query, arg", [
    (pf.t_of_f, "f"), (pf.f_of_t, "t"), (pf.f_dot, "f"), (pf.ode_residual, "t"),
    (pf.f_ddot, "f"),
], ids=lambda q: getattr(q, "__name__", q))
@pytest.mark.parametrize("label", sorted(NON_FINITE_PROFILES))
def test_queries_reject_non_finite_arguments(label, query, arg, value):
    prof = NON_FINITE_PROFILES[label]()
    with pytest.raises(DomainError, match=rf"^{arg} = {value} is not finite$"):
        query(prof, value)


def test_ode_residual_small_everywhere():
    for prof, label in sample_profiles():
        hi = prof.f_sup * 0.9 if math.isfinite(prof.f_sup) else 4 * prof.kappa
        T = pf.t_of_f(prof, hi)
        for i in range(1, 10):
            assert abs(pf.ode_residual(prof, T * i / 10)) < 1e-8, label


def test_ode_constant_solution_identity():
    # f == kappa m / lambda solves the equation with zero derivatives
    for prof, _ in sample_profiles():
        lam = float(prof.lam)
        if lam == 0:
            continue
        f_const = prof.kappa * prof.m / lam
        assert 0.0 + 0.0 + lam * f_const - prof.kappa * prof.m == pytest.approx(0.0, abs=1e-15)


def test_f_dot_matches_finite_differences():
    for prof, label in sample_profiles():
        hi = prof.f_sup * 0.8 if math.isfinite(prof.f_sup) else 3 * prof.kappa
        T = pf.t_of_f(prof, hi)
        for s in (0.3, 0.7):
            t = s * T
            h = 1e-5 * T
            fd = (pf.f_of_t(prof, t + h) - pf.f_of_t(prof, t - h)) / (2 * h)
            an = pf.f_dot(prof, pf.f_of_t(prof, t))
            assert abs(fd - an) < 1e-5 * max(1.0, abs(an)), label


def test_f_ddot_matches_finite_differences_of_f_dot():
    for prof, label in sample_profiles():
        hi = prof.f_sup * 0.8 if math.isfinite(prof.f_sup) else 3 * prof.kappa
        T = pf.t_of_f(prof, hi)
        t = 0.5 * T
        h = 1e-5 * T
        fdot = lambda tt: pf.f_dot(prof, pf.f_of_t(prof, tt))  # noqa: E731
        fd = (fdot(t + h) - fdot(t - h)) / (2 * h)
        an = pf.f_ddot(prof, pf.f_of_t(prof, t))
        assert abs(fd - an) < 1e-4 * max(1.0, abs(an)), label


def exact_f_ddot(prof, f):
    """kappa ((m - lambda u) - J Q'/Q^2) at u = f/kappa, in exact rationals
    from the pairs: Q' by the product rule, J from `_exact_j`.  Also returns
    kappa times the larger of the two terms, the scale of the cancellation
    between them."""
    u = Fraction(f / prof.kappa)
    factors = [a + u * r for a, r in prof.pairs]
    q = math.prod(factors)
    dq = sum(r * math.prod(factors[:k] + factors[k + 1:]) for k, (_, r) in enumerate(prof.pairs))
    j = _horner(_exact_j(prof), u)
    first, second = prof.m - prof.lam * u, j * dq / (q * q)
    return prof.kappa * float(first - second), prof.kappa * float(max(abs(first), abs(second)))


def test_f_ddot_matches_exact_rational_value():
    # on both parts, where each distinct pair is weighted by its multiplicity
    for prof, label in grouping_profiles():
        pairs, mult = prof._distinct_pairs
        assert sum(mult) == len(prof.pairs) and len(set(pairs)) == len(pairs), label
        hi = 0.9 * prof.f_sup if math.isfinite(prof.f_sup) else 4 * prof.kappa
        fs = [hi * i / 10 for i in range(1, 11)]
        _, right, split = prof._parts
        if right is not None:
            fs += [prof.kappa * (split + (prof.u_sup - split) * x) for x in (0.1, 0.5, 0.9)]
        for f in fs:
            exact, scale = exact_f_ddot(prof, f)
            assert abs(pf.f_ddot(prof, f) - exact) <= 1e-12 * scale, (label, f)


def test_f_of_t_matches_integrated_second_order_equation():
    # f'' = kappa m - lambda f - A(f) f'^2 / 2 integrated from the series
    # f = kappa t^2 / 2 at small t: independent of the first integral that
    # f_of_t inverts
    for prof, label in sample_profiles():
        kap, m, lam = prof.kappa, prof.m, float(prof.lam)
        pairs = [(float(a), float(r)) for a, r in prof.pairs]

        def rhs(_, y):
            f, fd = y
            u = f / kap
            a_of_f = sum(r / (a + u * r) for a, r in pairs) / kap
            return [fd, kap * m - lam * f - 0.5 * a_of_f * fd * fd]

        T = pf.t_of_f(prof, 0.5 * prof.f_sup if math.isfinite(prof.f_sup) else 4 * kap)
        t0 = 1e-5 * T
        ts = [T * i / 10 for i in range(1, 10)] + [T]
        sol = solve_ivp(rhs, (t0, T), [kap * t0 * t0 / 2, kap * t0], method="DOP853",
                        t_eval=ts, rtol=1e-12, atol=1e-14)
        assert sol.success, (label, sol.message)
        for t, f in zip(ts, sol.y[0]):
            assert abs(pf.f_of_t(prof, t) - f) <= 1e-9 * f, (label, t)


# Rank-one chi = -1 data over projective spaces: the inner integral J has a
# double zero at the chamber exit u_e, and f(t) = (f_sup/2)(1 - cos(w t)) with
# w = sqrt(2/u_e) (u = (u_e/2)(1 - cos theta) turns t(u) into sqrt(u_e/2) theta).
EXIT_ZERO_SAMPLE = ("A1:*", "A2:*o", "A3:*oo", "A5:*oooo", "B2:o*", "C3:*oo", "C5:*oooo", "D3:o*o")


def exit_zero_profile(key):
    return pf.metric_profile(bd.admissible_data(cli.parse_diagram(key), None, None, (-1,)), 1)


@pytest.mark.parametrize("key", EXIT_ZERO_SAMPLE)
def test_exit_zero_profile_matches_closed_form(key):
    prof = exit_zero_profile(key)
    assert _horner(_exact_j(prof), prof.u_exit) == 0
    assert prof._end == (prof.u_exit, 0)
    omega = math.sqrt(2 / float(prof.u_exit))
    t_end = math.pi / omega
    for i in range(1, 50):
        t = 0.999 * t_end * i / 49
        f = 0.5 * prof.f_sup * (1 - math.cos(omega * t))
        assert abs(pf.f_of_t(prof, t) - f) <= 1e-9 * f, (key, t)
    for x in (1e-6, 0.1, 0.5, 0.9, 0.99, 1 - 1e-6, 1 - 1e-8, 1 - 1e-12):
        t = math.acos(1 - 2 * x) / omega
        assert abs(pf.t_of_f(prof, x * prof.f_sup) - t) <= 1e-9 * t, (key, x)
    assert abs(prof.t_sup - t_end) <= 1e-12 * t_end


def _exact_q(prof):
    """Q(u) = prod (a + u r) expanded here from the pairs, ascending, with no
    zero leading coefficient."""
    q = [Fraction(1)]
    for a, r in prof.pairs:
        q = [(q[i] if i < len(q) else 0) * a + (q[i - 1] * r if i else 0) for i in range(len(q) + 1)]
    while q and q[-1] == 0:
        q.pop()
    return q


def _exact_j(prof):
    """J(u) = int_0^u (m - lambda w) Q(w) dw expanded here from the pairs."""
    q = _exact_q(prof)
    integrand = [prof.m * c for c in q] + [Fraction(0)]
    for i, c in enumerate(q):
        integrand[i + 1] -= prof.lam * c
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(integrand)]


def _horner(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# the lambda > 0 data of `sample_profiles`, and the exit-zero data
J_CHECK_DATA = [
    ("A11:oo*oo*ooooo", 1, "left", (1, 1)),
    ("B3:*oo", None, None, (2,)),
    ("D4:oo*o", 1, "left", (1,)),
] + [(key, None, None, (-1,)) for key in EXIT_ZERO]


def test_exact_j_matches_fraction_expansion():
    # the integer expansion of J against the Fraction one, at the exit, the
    # peak m/lambda and the domain end, for lambdas with and without a
    # denominator (each datum admits every lambda > 0)
    for key, string, beta, chi in J_CHECK_DATA:
        data = bd.admissible_data(cli.parse_diagram(key), string, beta, chi)
        for lam in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)):
            prof = pf.metric_profile(data, lam)
            jc = _exact_j(prof)
            points = [prof.m / prof.lam, prof._end[0]]
            if prof.u_exit is not None:
                points.append(prof.u_exit)
            for x in points:
                assert prof._j_exact(x) == _horner(jc, x), (key, chi, lam, x)


def test_inner_rule_matches_exact_j_over_q():
    # the inner Gauss rule integrates its degree-(n + 1) integrand exactly:
    # J/Q on both parts against the expansion of J over the pair product.
    # For lambda > 0 the right part integrates from u_end, where J is taken
    # to be j_end (0 at a turning point rounded to a float)
    for prof, label in grouping_profiles():
        jc = _exact_j(prof)
        left, right, _ = prof._parts
        u_end, j_end = prof._end
        for part, anchor, sign in ((left, Fraction(0), 1), (right, u_end, -1)):
            if part is None:
                continue
            offset = j_end - _horner(jc, u_end) if sign < 0 and prof.lam > 0 else 0
            d = (part.extent * np.arange(1, 10) / 10) ** 2
            for di, got in zip(d.tolist(), part.jq(d, part.factors(d)).tolist()):
                u = anchor + sign * Fraction(di)
                exact = float((_horner(jc, u) + offset) / math.prod(a + u * r for a, r in prof.pairs))
                assert abs(got - exact) <= 1e-12 * exact, (label, sign, di)


def _reference_t(prof, jc, f):
    """t(f) = int_0^{f/kappa} sqrt(Q/(2J)) du by tanh-sinh at 30 digits, with
    u = v^2 taking out the inverse square root at 0."""
    with mpmath.workdps(30):
        pairs = [(mpmath.mpf(a.numerator) / a.denominator, mpmath.mpf(r.numerator) / r.denominator)
                 for a, r in prof.pairs]
        jm = [mpmath.mpf(c.numerator) / c.denominator for c in jc]

        def integrand(v):
            u = v * v
            q = mpmath.fprod(a + u * r for a, r in pairs)
            return 2 * v * mpmath.sqrt(q / (2 * _horner(jm, u)))

        kappa = mpmath.sqrt(mpmath.mpf(prof.kappa_sq.numerator) / prof.kappa_sq.denominator)
        return float(mpmath.quad(integrand, [0, mpmath.sqrt(mpmath.mpf(f) / kappa)], method="tanh-sinh"))


T_REFERENCE_DATA = {
    "turning point": (("A", 11, {3, 6}), 1, (1, 1), 1),
    "turning point before a wall": (("A", 2, {1}), 2, (0,), 1),
    "wall of order 21": (("A", 9, {3}), None, (-2,), 1),
    "unbounded, lambda = 0": (("A", 11, {3, 6}), 1, (2, 3), 0),
    "unbounded, lambda = -1": (("A", 11, {3, 6}), 1, (3, 4), -1),
}


@pytest.mark.parametrize("label", sorted(T_REFERENCE_DATA))
def test_t_of_f_matches_mpmath_reference(label):
    (fam, rank, black), string, chi, lam = T_REFERENCE_DATA[label]
    beta = None if string is None else "left"
    data = bd.admissible_data(diagram(fam, rank, black), string, beta, chi)
    prof = pf.metric_profile(data, lam)
    jc = _exact_j(prof)
    if label.startswith("turning point"):
        u_sup = Fraction(prof.u_sup)
        assert _horner(jc, u_sup * (1 - Fraction(1, 10**15))) > 0
        assert _horner(jc, u_sup * (1 + Fraction(1, 10**15))) < 0
    top = prof.f_sup if math.isfinite(prof.f_sup) else 4 * prof.kappa
    for x in (0.1, 0.5, 0.9, 0.99):
        f = x * top
        ref = _reference_t(prof, jc, f)
        assert abs(pf.t_of_f(prof, f) - ref) <= 1e-10 * ref, (label, x)


def a9_wall_profile():
    # all 21 root pairs are (3/5, -1/10): Q has a zero of order 21 at the wall
    # u = 6, and t_sup - t(u) shrinks like (6 - u)^11.5
    return pf.metric_profile(bd.admissible_data(cli.parse_diagram("A9:oo*oooooo"), None, None, (-2,)), 1)


@pytest.mark.parametrize("x", [0.5, 0.8, 0.9])
def test_round_trip_next_to_wall_of_order_21(x):
    # the float t carries f only to ulp(t) f'(f): the round trip may lose
    # that much and no more
    prof = a9_wall_profile()
    f = x * prof.f_sup
    t = pf.t_of_f(prof, f)
    bound = 1e-10 * f + 4 * math.ulp(t) * pf.f_dot(prof, f)
    assert abs(pf.f_of_t(prof, t) - f) <= bound


@pytest.mark.parametrize("x", [0.97, 0.999])
def test_round_trip_past_float_resolution_of_t_raises(x):
    # t(f) rounds to t_sup: f_of_t refuses it rather than return a wrong f
    prof = a9_wall_profile()
    t = pf.t_of_f(prof, x * prof.f_sup)
    assert t == prof.t_sup
    with pytest.raises(DomainError, match="beyond the parameter range"):
        pf.f_of_t(prof, t)


def inversion_profiles():
    """`sample_profiles`, the order-21 wall and two exit-zero data."""
    return sample_profiles() + [(a9_wall_profile(), "a9 wall of order 21")] + [
        (exit_zero_profile(key), key) for key in ("A1:*", "C3:*oo")]


def interior_times(prof, n):
    """n evenly spaced t strictly inside (0, t_hi), t_hi = t(0.9 f_sup), or
    t(4 kappa) when unbounded; the table is built up to t_hi."""
    t_hi = pf.t_of_f(prof, 0.9 * prof.f_sup if math.isfinite(prof.f_sup) else 4 * prof.kappa)
    return t_hi, [t_hi * i / (n + 1) for i in range(1, n + 1)]


def test_f_of_t_matches_mpmath_reference():
    # t(f) by tanh-sinh in mpmath at the computed f gives back t: an oracle
    # on f that shares only the exact pairs with the panel table
    for prof, label in inversion_profiles() + multiplicity_profiles():
        jc = _exact_j(prof)
        for t in interior_times(prof, 8)[1]:
            ref = _reference_t(prof, jc, pf.f_of_t(prof, t))
            assert abs(ref - t) <= 1e-12 * max(1.0, t), (label, t, ref)


def test_f_of_t_inverts_the_table_to_float_resolution():
    # t(f(t)) = t up to the rounding of t and of f: the Newton answer solves
    # the exact 16-point value of t, not the interpolant that starts it
    for prof, label in inversion_profiles():
        t_hi, ts = interior_times(prof, 63)
        for t in ts + [1e-7 * t_hi, 1e-3 * t_hi]:
            f = pf.f_of_t(prof, t)
            bound = 8 * (math.ulp(t) + math.ulp(f) / pf.f_dot(prof, f))
            assert abs(pf.t_of_f(prof, f) - t) <= bound, (label, t)


def count_integrand_calls(monkeypatch):
    """Count `_Part.h` evaluations from here on; returns the counter."""
    calls = [0]
    h = pf._Part.h

    def counted(self, y):
        calls[0] += 1
        return h(self, y)

    monkeypatch.setattr(pf._Part, "h", counted)
    return calls


def test_f_of_t_needs_at_most_two_integrand_evaluations(monkeypatch):
    # the panel's interpolant starts Newton so close to the root that one
    # exact evaluation, or two, settles it
    profiles = inversion_profiles()
    grids = [interior_times(prof, 63) for prof, _ in profiles]
    calls = count_integrand_calls(monkeypatch)
    for (prof, label), (t_hi, ts) in zip(profiles, grids):
        for t in ts + [1e-7 * t_hi]:
            calls[0] = 0
            pf.f_of_t(prof, t)
            assert calls[0] <= 2, (label, t, calls[0])


def test_converged_step_onto_the_bracket_needs_no_bisection(monkeypatch, capsys):
    # the rows of this command need one exact evaluation each; a converged
    # Newton step that rounds onto an end of the bracket is accepted, where
    # bisecting the whole panel from there costs 22-45 evaluations a row
    calls = count_integrand_calls(monkeypatch)
    argv = ["profile", "A5:o*o*o", "--string", "3", "--beta", "right", "--chi", "-2,-2",
            "--lambda", "0", "--samples", "6"]
    assert cli.main(argv) == 0
    assert "f(t)" in capsys.readouterr().out
    assert calls[0] <= 15


def test_f_of_t_from_a_start_far_below_the_root(monkeypatch):
    # Newton from 1e-18 of the interpolant's root: value/target is so small
    # that (value - target)/target rounds to -1; the step takes log(value /
    # target) there and lands on the same f
    data = bd.admissible_data(cli.parse_diagram("A5:o*ooo"), 3, "left", (1,))
    prof = pf.metric_profile(data, 1)
    t_hi = pf.t_of_f(prof, 0.5 * prof.f_sup)
    ts = [1e-10 * t_hi, 1e-100 * t_hi]
    expected = [pf.f_of_t(prof, t) for t in ts]
    root = pf._interpolant_root
    monkeypatch.setattr(pf, "_interpolant_root", lambda series, tau: root(series, tau) * 1e-18)
    for t, f in zip(ts, expected):
        assert math.isclose(pf.f_of_t(prof, t), f, rel_tol=1e-12), t


def test_verdiani_passes_on_admitted_data():
    for prof, label in sample_profiles():
        report = pf.verdiani_check(prof)
        assert report.passed, (label, report)
        assert report.d == prof.m - 1
        assert report.f_at_zero == 0.0
        assert report.relative_error < 1e-4
        assert abs(report.fdot_small) < 0.05 * prof.kappa


def test_verdiani_fails_on_perturbed_vanishing_order():
    base = pf.metric_profile(a11_data((1, 1)), Fraction(1))
    pairs = list(base.pairs)
    idx = next(i for i, (a, _) in enumerate(pairs) if a == 0)
    pairs[idx] = (Fraction(1), pairs[idx][1])
    perturbed = pf.MetricProfile(tuple(pairs), base.kappa_sq, base.m, base.lam)
    assert perturbed.d != perturbed.m - 1
    report = pf.verdiani_check(perturbed)
    assert not report.passed


def test_profile_rejects_chamber_violation():
    base = pf.metric_profile(a11_data((1, 1)), Fraction(1))
    pairs = list(base.pairs)
    pairs[0] = (Fraction(-1), pairs[0][1])
    with pytest.raises(DomainError):
        pf.MetricProfile(tuple(pairs), base.kappa_sq, base.m, base.lam)
    idx = next(i for i, (a, _) in enumerate(pairs) if a == 0)
    pairs[0] = base.pairs[0]
    pairs[idx] = (Fraction(0), Fraction(-1))
    with pytest.raises(DomainError):
        pf.MetricProfile(tuple(pairs), base.kappa_sq, base.m, base.lam)


def test_domain_end_cases():
    # turning point of the inner integral for positive lambda
    for m, lam in ((2, Fraction(1)), (3, Fraction(2))):
        prof = pf.metric_profile(point_orbit(m), lam)
        assert abs(pf.domain_end(prof) - prof.kappa * (m + 1) / float(lam)) < 1e-10
    # negative and zero lambda on ray-extending data: unbounded
    assert math.isinf(pf.domain_end(pf.metric_profile(a11_data((3, 4)), Fraction(-1))))
    assert math.isinf(pf.domain_end(pf.metric_profile(a11_data((2, 3)), Fraction(0))))
    # chamber exit: rank-one with a negative character coefficient
    data = bd.admissible_data(diagram("B", 3, {1}), None, None, (-1,))
    prof = pf.metric_profile(data, 1)
    assert prof.u_exit == 6
    assert pf.domain_end(prof) <= prof.kappa * 6 + 1e-12


def test_lambda_zero_custom_face_point():
    data = a11_data((2, 3))
    alg = data.s0.algebra
    z0 = 2 * rs.fundamental_weight(alg, 3) + 5 * rs.fundamental_weight(alg, 6)
    prof = pf.metric_profile(data, 0, z0=z0)
    assert prof.d == data.m - 1
    assert pf.verdiani_check(prof).passed
    with pytest.raises(DomainError):
        pf.metric_profile(data, 0, z0=-z0)
    # on the face's boundary: the coordinate at black node 6 is 0
    with pytest.raises(DomainError):
        pf.metric_profile(data, 0, z0=rs.fundamental_weight(alg, 3))
    with pytest.raises(UsageError):
        pf.metric_profile(data, 1, z0=z0)


def test_unadmitted_sign_rejected():
    with pytest.raises(DomainError):
        pf.metric_profile(a11_data((1, 1)), Fraction(-1))
    with pytest.raises(DomainError):
        pf.metric_profile(a11_data((1, 1)), Fraction(0))


def test_rank_one_profile_has_order_zero():
    data = bd.admissible_data(diagram("B", 3, {1}), None, None, (2,))
    prof = pf.metric_profile(data, 1)
    assert prof.d == 0 and prof.m == 1
    assert pf.verdiani_check(prof).passed
