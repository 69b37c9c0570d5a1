import collections
import inspect
import math
import random
import sys
import threading
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from flagke import bundle as bd, cli, diagram, einstein as es, painted as pd, profile as pf, rootspace as rs
from flagke.errors import DomainError, NumericsError, UsageError

from conftest import EXIT_ZERO, FAMILY_MIN_RANK, combination, inner, pi_weight


def distinct_unit_pairs(prof):
    """The profile's distinct unit pairs (|lambda| a, r) as Fractions, from its
    integer view (A, R) over D, and their multiplicities."""
    ints, mult, den = prof._unit_pairs
    return tuple((Fraction(a, den), Fraction(r, den)) for a, r in ints), mult


def point_orbit(m):
    return bd.admissible_data(diagram("A", m - 1, set()), 1, "left", ())


def a11_data(chi):
    return bd.admissible_data(diagram("A", 11, {3, 6}), 1, "left", chi)


def sample_data():
    """(data, lambda, label) of `sample_profiles`."""
    return [
        (a11_data((1, 1)), Fraction(1), "a11 lam+"),
        (a11_data((3, 4)), Fraction(-1), "a11 lam-"),
        (a11_data((2, 3)), Fraction(0), "a11 lam0"),
        (bd.admissible_data(diagram("B", 3, {1}), None, None, (2,)), Fraction(1), "b3 m1"),
        (bd.admissible_data(diagram("D", 4, {3}), 1, "left", (1,)), Fraction(2), "d4 fork"),
    ]


def profiles_of(cases):
    return [(pf.metric_profile(data, lam), label) for data, lam, label in cases]


def sample_profiles():
    return profiles_of(sample_data())


def multiplicity_data():
    """Data whose pairs repeat most: D9 rank one at lambda = 0 has one pair
    of multiplicity 16; A8 rank one at lambda = 1 has 25 pairs in 6 distinct
    values and ends at a wall."""
    return [
        (bd.admissible_data(cli.parse_diagram("D9:*oooooooo"), None, None, (16,)), Fraction(0), "d9 one pair"),
        (bd.admissible_data(cli.parse_diagram("A8:**oooo*o"), None, None, (-1, 0, -2)), Fraction(1), "a8 wall"),
    ]


def grouping_data():
    """`sample_data`, a wall at lambda = 1 and `multiplicity_data`."""
    wall = bd.admissible_data(diagram("B", 3, {1}), None, None, (-1,))
    return sample_data() + [(wall, Fraction(1), "b3 wall")] + multiplicity_data()


def multiplicity_profiles():
    return profiles_of(multiplicity_data())


def grouping_profiles():
    profiles = profiles_of(grouping_data())
    assert all(math.isfinite(prof.f_sup) for prof, label in profiles if "wall" in label)
    return profiles


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
    assert n_roots == len(pdm.r_m_plus(a11_data((1, 1)).end.flag))
    assert len(q) - 1 == n_roots
    d = prof.d
    assert all(c == 0 for c in q[:d]) and q[d] != 0
    assert d == 3 - 1


def test_polynomial_p_matches_pair_product():
    prof = pf.metric_profile(a11_data((1, 1)), Fraction(1))
    pairs, mult = distinct_unit_pairs(prof)
    left = prof._parts[0]
    for u in (0.1, 0.4, 0.9):
        via_q = float(_horner(_exact_q(prof), Fraction(u)))
        # one factor per distinct pair, raised to its multiplicity: the left
        # part keeps those with a != 0, and splits off the factors u r
        factors = left.factors(u)
        kept = math.prod(f ** k for f, k in zip(factors.tolist(), left.mu.tolist()))
        vanishing = math.prod((u * float(r)) ** k for (a, r), k in zip(pairs, mult) if a == 0)
        assert math.isclose(kept * vanishing, via_q, rel_tol=1e-9)


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
    # f = kappa (x + U2 x^2 + O(x^3)), x = t^2/2, at the singular orbit, with
    # U2 = -(c_(m+1)/c_m + lambda)/(3m) from this test's own Fraction
    # expansion of J in u.  `verdiani_check` forms its coefficient from the
    # integer expansion in v = |lambda| u, where it is U2/|lambda|.  Down to
    # t = 1e-100, where f is still a normal float, the leading term holds
    for prof, label in sample_profiles():
        jc, m = _exact_j(prof), prof.m
        u2 = -(jc[m + 1] / jc[m] + prof.lam) / (3 * m)
        assert pf.verdiani_check(prof).u2 == u2 / (abs(prof.lam) or 1), label
        for t in (1e-6, 1e-9, 1e-12):
            x = t * t / 2
            series = prof.kappa * x * (1 + float(u2) * x)
            assert abs(pf.f_of_t(prof, t) - series) <= 1e-13 * series, (label, t)
        series = prof.kappa * 1e-100 * 1e-100 / 2
        assert abs(pf.f_of_t(prof, 1e-100) - series) <= 1e-9 * series, label


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


def test_unbounded_tail_is_exact_up_to_the_float_range():
    # A1:o at lambda = -1 has the one pair (0, 1/4): Q = u/4, J = u^2/4 + u^3/12,
    # so t(u) = int_0^u du / sqrt(a u^2 + b u), a = 2/3, b = 2, in closed form
    prof = pf.metric_profile(point_orbit(2), -1)
    assert prof.pairs == ((0, Fraction(1, 4)),)
    a, b = mpmath.mpf(2) / 3, mpmath.mpf(2)

    def exact(u):
        u = mpmath.mpf(u)
        return mpmath.log((2 * a * u + b + 2 * mpmath.sqrt(a * (a * u * u + b * u))) / b) / mpmath.sqrt(a)

    for u in (1e100, 1e154):
        assert abs(pf.t_of_f(prof, prof.kappa * u) - float(exact(u))) < 1e-10, u
    # J/Q grows like u^2, but the table holds K = J/(Q u), which grows like
    # u: it reaches past 2^512, and f(t) inverts it there
    for u in (1e160, 1e300):
        ref = float(exact(u))
        assert abs(pf.t_of_f(prof, prof.kappa * u) - ref) <= 1e-13 * ref, u
    # past u = 2^1022 the next block would overflow, and the query says so
    with pytest.raises(NumericsError, match="float range"):
        pf.t_of_f(prof, prof.kappa * 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fresh = pf.metric_profile(point_orbit(2), -1)
        f = pf.f_of_t(fresh, 500.0)
    assert abs(float(exact(f / fresh.kappa)) - 500.0) <= 1e-13 * 500.0


def test_derivatives_on_the_unbounded_tail_match_the_closed_form():
    # A1:o at lambda = -1: J/Q = u + u^2/3 and S = 1/u, so f' = kappa
    # sqrt(2 u + 2 u^2/3) and f'' = kappa (1 + 2 u/3); J/Q overflows past
    # u = 1e154, while f' and f'' are floats up to the end of the table
    prof = pf.metric_profile(point_orbit(2), -1)
    for u in (1e100, 1e200, 1e300):
        f = prof.kappa * u
        assert math.isclose(pf.f_dot(prof, f), prof.kappa * math.sqrt(2 / 3) * u, rel_tol=1e-14), u
        assert math.isclose(pf.f_ddot(prof, f), prof.kappa * 2 / 3 * u, rel_tol=1e-14), u
        assert abs(pf.residual_at(prof, f)) <= 1e-14 * f, u


def test_f_past_the_float_range_of_u_is_named():
    prof = pf.metric_profile(point_orbit(2), -1)
    with pytest.raises(DomainError, match=r"^f = 1\.7e\+308 is past the float range of u = f/kappa$"):
        pf.t_of_f(prof, 1.7e308)


@pytest.mark.parametrize("lam, chi", [(-1, (3, 4)), (0, (2, 3))])
def test_threads_sharing_an_unbounded_profile_get_the_serial_floats(lam, chi):
    # each query may grow the table of t(u); 20 threads that share one fresh
    # profile, switching every microsecond, must see what one thread sees
    serial = pf.metric_profile(a11_data(chi), lam)
    fs = [serial.kappa * 1.3 * 2.0 ** k for k in range(0, 60, 3)]
    ts = [pf.t_of_f(serial, f) for f in fs]
    cases = ((pf.t_of_f, fs, ts), (pf.f_of_t, ts, [pf.f_of_t(serial, t) for t in ts]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for query, args, expected in cases:
            shared = pf.metric_profile(a11_data(chi), lam)
            barrier = threading.Barrier(20)
            results, errors = {}, []

            def run(i):
                barrier.wait()
                try:
                    for j in range(len(args)):
                        k = (i + j) % len(args)
                        results[i, k] = query(shared, args[k])
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(20)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == [], (query.__name__, errors)
            wrong = {key: v for key, v in results.items() if v != expected[key[1]]}
            assert len(results) == 20 * len(args) and not wrong, (query.__name__, wrong)
    finally:
        sys.setswitchinterval(interval)


# m >= 2: Q vanishes to order m - 1 and J to order m at f = 0
SINGULAR_ORBIT_DATA = {
    "A11 lam+": ("A11:oo*oo*ooooo", 1, "left", (1, 1), 1),
    "A5 lam0": ("A5:o*o*o", 3, "right", (-2, -2), 0),
    "D4 lam+": ("D4:oo*o", 1, "left", (1,), 1),
}


@pytest.mark.parametrize("label", sorted(SINGULAR_ORBIT_DATA))
def test_derivatives_and_residual_at_the_singular_orbit(label):
    # f'(0) = 0 and f''(0) = kappa, the smoothness conditions, and the
    # residual vanishes there, although J/Q = 0 and Q'/Q = inf at f = 0
    key, string, beta, chi, lam = SINGULAR_ORBIT_DATA[label]
    prof = pf.metric_profile(bd.admissible_data(cli.parse_diagram(key), string, beta, chi), lam)
    assert prof.m >= 2
    assert pf.f_dot(prof, 0.0) == 0.0
    assert abs(pf.f_ddot(prof, 0.0) - prof.kappa) <= 1e-14 * prof.kappa
    for residual in (pf.residual_at(prof, 0.0), pf.ode_residual(prof, 0.0)):
        assert abs(residual) <= 1e-14 * prof.kappa * prof.m


@pytest.mark.parametrize("key, string, beta, chi", [
    ("D4:o*oo", 1, "right", (0,)),
    ("A11:oo*oo*ooooo", 1, "left", (1, 1)),
])
def test_subnormal_queries_return_without_warning(key, string, beta, chi):
    # y^2 underflows to 0 here; the integrand is finite at y = 0
    prof = pf.metric_profile(bd.admissible_data(cli.parse_diagram(key), string, beta, chi), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [pf.t_of_f(prof, f) for f in (5e-324, 1e-320)] + [pf.f_of_t(prof, t) for t in (1e-160, 1e-300)]
    assert all(isinstance(v, float) and v >= 0 for v in values), values


SCAN_LAMBDAS = (Fraction(1), Fraction(0), Fraction(-1), Fraction(1, 1000), Fraction(-1000), Fraction(7, 2))


def scan_profiles(seed, draws):
    """The profiles, at each lambda of `SCAN_LAMBDAS` it admits, of the A20
    wall of order 99 and of `draws` random A-D data of ranks up to 12, with
    chi next to the edges of the lambda > 0 bounds or the lambda = 0 one."""
    rng = random.Random(seed)
    data = [bd.admissible_data(cli.parse_diagram("A20:ooooooooo*oooooooooo"), 1, "left", (-1,))]
    for _ in range(draws):
        fam = rng.choice("ABCD")
        rank = rng.randint(FAMILY_MIN_RANK[fam], 12)
        dg = diagram(fam, rank, {j for j in range(1, rank + 1) if rng.random() < 0.3})
        ends = [(None, None)] if dg.black else []
        ends += [(info.start, end) for info in bd.eligible_strings(dg) for end in ("left", "right")]
        if not ends:
            continue
        start, end = rng.choice(ends)
        crit = es.criterion(bd.end_of(dg, start, end))
        if crit.required_chi is not None and rng.random() < 0.25:
            chi = crit.required_chi
        else:
            chi = tuple(b.edge + rng.randint(-2, 2) for b in crit.pos)
        if start is None and not any(chi):
            continue
        data.append(bd.admissible_data(dg, start, end, chi))
    profiles = []
    for datum in data:
        v, e = es.classify(datum), datum.end
        for lam in SCAN_LAMBDAS:
            if (v.lambda_pos if lam > 0 else v.lambda_neg if lam < 0 else v.lambda_zero).exists:
                profiles.append((pf.metric_profile(datum, lam), (e.s0.key(), e.string and e.string.start,
                                                                  e.beta_end, datum.chi, lam)))
    return profiles


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_profiles_past_the_rank_bound_invert_and_solve_the_equation(seed):
    # from t = 1e-200 t_hi to t_hi = 0.999 t_sup, or t(1e6 kappa) when
    # unbounded: no error or warning, f nondecreasing, t(f(t)) = t and a
    # residual at rounding level
    profiles = scan_profiles(seed, 400)
    assert len(profiles) >= 450
    for prof, label in profiles:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t_hi = 0.999 * prof.t_sup if math.isfinite(prof.t_sup) else pf.t_of_f(prof, 1e6 * prof.kappa)
            ts = [x * t_hi for x in (1e-200, 1e-8, 0.2, 0.6, 0.95, 1.0)]
            fs = [pf.f_of_t(prof, t) for t in ts]
            assert fs == sorted(fs), label
            for t, f in zip(ts, fs):
                if f > 1e-290:
                    assert abs(pf.t_of_f(prof, f) - t) <= 1e-9 * t, (label, t)
                assert abs(pf.residual_at(prof, f)) < 1e-6 * max(1.0, prof.kappa * prof.m), (label, t)


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
        pairs, mult = distinct_unit_pairs(prof)
        assert sum(mult) == len(prof.pairs) and len(set(pairs)) == len(pairs), label
        hi = 0.9 * prof.f_sup if math.isfinite(prof.f_sup) else 4 * prof.kappa
        fs = [hi * i / 10 for i in range(1, 11)]
        # the parts meet at split in the unit coordinate v = |lambda| u
        _, right, split = prof._parts
        if right is not None:
            scale, v_sup = float(abs(prof.lam)), float(prof._end[0])
            fs += [prof.kappa * (split + (v_sup - split) * x) / scale for x in (0.1, 0.5, 0.9)]
        for f in fs:
            exact, scale = exact_f_ddot(prof, f)
            assert abs(pf.f_ddot(prof, f) - exact) <= 1e-12 * scale, (label, f)


def test_integer_setup_matches_the_fraction_oracle():
    # the set-up works on integers: each pair from two integer dot products,
    # the distinct pairs grouped by their integer parts, each part's floats
    # from integers over one denominator.  The oracle: two `inner`
    # Fractions per root, a Counter of Fraction pairs, float(a + anchor r)
    alg = a11_data((2, 3)).end.s0.algebra
    face = combination((2, pi_weight(alg, 3)), (5, pi_weight(alg, 6)))
    cases = [(data, lam, None, label) for data, lam, label in grouping_data()] + [
        (a11_data((1, 1)), Fraction(5, 2), None, "a11 lam 5/2"),
        (a11_data((3, 4)), Fraction(-2, 3), None, "a11 lam -2/3"),
        (a11_data((2, 3)), Fraction(0), face, "a11 lam0 face point"),
    ]
    for data, lam, z0, label in cases:
        prof = pf.metric_profile(data, lam, z0=z0)
        xi_z0 = es.z0_form(data, lam) if lam else z0 or es.z0_face_point(data.end)
        xi0 = bd.kappa_z0_form(data)
        pairs = tuple((inner(alpha, xi_z0), inner(alpha, xi0)) for alpha in pd.r_m_plus(data.end.flag))
        assert prof.pairs == pairs, label
        counts = collections.Counter(((abs(lam) or 1) * a, r) for a, r in pairs)
        assert distinct_unit_pairs(prof) == (tuple(counts), tuple(counts.values())), label
        left, right, _ = prof._parts
        for part, anchor in ((left, Fraction(0)), (right, prof._end[0])):
            if part is None:
                continue
            exact = [(a + anchor * r, r, mu) for (a, r), mu in counts.items()]
            kept = [(b, r, mu) for b, r, mu in exact if b]
            assert part.base.tolist() == [float(b) for b, _, _ in kept], label
            assert part.r.tolist() == [float(r) for _, r, _ in kept], label
            assert part.mu.tolist() == [mu for _, _, mu in kept], label
            assert part.order == sum(mu for b, _, mu in exact if not b), label


def test_profile_checks_its_pairs_against_the_koszul_form(monkeypatch):
    # lambda xi_Z0 + m xi_0 = sigma_F, checked on the root of each distinct
    # pair: z0_form with the sign of its chi term flipped (at lambda = 1)
    # breaks it, and the profile names the datum
    def flipped(data, lam):
        end = data.end
        ks = [n + end.sign * end.m * k for n, k in zip(es.criterion(end).numbers, data.chi)]
        return rs.Weight.from_numerators(end.s0.algebra, end.pi_sum(ks), end.den)

    data = a11_data((-1, -1))
    pf.metric_profile(data, 1)
    monkeypatch.setattr(es, "z0_form", flipped)
    with pytest.raises(AssertionError, match=r"^A11:oo\*oo\*ooooo string@1 beta=left chi=\(-1, -1\) lambda=1: "):
        pf.metric_profile(data, 1)


@pytest.mark.parametrize("part_index", [0, 1], ids=["left", "right"])
def test_k_raises_where_it_is_not_a_positive_float(part_index):
    # K = J/(Q d) > 0 on the whole part: a NaN among its points raises, as a
    # non-positive value does
    part = pf.metric_profile(a11_data((1, 1)), 1)._parts[part_index]
    d = np.array([0.25, math.nan, 0.5])
    with pytest.raises(NumericsError, match="inner integral not positive"):
        part.k(d, part.factors(d))
    assert part.k(d[::2], part.factors(d[::2])).min() > 0


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


def _wall(prof):
    """The first chamber wall along the ray in u, the least -a/r over r < 0;
    None when no slope is negative."""
    return min((-a / r for a, r in prof.pairs if r < 0), default=None)


# lambda = 1 data whose domain ends where J vanishes: the exit-zero walls, the
# point orbits and A2:** at chi = (1, -1) close up (v_end = m + k + 1); the A11
# datum and three more end at a turning point that does not close
FAR_END_DATA = {
    **{key: bd.admissible_data(cli.parse_diagram(key), None, None, (-1,)) for key in EXIT_ZERO_SAMPLE},
    **{f"point orbit m={m}": point_orbit(m) for m in (2, 3, 5)},
    "A2:** chi (1, -1)": bd.admissible_data(diagram("A", 2, {1, 2}), None, None, (1, -1)),
    "A11 chi (1, 1)": a11_data((1, 1)),
    "B3:*o* string 2": bd.admissible_data(cli.parse_diagram("B3:*o*"), 2, "left", (1, 1)),
    "C3:o** chi (2, 1)": bd.admissible_data(cli.parse_diagram("C3:o**"), None, None, (2, 1)),
    "D4:**oo chi (1, -1)": bd.admissible_data(cli.parse_diagram("D4:**oo"), None, None, (1, -1)),
}


@pytest.mark.parametrize("data", FAR_END_DATA.values(), ids=FAR_END_DATA.keys())
def test_far_end_curvature_follows_the_vanishing_order(data):
    # where J(v_end) = 0, Q ~ C w^k and J ~ (v_end - m) C w^(k+1)/(k+1) in w =
    # v_end - v, k the multiplicity of the pairs that vanish at v_end, so
    # f'' -> -kappa (v_end - m)/(k + 1) at t_sup: -kappa on a closing end
    prof = pf.metric_profile(data, 1)
    v_end, j_end = prof._end
    assert j_end == 0
    pairs, mult = distinct_unit_pairs(prof)
    k = sum(mu for (a, r), mu in zip(pairs, mult) if a + v_end * r == 0)
    rule = -prof.kappa * float(v_end - prof.m) / (k + 1)
    assert abs(pf.f_ddot(prof, (1 - 1e-6) * prof.f_sup) - rule) <= 1e-4 * prof.kappa, (k, rule / prof.kappa)


@pytest.mark.parametrize("key", EXIT_ZERO_SAMPLE)
def test_exit_zero_profile_matches_closed_form(key):
    prof = exit_zero_profile(key)
    assert _horner(_exact_j(prof), _wall(prof)) == 0
    assert prof._end == (_wall(prof), 0)
    omega = math.sqrt(2 / float(_wall(prof)))
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
    # the integer expansion of J in v = lambda u against the Fraction one in
    # u, at the exit, the peak m/lambda and the domain end, for lambdas with
    # and without a denominator (each datum admits every lambda > 0): over
    # the n unit pairs (lambda a, r), J(v) = lambda^(n + 1) J(u)
    for key, string, beta, chi in J_CHECK_DATA:
        data = bd.admissible_data(cli.parse_diagram(key), string, beta, chi)
        for lam in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)):
            prof = pf.metric_profile(data, lam)
            jc, n = _exact_j(prof), len(prof.pairs)
            points = [prof.m / prof.lam, prof._end[0] / prof.lam]
            if _wall(prof) is not None:
                points.append(_wall(prof))
            for x in points:
                assert prof._j_exact(lam * x) == lam ** (n + 1) * _horner(jc, x), (key, chi, lam, x)


def test_inner_rule_matches_exact_j_over_q():
    # the inner Gauss rule integrates its degree-(n + 1) integrand exactly:
    # J/Q = d K on both parts against the expansion of J over the pair product.
    # The parts lie in v = scale u, scale = |lambda| (1 at lambda = 0), where
    # J and Q over the n unit pairs are scale^(n + 1) and scale^n times those
    # in u.  The right part (lambda > 0 only) integrates from v_end, where J
    # is taken to be j_end (0 at a turning point rounded to a float)
    for prof, label in grouping_profiles():
        jc, n = _exact_j(prof), len(prof.pairs)
        scale = abs(prof.lam) or 1
        left, right, _ = prof._parts
        v_end, j_end = prof._end
        for part, anchor, sign in ((left, Fraction(0), 1), (right, v_end, -1)):
            if part is None:
                continue
            offset = j_end - scale ** (n + 1) * _horner(jc, v_end / scale) if sign < 0 else 0
            d = (part.extent * np.arange(1, 10) / 10) ** 2
            for di, got in zip(d.tolist(), (d * part.k(d, part.factors(d))).tolist()):
                u = (anchor + sign * Fraction(di)) / scale
                j = scale ** (n + 1) * _horner(jc, u) + offset
                exact = float(j / (scale ** n * math.prod(a + u * r for a, r in prof.pairs)))
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


@pytest.mark.parametrize("k", [0, 20, 45, 50, 60, 100])
def test_turning_point_is_bisected_to_two_ulps_at_any_lambda(k):
    # a_alpha is proportional to 1/lambda and r_alpha does not depend on it,
    # so J(u; lambda) = lambda^-(n+1) J(lambda u; 1) and lambda u_end is the
    # lambda = 1 end for every lambda
    lam = Fraction(10**k)
    prof = pf.metric_profile(a11_data((1, 1)), lam)
    jc, u_end = _exact_j(prof), Fraction(prof.u_sup)
    two_ulps = 2 * Fraction(math.ulp(prof.u_sup))
    assert _horner(jc, u_end - two_ulps) > 0 > _horner(jc, u_end + two_ulps)
    u_one = 3.1510955093250557  # u_end at lambda = 1
    assert abs(lam * u_end - Fraction(u_one)) <= 4 * Fraction(math.ulp(u_one)), float(lam * u_end)


def test_turning_point_before_a_far_wall_is_bisected_to_two_ulps():
    # the bracket [m, v_exit] is 1e300 wide: the bisection needs about
    # log2(1e300) + 53 = 1050 halvings, and runs them all
    pairs = ((Fraction(0), Fraction(1)), (Fraction(10**300), Fraction(-1)))
    prof = pf.MetricProfile(pairs, Fraction(1), 2, Fraction(1))
    jc, u_end = _exact_j(prof), Fraction(prof.u_sup)
    two_ulps = 2 * Fraction(math.ulp(prof.u_sup))
    assert _horner(jc, u_end - two_ulps) > 0 > _horner(jc, u_end + two_ulps)


def a1_data():
    """`A1:*` at chi = 3: one root pair, admitted for every lambda < 0."""
    return bd.admissible_data(cli.parse_diagram("A1:*"), None, None, (3,))


# a turning point (lambda > 0) and an unbounded domain (lambda < 0)
LARGE_LAMBDA_DATA = {"A11 turning point": (lambda: a11_data((1, 1)), 1), "A1 unbounded": (a1_data, -1)}


@pytest.mark.parametrize("k", [20, 26, 30, 100, 200])
@pytest.mark.parametrize("label", sorted(LARGE_LAMBDA_DATA))
def test_profile_at_a_large_lambda_is_the_unit_profile_rescaled(label, k):
    # rescaling an Einstein metric rescales lambda: f_lambda(t) =
    # f_sgn(sqrt|lambda| t)/|lambda| for sgn = sign lambda, at the same chi.
    # The queries include the CLI's f = 0.97 f_sup, or 8 kappa when unbounded
    make, sign = LARGE_LAMBDA_DATA[label]
    unit, prof = pf.metric_profile(make(), sign), pf.metric_profile(make(), sign * 10**k)
    scale, root = 10.0**k, 10.0 ** (k // 2)
    if math.isfinite(unit.t_sup):
        assert math.isclose(prof.t_sup, unit.t_sup / root, rel_tol=1e-13)
        tops = [x * prof.f_sup for x in (0.1, 0.5, 0.9, 0.97)]
    else:
        assert math.isinf(prof.t_sup)
        tops = [x * prof.kappa for x in (0.1, 1.0, 8.0)] + [x * prof.kappa / scale for x in (0.1, 8.0)]
    for f in tops:
        t = pf.t_of_f(prof, f)
        assert math.isclose(t, pf.t_of_f(unit, f * scale) / root, rel_tol=1e-13), (label, k, f)
        for x in (1e-6, 0.3, 1.0):
            ref = pf.f_of_t(unit, x * t * root) / scale
            assert math.isclose(pf.f_of_t(prof, x * t), ref, rel_tol=1e-13), (label, k, f, x)


@pytest.mark.parametrize("label", sorted(LARGE_LAMBDA_DATA))
def test_f_of_t_at_lambda_1e30_matches_mpmath_reference(label):
    # t(f) by tanh-sinh in mpmath, on the pairs and lambda as given, at the
    # computed f gives back t to 1e-12 relative; the whole table lies far
    # below t = 1 here
    make, sign = LARGE_LAMBDA_DATA[label]
    prof = pf.metric_profile(make(), sign * 10**30)
    jc = _exact_j(prof)
    t_hi = pf.t_of_f(prof, 0.97 * prof.f_sup if math.isfinite(prof.f_sup) else 8 * prof.kappa)
    assert t_hi < 1e-13
    for x in (0.01, 0.5, 1.0):
        t = x * t_hi
        ref = _reference_t(prof, jc, pf.f_of_t(prof, t))
        assert abs(ref - t) <= 1e-12 * t, (label, x, ref)


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


def test_derivatives_next_to_the_wall_of_order_99_fail_loudly():
    # K ~ d^-100 overflows within about 1e-6 of this wall, while f' ~ 1e291
    # is still a float: the queries raise there instead of returning inf or nan
    data = bd.admissible_data(cli.parse_diagram("A20:ooooooooo*oooooooooo"), 1, "left", (-1,))
    prof = pf.metric_profile(data, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = 0.999 * prof.f_sup
        assert (pf.f_dot(prof, f), pf.f_ddot(prof, f), pf.residual_at(prof, f)) == (
            1.9452781792579424e+142, 1.738492243489702e+288, 6.939941313577435)
        for query in (pf.f_dot, pf.f_ddot, pf.residual_at):
            with pytest.raises(NumericsError, match="not a finite float"):
                query(prof, (1 - 1e-6) * prof.f_sup)


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


def solve_bisections(run):
    """How often `_Part.solve` falls back to bisecting its bracket in run()."""
    code = pf._Part.solve.__code__
    lines, first = inspect.getsourcelines(pf._Part.solve)
    target = next(n for n, text in enumerate(lines, first) if "0.5 * (blo + bhi)" in text)
    hits = [0]

    def local(frame, event, arg):
        hits[0] += event == "line" and frame.f_lineno == target
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hits[0]


@pytest.mark.parametrize("theta", [1 - 1e-16, 0.5, 1e-12])
def test_f_of_t_from_a_poor_start_bisects_to_the_same_f(monkeypatch, theta):
    # Newton from a start anywhere in the panel: where a step leaves the
    # panel's bracket, solve bisects the bracket instead, and lands on the
    # same f as from the interpolant's root
    profiles = [(a9_wall_profile(), "a9 wall"), (a3_wall_profile(), "a3 wall")] + sample_profiles()[:3]
    cases = [(prof, label, t, pf.f_of_t(prof, t)) for prof, label in profiles
             for t in interior_times(prof, 36)[1]]
    monkeypatch.setattr(pf, "_interpolant_root", lambda series, tau: theta)

    def run():
        for prof, label, t, f in cases:
            assert math.isclose(pf.f_of_t(prof, t), f, rel_tol=1e-12), (label, t)

    assert solve_bisections(run) > 0


def test_verdiani_passes_on_admitted_data():
    for prof, label in sample_profiles():
        report = pf.verdiani_check(prof)
        assert report.passed, (label, report)
        assert prof.d == prof.m - 1
        assert pf.f_of_t(prof, 0.0) == 0.0
        assert report.relative_error < 1e-4
        assert abs(pf.f_dot(prof, pf.f_of_t(prof, min(report.t_probes)))) < 0.05 * prof.kappa


# A11 at each sign of lambda, and A1:* at lambda = -1 (rank one, m = 1)
VERDIANI_DATA = {
    "a11 lam+": ("A11:oo*oo*ooooo", 1, "left", (1, 1), 1),
    "a11 lam-": ("A11:oo*oo*ooooo", 1, "left", (3, 4), -1),
    "a11 lam0": ("A11:oo*oo*ooooo", 1, "left", (2, 3), 0),
    "A1 lam-": ("A1:*", None, None, (3,), -1),
}


@pytest.mark.parametrize("query", ["f_of_t", "f_dot"])
@pytest.mark.parametrize("label", sorted(VERDIANI_DATA))
def test_verdiani_fails_where_f_or_f_dot_is_off_by_1e_8(monkeypatch, label, query):
    # the check compares both f and f' with their exact two-term series, to
    # 1e-10: a relative error of 1e-8 in either one fails it
    key, string, beta, chi, lam = VERDIANI_DATA[label]
    prof = pf.metric_profile(bd.admissible_data(cli.parse_diagram(key), string, beta, chi), lam)
    assert pf.verdiani_check(prof).passed
    exact = getattr(pf, query)
    monkeypatch.setattr(pf, query, lambda *args: exact(*args) * (1 + 1e-8))
    report = pf.verdiani_check(prof)
    assert not report.passed and report.relative_error > 1e-9, report


@pytest.mark.parametrize("k", [8, 30])
@pytest.mark.parametrize("sign, chi", [(1, (1, 1)), (-1, (3, 4))], ids=["lam+", "lam-"])
def test_verdiani_report_does_not_depend_on_the_scale_of_lambda(sign, chi, k):
    # the report at lambda = sign 10^k is the one at lambda = sign, with t
    # scaled by 10^(-k/2) and f' by its inverse; u2 is a unit coefficient
    unit_prof = pf.metric_profile(a11_data(chi), sign)
    prof = pf.metric_profile(a11_data(chi), sign * 10**k)
    unit, report = pf.verdiani_check(unit_prof), pf.verdiani_check(prof)
    root = 10.0 ** (k / 2)
    assert (prof.d, prof.m, prof.kappa, pf.f_of_t(prof, 0.0), report.passed) == (
        unit_prof.d, unit_prof.m, unit_prof.kappa, 0.0, True)
    assert report.u2 == unit.u2
    assert abs(report.relative_error - unit.relative_error) <= 1e-9
    fdots = [pf.f_dot(p, pf.f_of_t(p, r.t_probes[0])) for p, r in ((prof, report), (unit_prof, unit))]
    assert math.isclose(fdots[0] * root, fdots[1], rel_tol=1e-9)
    for got, want in zip(report.t_probes, unit.t_probes, strict=True):
        assert math.isclose(got * root, want, rel_tol=1e-9)


def test_verdiani_report_does_not_depend_on_the_scale_of_the_face_point():
    # at lambda = 0, the face point s z0 maps f(t) to s f(t/sqrt(s)): the
    # probes sit below the nearest other zero of Q, so they scale by sqrt(s)
    # and u2 by 1/s, and a small face point passes as the unscaled one does
    data = a11_data((2, 3))
    alg = data.end.s0.algebra

    def report(s):
        return pf.verdiani_check(pf.metric_profile(
            data, 0, z0=combination((s, pi_weight(alg, 3)), (s, pi_weight(alg, 6)))))

    unit = report(1)
    assert unit.passed
    for s in (Fraction(1, 10**3), Fraction(1, 10**6)):
        scaled = report(s)
        assert scaled.passed, (s, scaled)
        assert scaled.u2 * s == unit.u2, s
        for got, want in zip(scaled.t_probes, unit.t_probes, strict=True):
            assert math.isclose(got, math.sqrt(s) * want, rel_tol=1e-12), s
    assert report(10**6).passed


def test_verdiani_fails_on_perturbed_vanishing_order():
    base = pf.metric_profile(a11_data((1, 1)), Fraction(1))
    pairs = list(base.pairs)
    idx = next(i for i, (a, _) in enumerate(pairs) if a == 0)
    pairs[idx] = (Fraction(1), pairs[idx][1])
    perturbed = pf.MetricProfile(tuple(pairs), base.kappa_sq, base.m, base.lam)
    assert perturbed.d != perturbed.m - 1
    report = pf.verdiani_check(perturbed)
    assert not report.passed
    # no series is formed
    assert report.u2 is None and report.relative_error == math.inf


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


def test_lambda_nonpositive_segment_with_a_wall_is_rejected():
    # admitted data with lambda <= 0 have every slope r > 0 (sigma_F = lambda
    # xi_Z0 + m xi0), so the segment never meets a wall; a hand-built one
    # that would is refused, while lambda > 0 ends at that wall
    pairs = ((Fraction(1), Fraction(-1)), (Fraction(0), Fraction(1)))
    for lam in (Fraction(-1), Fraction(0)):
        with pytest.raises(DomainError, match="meets a chamber wall"):
            pf.MetricProfile(pairs, Fraction(1), 2, lam)
    assert pf.MetricProfile(pairs, Fraction(1), 2, Fraction(1)).u_sup == 1.0


@pytest.mark.parametrize("fields, error", [
    ({"kappa_sq": 0}, DomainError),
    ({"kappa_sq": -1}, DomainError),
    ({"m": 0}, DomainError),
    ({"m": -1}, DomainError),
    ({"lam": 0.5}, UsageError),
    ({"pairs": ((0.0, 1.0), (1.0, 1.0))}, UsageError),
    ({"m": 2.0}, UsageError),
], ids=["kappa_sq=0", "kappa_sq=-1", "m=0", "m=-1", "lam=0.5", "float pair", "m=2.0"])
def test_hand_built_profile_rejects_bad_input(fields, error):
    # refused when built, as `einstein.Bound` is, not later in a query
    good = {"pairs": ((0, 1), (1, 1)), "kappa_sq": 1, "m": 2, "lam": -1}
    assert pf.t_of_f(pf.MetricProfile(**good), 0.5) > 0
    with pytest.raises(error):
        pf.t_of_f(pf.MetricProfile(**{**good, **fields}), 0.5)


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
    assert _wall(prof) == 6
    assert pf.domain_end(prof) <= prof.kappa * 6 + 1e-12


def test_lambda_zero_custom_face_point():
    data = a11_data((2, 3))
    alg = data.end.s0.algebra
    z0 = combination((2, pi_weight(alg, 3)), (5, pi_weight(alg, 6)))
    prof = pf.metric_profile(data, 0, z0=z0)
    assert prof.d == data.end.m - 1
    assert pf.verdiani_check(prof).passed
    with pytest.raises(DomainError):
        pf.metric_profile(data, 0, z0=combination((-1, z0)))
    # on the face's boundary: the coordinate at black node 6 is 0
    with pytest.raises(DomainError):
        pf.metric_profile(data, 0, z0=pi_weight(alg, 3))
    with pytest.raises(UsageError):
        pf.metric_profile(data, 1, z0=z0)


@pytest.mark.parametrize("lam", [0.1, 1.0, 0.0, math.nan, math.inf, "1/2"],
                         ids=["0.1", "1.0", "0.0", "nan", "inf", "str"])
def test_lambda_must_be_exact(lam):
    # 0.1 would be the binary float, not 1/10; as the CLI's --lambda and
    # MetricProfile's own fields, lambda is an int or a Fraction
    data = a11_data((1, 1))
    with pytest.raises(UsageError, match="int or a Fraction"):
        pf.metric_profile(data, lam)
    with pytest.raises(UsageError, match="int or a Fraction"):
        es.z0_form(data, lam)


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
