from fractions import Fraction

from flagke import poly


def P(*coeffs):
    return poly.make(coeffs)


def test_arithmetic():
    p = P(1, 2)       # 1 + 2x
    q = P(0, 0, 3)    # 3x^2
    assert poly.mul(p, p) == P(1, 4, 4)
    assert poly.mul(p, q) == P(0, 0, 3, 6)
    assert poly.mul(p, P(Fraction(1, 2))) == P(Fraction(1, 2), 1)
    assert poly.mul(p, ()) == ()
    assert poly.make([1, 2, 0, 0]) == p


def test_diff_and_integrate():
    p = P(5, 0, 3)  # 5 + 3x^2
    assert poly.integrate(p) == P(0, 5, 0, 1)


def test_eval():
    p = P(1, -3, 2)  # (1-x)(1-2x)
    assert poly.eval_exact(p, Fraction(1, 2)) == 0
    assert poly.eval_exact(p, Fraction(3)) == 1 - 9 + 18
