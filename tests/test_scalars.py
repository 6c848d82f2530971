import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from superrep.scalars import GR_I, GR_ONE, GaussianRational


def test_field_ops_exact():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational(Fraction(2, 3), Fraction(5))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * b == b * a
    assert (a + b) * b == a * b + b * b


def test_conjugate_and_abs2():
    a = GaussianRational(Fraction(3), Fraction(-4))
    assert a.conjugate() == GaussianRational(Fraction(3), Fraction(4))
    assert a.abs2() == Fraction(25)
    assert abs(a) == 5.0


def test_i_squared():
    assert GR_I * GR_I == -GR_ONE


def test_coercion():
    assert GaussianRational.of(2) == GaussianRational(Fraction(2), Fraction(0))
    assert GaussianRational.of(Fraction(1, 3)).re == Fraction(1, 3)
    assert complex(GaussianRational(Fraction(0), Fraction(1))) == 1j


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GaussianRational()


# -- properties against a reference model made of two Fractions ----------------

rationals = st.fractions(max_denominator=10**6).filter(lambda q: abs(q) < 10**9)
gaussians = st.builds(GaussianRational, rationals, rationals)
exact_others = st.one_of(st.integers(-10**6, 10**6), rationals)


def model(x):
    """(re, im) of a GaussianRational, an int or a Fraction."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def model_op(op, x, y):
    (a, b), (c, d) = model(x), model(y)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def model_str(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)}i"


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def assert_canonical(z):
    assert z._d > 0
    assert math.gcd(z._a, z._b, z._d) == 1


@given(gaussians, gaussians, st.sampled_from(sorted(OPS)))
def test_binary_ops_match_model(x, y, op):
    assume(op != "/" or not y.is_zero())
    z = OPS[op](x, y)
    assert type(z) is GaussianRational
    assert (z.re, z.im) == model_op(op, x, y)
    assert_canonical(z)


@given(gaussians, exact_others, st.sampled_from(sorted(OPS)))
def test_mixed_and_reflected_ops_match_model(x, y, op):
    if op != "/" or y != 0:
        z = OPS[op](x, y)
        assert (z.re, z.im) == model_op(op, x, y)
        assert_canonical(z)
    if op != "/" or not x.is_zero():
        z = OPS[op](y, x)
        assert type(z) is GaussianRational
        assert (z.re, z.im) == model_op(op, y, x)
        assert_canonical(z)


@given(gaussians)
def test_unary_and_conversions_match_model(x):
    re, im = model(x)
    assert ((-x).re, (-x).im) == (-re, -im)
    assert (x.conjugate().re, x.conjugate().im) == (re, -im)
    assert x.abs2() == re * re + im * im
    assert type(x.abs2()) is Fraction
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert complex(x) == complex(float(re), float(im))
    assert abs(x) == float(re * re + im * im) ** 0.5
    assert x.is_zero() == (re == 0 and im == 0)
    assert str(x) == model_str(re, im)
    assert repr(x) == f"GaussianRational(re={re!r}, im={im!r})"
    assert_canonical(-x)
    assert_canonical(x.conjugate())


@given(rationals, rationals, st.integers(1, 10**4))
def test_equal_values_have_equal_fields_and_hashes(re, im, k):
    x = GaussianRational(re, im)
    assert_canonical(x)
    # the same value reached through unreduced intermediate denominators
    y = GaussianRational(re * k, im * k) / k
    assert y == x
    assert (y._a, y._b, y._d) == (x._a, x._b, x._d)
    assert hash(y) == hash(x)
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.copy(x) == x


def test_canonical_examples():
    half = GaussianRational(Fraction(2, 4))
    assert half == GaussianRational.of(Fraction(1, 2))
    assert hash(half) == hash(GaussianRational.of(Fraction(1, 2)))
    assert GaussianRational(0, 0) == GaussianRational(Fraction(0, 7))
    assert GaussianRational.of(True) == GR_ONE
    assert repr(GaussianRational()) == "GaussianRational(re=Fraction(0, 1), im=Fraction(0, 1))"
    assert GaussianRational(re=Fraction(3, 6), im=-2) == GaussianRational(Fraction(1, 2), -2)
    assert str(GaussianRational(0, 2)) == "2i"


def test_equality_with_other_types_is_not_implemented():
    assert (GR_ONE == 1) is False
    assert (GR_ONE != 1) is True
    assert (GR_ONE == Fraction(1)) is False
    assert GR_ONE.__eq__(1) is NotImplemented


def test_immutable():
    z = GaussianRational(Fraction(1, 2), Fraction(3))
    for name in ("re", "im", "_a", "_b", "_d", "extra"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
    with pytest.raises(AttributeError):
        del z._a
    assert z == GaussianRational(Fraction(1, 2), Fraction(3))


@given(gaussians)
def test_division_by_any_zero_raises(x):
    for zero in (GaussianRational(), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero
    for numerator in (1, Fraction(1, 2)):
        with pytest.raises(ZeroDivisionError):
            numerator / GaussianRational()


def test_non_exact_operands_are_rejected():
    with pytest.raises(TypeError):
        GR_ONE + 0.5
    with pytest.raises(TypeError):
        GaussianRational(0.5)
