from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loghodge.errors import ParseError
from loghodge.scalars import ZERO, Scalar, format_scalar, parse_scalar

fractions = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=20),
)
scalars = st.builds(Scalar, fractions, fractions)


@pytest.mark.parametrize("re, im", [(0.1, 0), (0, 0.5), ("1/3", 0), (1, "2"),
                                    (1j, 0), (None, 0)])
def test_constructor_takes_only_ints_and_fractions(re, im):
    with pytest.raises(TypeError):
        Scalar(re, im)


def test_parse_formats():
    assert parse_scalar("3") == Scalar(3)
    assert parse_scalar("-3/2") == Scalar(Fraction(-3, 2))
    assert parse_scalar("1/2+1/3*i") == Scalar(Fraction(1, 2), Fraction(1, 3))
    assert parse_scalar("1/2-1/3*i") == Scalar(Fraction(1, 2), Fraction(-1, 3))
    assert parse_scalar("-2*i") == Scalar(0, -2)


@pytest.mark.parametrize("bad", ["", "i", "1/0", "1.5", "1+i", "1/2 + 1/3*i", "x"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


@given(scalars)
def test_roundtrip(x):
    assert parse_scalar(format_scalar(x)) == x


@given(scalars)
def test_conjugation_involution(x):
    assert x.conj().conj() == x


@given(fractions)
def test_conjugation_fixes_rationals(f):
    assert Scalar(f).conj() == Scalar(f)


@given(scalars, scalars)
def test_field_ops(x, y):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()
    if y:
        assert (x / y) * y == x


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


@pytest.mark.parametrize("zero", [0, Fraction(0), Scalar(0)])
@given(scalars)
def test_zero_shortcuts(zero, x):
    assert x + zero is x and zero + x == x
    if x:
        assert zero + x is x
    assert x - zero is x
    assert zero - x == -x
    for product in (x * zero, zero * x):
        assert type(product) is Scalar and product == 0 and not product
    if not x.im:
        assert x * zero is ZERO and zero * x is ZERO


@given(scalars, scalars)
def test_results_are_scalars_with_fraction_parts(x, y):
    for z in (x + y, x - y, x * y, -x, x.conj(), 1 + x, 1 - x, 2 * x):
        assert type(z) is Scalar
        assert type(z.re) is Fraction and type(z.im) is Fraction


def is_canonical(z):
    return type(z) is Scalar and z.d > 0 and gcd(z.a, z.b, z.d) == 1


@given(scalars, scalars)
def test_every_op_returns_a_canonical_triple(x, y):
    results = [x + y, x - y, x * y, -x, x.conj(), 1 + x, 1 - x, 2 * x,
               Scalar(x.re, x.im), parse_scalar(format_scalar(x))]
    if y:
        results += [x / y, 1 / y]
    assert all(is_canonical(z) for z in results)
    # equal values have equal triples, so they hash alike
    back = (x + y) - y
    assert (back.a, back.b, back.d) == (x.a, x.b, x.d) and hash(back) == hash(x)


@given(fractions, st.integers(-50, 50))
def test_a_real_scalar_equals_and_hashes_like_its_fraction(f, n):
    assert Scalar(f) == f and hash(Scalar(f)) == hash(f)
    assert Scalar(n) == n and hash(Scalar(n)) == hash(n)
    assert Scalar(f) * 3 / 3 == f and hash(Scalar(f) * 3 / 3) == hash(f)
    assert Scalar(f, 1) != f and Scalar(f) != Fraction(f.numerator + 1, f.denominator)


# each loads through a loose grammar and re-serialises to other bytes
NON_CANONICAL = ["2/4", "04", "+1", " 1 ", "1\n", "١",
                 "3/1", "0/5", "-0", "0*i", "1+0*i", "0+1*i", "1/2+2/4*i", "1/01"]


@pytest.mark.parametrize("bad", NON_CANONICAL)
def test_parse_rejects_what_format_never_writes(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


@given(st.text(alphabet="0123456789-+/*i \n١", max_size=9))
def test_every_accepted_string_is_the_format_of_its_value(text):
    try:
        x = parse_scalar(text)
    except ParseError:
        return
    assert format_scalar(x) == text
