import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orecodes.errors import DomainError
from orecodes.scalars import GaussianRational, QQ, QQI, domain_by_name


rationals = st.fractions(max_denominator=50)


@given(rationals, rationals, rationals, rationals)
def test_gaussian_field_axioms(a, b, c, d):
    z1 = GaussianRational(a, b)
    z2 = GaussianRational(c, d)
    assert z1 + z2 == z2 + z1
    assert z1 * z2 == z2 * z1
    assert (z1 - z2) + z2 == z1
    if z2:
        assert (z1 / z2) * z2 == z1


def test_i_squared_is_minus_one():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    assert 1 / i == -i


def test_gaussian_parsing_and_printing():
    cases = ["0", "1", "i", "-i", "2*i", "1/2", "3+2*i", "3-1/2*i", "-1/2"]
    for s in cases:
        v = QQI.parse(s)
        assert QQI.parse(QQI.to_str(v)) == v
    assert QQI.parse("2i") == GaussianRational(0, 2)
    assert QQI.to_str(GaussianRational(Fraction(1, 2), 0)) == "1/2"
    with pytest.raises(DomainError):
        QQI.parse("one")


def test_rational_domain():
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    with pytest.raises(DomainError):
        QQ.parse("x")
    with pytest.raises(DomainError):
        QQ.sigma(1)


def test_domain_by_name():
    assert domain_by_name("Q") is QQ
    assert domain_by_name("Q(i)") is QQI
    gf = domain_by_name("GF(4)")
    assert gf.parse("w^2") == gf.field.gen ** 2
    with pytest.raises(DomainError):
        domain_by_name("R")


# -- the integer triple against the componentwise Fraction formulas it replaced ---------

def _ref(op, x, y):
    """op on (re, im) pairs of Fractions, componentwise."""
    (a, b), (c, d) = x, y
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def _ref_str(re, im):
    """The rendering of re + im*i from Fraction parts, each printed by str(Fraction)."""
    if not im:
        return str(re)
    ims = "i" if im == 1 else ("-i" if im == -1 else f"{im}*i")
    if not re:
        return ims
    mag = abs(im)
    return f"{re}{'+' if im > 0 else '-'}{'i' if mag == 1 else f'{mag}*i'}"


wide = st.one_of(rationals, st.fractions(), st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]))
pairs = st.tuples(wide, wide)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pairs, pairs, st.sampled_from("+-*/"))
def test_arithmetic_matches_componentwise_fractions(x, y, op):
    if op == "/" and not any(y):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(*x) / GaussianRational(*y)
        return
    got = {"+": lambda u, v: u + v, "-": lambda u, v: u - v, "*": lambda u, v: u * v,
           "/": lambda u, v: u / v}[op](GaussianRational(*x), GaussianRational(*y))
    re, im = _ref(op, x, y)
    assert got == GaussianRational(re, im)
    assert QQI.to_str(got) == _ref_str(re, im)
    assert got.d > 0 and math.gcd(got.a, got.b, got.d) == 1
    if not x[1] and not y[1]:  # over Q: the Fraction result itself, compared either way round
        assert got == re and re == got


@settings(max_examples=300, derandomize=True, deadline=None)
@given(wide, wide)
def test_equality_and_hash_agree_with_int_and_fraction(re, im):
    z = GaussianRational(re)
    assert z == re and re == z and hash(z) == hash(re)
    assert z + 0 == re and 1 * z == re and (z - re) == 0
    if re.denominator == 1:
        assert z == int(re) and int(re) == z and hash(z) == hash(int(re))
    w = GaussianRational(re, im)
    assert (w == re) == (not im) and (w != re) == bool(im)
    assert w == GaussianRational(re, im) and hash(w) == hash(GaussianRational(re, im))


def test_hash_of_denominators_the_hash_modulus_divides():
    P = sys.hash_info.modulus
    for x in [Fraction(1, P), Fraction(-3, 2 * P), Fraction(5, P - 1), Fraction(-(10 ** 30), 7)]:
        assert hash(GaussianRational(x)) == hash(x)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(wide, wide)
def test_printing_matches_the_fraction_rendering_and_parses_back(re, im):
    v = GaussianRational(re, im)
    assert QQI.to_str(v) == _ref_str(re, im)
    assert QQI.parse(QQI.to_str(v)) == v
    assert QQ.to_str(GaussianRational(re)) == str(re)
    assert QQ.parse(QQ.to_str(GaussianRational(re))) == re


def test_rational_grammar_is_the_gaussian_one_without_i():
    assert QQ.parse("1/2-3") == Fraction(-5, 2)
    assert QQ.parse(" 3 + 2/4 ") == QQI.parse("7/2")
    for bad in ["i", "2*i", "1-i", "1.5", "1e2", "1_0", "1/0", "0x10", ""]:
        with pytest.raises(DomainError, match="bad rational literal"):
            QQ.parse(bad)
