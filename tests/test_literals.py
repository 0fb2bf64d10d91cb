"""The literal grammar: a literal is a sum of signed terms, and every term is
the ring product of its factors in the order written.  Properties over
skew polynomial rings and the shipped PBW presentations, a table of
malformed literals that the command line must reject with one JSON error,
round trips through the one printer (gf.sum_str) and the one reader
(gf.read_sum), and a gate that keeps the reader the only term loop."""

import ast
import contextlib
import io
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orecodes.cli import _parse_linearized, main
from orecodes.errors import DomainError
from orecodes.gf import GF, element_str, split_factors, split_terms
from orecodes.linearized import LinearizedPoly
from orecodes.scalars import GaussianRational
from orecodes.skewpoly import OreRing, poly_str
from orecodes.spbw import load_presentation, pbw_str

PRES = os.path.join(os.path.dirname(__file__), "..", "presentations")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "orecodes")


def run_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--format", "json"])
    return code, buf.getvalue()


def test_split_terms_and_factors():
    assert split_terms(" x^2 - g^-1*x + (1+a)*x ", "polynomial") == [
        (1, "x^2"), (-1, "g^-1*x"), (1, "(1+a)*x")]
    assert split_terms("-i", "Gaussian rational") == [(-1, "i")]
    assert split_factors("(1+a)*x^2*w") == ["1+a", "x^2", "w"]
    for bad in ["", "+", "x-", "x+-1", "(x", "x)+(1"]:
        with pytest.raises(DomainError, match="bad polynomial literal"):
            split_terms(bad, "polynomial")
    with pytest.raises(DomainError, match="empty factor in term 'x\\*\\*2'"):
        split_factors("x**2")


# -- (a) skew polynomial rings ---------------------------------------------------------

def _ring(q, k, deriv):
    field = GF(q, k)
    return OreRing(field, 1, field.gen if deriv else None)


RINGS = {f"GF({q}^{k})-phi-{'deriv' if d else 'auto'}": (q, k, d) for q, k in [(3, 2), (2, 4)] for d in (False, True)}


def _spellings(field, z):
    """Three spellings of a field element: g^e, the alias w^e, and the
    parenthesized residue form c0+c1*a+... read off its code's digits."""
    digits, code = [], z.code
    while code:
        code, d = divmod(code, field.q)
        digits.append(d)
    residue = "+".join(f"{d}*a^{i}" for i, d in enumerate(digits) if d) or "0"
    return [element_str(z), element_str(z).replace("g", "w"), f"({residue})"]


factor = st.one_of(
    st.tuples(st.just("x"), st.integers(0, 3)),
    st.tuples(st.just("c"), st.integers(0, 15), st.integers(0, 2)),
)
term = st.tuples(st.sampled_from([1, -1]), st.lists(factor, min_size=1, max_size=4))


@pytest.mark.parametrize("name", RINGS)
@settings(max_examples=60, deadline=None)
@given(terms=st.lists(term, min_size=1, max_size=3))
def test_poly_term_is_ordered_product(name, terms):
    ring = _ring(*RINGS[name])
    field = ring.field
    text, want = "", ring.zero
    for sign, word in terms:
        parts, prod = [], ring.one
        for f in word:
            if f[0] == "x":
                parts.append("x" if f[1] == 1 else f"x^{f[1]}")
                prod = prod * ring.monomial(f[1])
            else:
                z = field.element(f[1] % field.size)
                parts.append(_spellings(field, z)[f[2]])
                prod = prod * ring.poly([z])
        text += ("-" if sign < 0 else "+") + "*".join(parts)
        want = want + prod if sign > 0 else want - prod
    assert ring.parse(text) == want


def test_poly_factor_order_matters():
    ring = OreRing(GF(2, 2), 1)
    w = ring.field.gen
    assert ring.parse("x*w") == ring.poly([0, w ** 2])
    assert ring.parse("w*x") == ring.poly([0, w])
    deriv = OreRing(GF(2, 2), 1, w)
    assert deriv.parse("x*w") == deriv.x * deriv.poly([w])


# -- (b) PBW presentations ---------------------------------------------------------------

def _coefficients(A):
    """(text, value) pairs, the value built without the parser."""
    dom = A.domain
    if dom.is_finite:
        return [(element_str(z), z) for z in dom.elements() if z]
    if dom.name == "Q":
        return [("2", Fraction(2)), ("1/2", Fraction(1, 2)), ("(-3)", Fraction(-3)), ("(1/2-3)", Fraction(-5, 2))]
    return [("i", GaussianRational(0, 1)), ("2", GaussianRational(2)), ("(1+i)", GaussianRational(1, 1)),
            ("(1/2-3*i)", GaussianRational(Fraction(1, 2), -3))]


PRESENTATIONS = ["witten", "qspace3", "qplane4", "qplane9", "weyl1z"]
pbw_factor = st.one_of(
    st.tuples(st.just("var"), st.integers(0, 2), st.integers(1, 2)),
    st.tuples(st.just("coef"), st.integers(0, 15)),
)
pbw_term = st.tuples(st.sampled_from([1, -1]), st.lists(pbw_factor, min_size=1, max_size=4))


@pytest.mark.parametrize("name", PRESENTATIONS)
@settings(max_examples=40, deadline=None)
@given(terms=st.lists(pbw_term, min_size=1, max_size=3))
def test_pbw_term_is_ordered_product(name, terms):
    A = load_presentation(os.path.join(PRES, f"{name}.json"))
    coeffs = _coefficients(A)
    text, want = "", A.zero
    for sign, word in terms:
        parts, prod = [], A.one
        for f in word:
            if f[0] == "var":
                i = f[1] % A.n
                parts.append(A.names[i] if f[2] == 1 else f"{A.names[i]}^{f[2]}")
                for _ in range(f[2]):
                    prod = prod * A.var(i)
            else:
                s, c = coeffs[f[1] % len(coeffs)]
                parts.append(s)
                prod = prod * A.constant(c)
        text += ("-" if sign < 0 else "+") + "*".join(parts)
        want = want + prod if sign > 0 else want - prod
    assert A.parse(text) == want


@pytest.mark.parametrize("name, product", [
    ("witten", "2*x*y"), ("qplane9", "g^4*x*y"), ("weyl1z", "x*y-1"), ("qplane4", "g*x*y")])
def test_pbw_reversed_variables(name, product):
    code, out = run_json(["spbw", "mul", "--presentation", os.path.join(PRES, f"{name}.json"),
                          "--a", "y*x", "--b", "1"])
    assert code == 0
    assert json.loads(out) == {"result": {"product": product}}


@pytest.mark.parametrize("name, literal, product", [("witten", "(1/2-3)*x", "-5/2*x")])
def test_pbw_coefficient_sum_in_parentheses(name, literal, product):
    code, out = run_json(["spbw", "mul", "--presentation", os.path.join(PRES, f"{name}.json"),
                          "--a", literal, "--b", "1"])
    assert code == 0
    assert json.loads(out) == {"result": {"product": product}}


# -- (c) malformed literals --------------------------------------------------------------

POLY = ["poly", "mul", "--field", "GF(4)", "--sigma", "1", "--b", "1", "--a={}"]
LINEARIZED = ["linearized", "dickson", "--field", "GF(4)", "--poly={}"]
GAUSSIAN = ["spbw", "mul", "--presentation", os.path.join(PRES, "qspace3.json"), "--b", "1", "--a={}"]
RATIONAL = ["spbw", "mul", "--presentation", os.path.join(PRES, "witten.json"), "--b", "1", "--a={}"]
MALFORMED = [
    (POLY, "+", "'+'"),
    (POLY, "-", "'-'"),
    (POLY, "x+", "'x+'"),
    (POLY, "x++1", "'x++1'"),
    (POLY, "x+-1", "'x+-1'"),
    (POLY, "", "''"),
    (POLY, "g^-1*x", "'g^-1'"),
    (LINEARIZED, "y^2*y", "'y^2*y'"),
    (POLY, "(w*x", "'(w*x'"),
    (GAUSSIAN, "1/0*x", "bad Gaussian rational literal '1/0'"),
    # Q reads the grammar of Q(i) without i: no decimals, exponents or digit separators
    (RATIONAL, "1.5*x", "bad rational literal '1.5'"),
    (RATIONAL, "1e2*x", "bad rational literal '1e2'"),
    (RATIONAL, "1_0*x", "bad rational literal '1_0'"),
    (RATIONAL, "1/0*x", "bad rational literal '1/0'"),
]


@pytest.mark.parametrize("argv, literal, quoted", MALFORMED,
                         ids=[("Q:" if m[0] is RATIONAL else "") + repr(m[1]) for m in MALFORMED])
def test_malformed_literal_is_one_json_error(argv, literal, quoted):
    code, out = run_json(argv[:-1] + [argv[-1].format(literal)])
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["code"] == 3
    assert quoted in error["message"]


# digit runs one past the interpreter's default 4300-digit conversion limit and beyond
LONG = [
    (["field", "info", "GF(" + "1" * 5000 + ")"], "bad field literal: an integer of 5000 digits"),
    (["field", "info", "GF(2^" + "1" * 4301 + ")"], "bad field literal: an integer of 4301 digits"),
    (POLY[:-1] + ["--a=x^" + "9" * 5000], "bad polynomial literal: an integer of 5000 digits"),
    (POLY[:-1] + ["--a=w^" + "9" * 5000 + "*x"], "bad element literal: an integer of 5000 digits"),
    (GAUSSIAN[:-1] + ["--a=" + "9" * 5000 + "*x"], "bad Gaussian rational literal: a magnitude of 5000"),
    (RATIONAL[:-1] + ["--a=" + "9" * 5000 + "*x"], "bad rational literal: a magnitude of 5000 characters"),
    (GAUSSIAN[:-1] + ["--a=x^" + "9" * 5000], "bad polynomial literal: an integer of 5000 digits"),
]


@pytest.mark.parametrize("argv, message", LONG, ids=["field", "field-degree", "poly-exponent", "element-exponent",
                                                     "gaussian", "rational", "pbw-exponent"])
def test_long_integer_literal_is_a_bad_literal(argv, message):
    code, out = run_json(argv)
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == 3 and error["message"].startswith(message)


@pytest.mark.parametrize("argv", [
    ["evalcodes", "build", "--field", "GF(8)", "--sigma", "1", "--support", "1,,g", "--k", "2"],
    ["algset", "rank", "--field", "GF(4)", "--sigma", "1", "--points", "1,w,"],
    ["linearized", "moore", "--field", "GF(4)", "--basis", "1,,w"],
    ["spbwsets", "roots", "--presentation", os.path.join(PRES, "qplane9.json"), "--f", "x*y", "--point", "0,,0"],
    ["spbw", "groebner", "--presentation", os.path.join(PRES, "qplane4.json"), "--gens", "x,,y"],
    ["spbw", "reduce", "--presentation", os.path.join(PRES, "witten.json"), "--f", "x", "--by", "x,"],
    ["spbwsets", "variety", "--presentation", os.path.join(PRES, "qplane4.json"), "--gens", "x",
     "--domain", "0,0;;1,1"],
])
def test_empty_list_item_is_rejected(argv):
    code, out = run_json(argv)
    assert code == 3
    assert "empty item in list" in json.loads(out)["error"]["message"]


# -- (d) round trips: the printed form reads back to the same polynomial -------------------

# GF(16) and GF(256) pack their rows (gf.ByteRows); GF(9), GF(25) and GF(512) keep the Zech loop
ROUND_TRIP_FIELDS = [(2, 4), (2, 8), (3, 2), (5, 2), (2, 9)]


@pytest.mark.parametrize("q, k", ROUND_TRIP_FIELDS, ids=[f"GF({q}^{k})" for q, k in ROUND_TRIP_FIELDS])
@pytest.mark.parametrize("deriv", [False, True], ids=["sigma", "delta_w"])
def test_skew_poly_str_round_trip(q, k, deriv):
    ring = _ring(q, k, deriv)
    field, rng = ring.field, random.Random(q ** k + deriv)
    polys = [ring.zero] + [ring.poly([field.element(rng.randrange(field.size)) for _ in range(rng.randint(1, 9))])
                           for _ in range(40)]
    for p in polys:
        assert ring.parse(poly_str(p)) == p, poly_str(p)


@pytest.mark.parametrize("q, k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_linearized_repr_round_trip(q, k):
    field, rng = GF(q, k), random.Random(q ** k)
    for _ in range(40):
        g = LinearizedPoly(field, [field.element(rng.randrange(field.size)) for _ in range(rng.randint(0, k))])
        assert _parse_linearized(field, repr(g)) == g, repr(g)


def _random_scalar(A, rng):
    """A nonzero coefficient; over Q(i) both parts take either sign."""
    dom = A.domain
    if dom.is_finite:
        return dom.field.element(rng.randrange(1, dom.field.size))
    part = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    z = GaussianRational(part(), part() if dom.gaussian else 0)
    return z if z else GaussianRational(1)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="pbw_str pulls the sign out of a coefficient that is a sum, so -1+2*i prints as "
                            "-(1+2*i) (the open pbw_str FOUND of CHANGES.md, ROADMAP item 1)"))
    if name == "qspace3" else name for name in PRESENTATIONS])
def test_pbw_str_round_trip(name):
    A = load_presentation(os.path.join(PRES, f"{name}.json"))
    rng = random.Random(name)
    polys = [A.zero] + [A.poly({tuple(rng.randint(0, 3) for _ in range(A.n)): _random_scalar(A, rng)
                                for _ in range(rng.randint(1, 4))}) for _ in range(40)]
    for f in polys:
        assert A.parse(pbw_str(f)) == f, pbw_str(f)


# -- (e) one reader ---------------------------------------------------------------------------

SPLITTERS = {"split_terms", "split_factors"}


def _splitter_uses(name):
    """(module, enclosing Class.function, splitter) for every use of a literal splitter in module name."""
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), name)
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            used = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if used in SPLITTERS:
                found.add((name, ".".join(scope), used))
            walk(child, scope)

    walk(tree, ())
    return found


def test_read_sum_is_the_only_term_loop():
    """Only gf splits a polynomial literal: read_sum splits terms and factors, parse_element splits
    an element's terms, and scalars.NumberField.parse splits its own scalar grammar's terms."""
    uses = set().union(*(_splitter_uses(name) for name in sorted(os.listdir(SRC)) if name.endswith(".py")))
    assert uses == {
        ("gf.py", "read_sum", "split_terms"),
        ("gf.py", "read_sum", "split_factors"),
        ("gf.py", "parse_element", "split_terms"),
        ("scalars.py", "NumberField.parse", "split_terms"),
    }
