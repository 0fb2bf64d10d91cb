"""Derandomized fuzzing of the exit-code contract.

argv is built from the README grammar (fields, ring options, polynomial,
element and list literals), with malformed pieces mixed in: junk literals,
bad field literals, a dropped or an unknown token.  Only the cheap
subcommands run, over fields up to GF(16) with exponents up to 6.  Every call
exits 0, 2, 3, 4 or 5; exit 2 (usage) leaves stdout empty, and every other
exit prints exactly one JSON object whose error code is the exit code.
Presentation dicts go through load_presentation, which returns a
presentation or raises DomainError."""

import contextlib
import io
import json
import os

from hypothesis import given, settings, strategies as st

from orecodes.cli import main
from orecodes.errors import DomainError
from orecodes.spbw import PBWPresentation, load_presentation

PRES = os.path.join(os.path.dirname(__file__), "..", "presentations")
SHIPPED = ["witten", "qspace3", "qplane4", "qplane9", "weyl1z"]

FIELDS = ["GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)", "GF(11)", "GF(13)", "GF(16)",
          "GF(2^3)", "GF(3^2)", "GF(2^4)"]
# a digit run longer than the interpreter's 4300-digit integer-conversion limit
LONG = "9" * 5000
BAD_FIELDS = ["GF(6)", "GF(1)", "GF(0)", "GF(2^0)", "GF(4^2)", "GF(2^17)", "GF(", "gf(4)", "", "Q", "GF(1000003)",
              "GF(2305843009213693951^1)", f"GF({LONG})"]
JUNK = st.one_of(st.text(alphabet="xyzwgai0123456789^*+-()/,; ", max_size=10),
                 st.sampled_from([f"x^{LONG}", f"w^{LONG}", LONG]))

exponent = st.integers(0, 6)


def mostly(valid, bad):
    """valid three times in four, else the malformed piece bad."""
    return st.sampled_from([valid, valid, valid, bad]).flatmap(lambda s: s)


element = st.one_of(
    st.integers(0, 20).map(str),
    st.tuples(st.sampled_from(["", "2*"]), st.sampled_from("gwa"), exponent).map(
        lambda t: f"{t[0]}{t[1]}^{t[2]}"),
    st.sampled_from(["g", "w", "a", "1+a", "(1+g)", "2a"]),
)


def literal(factor):
    """Sums of up to three signed terms, each a product of up to three factors."""
    term = st.lists(factor, min_size=1, max_size=3).map("*".join)
    terms = st.lists(st.tuples(st.sampled_from("+-"), term), min_size=1, max_size=3)
    return terms.map(lambda ts: "".join(s + t for s, t in ts).lstrip("+"))


def var_power(names):
    return st.tuples(st.sampled_from(names), exponent).map(lambda t: t[0] if t[1] == 1 else f"{t[0]}^{t[1]}")


poly = mostly(literal(st.one_of(var_power(["x"]), element)), JUNK)
ypoly = mostly(literal(st.one_of(var_power(["y"]), element)), JUNK)
points = mostly(st.lists(element, min_size=1, max_size=5).map(",".join), JUNK)
field = mostly(st.sampled_from(FIELDS), st.sampled_from(BAD_FIELDS))
# coefficients by the presentation's domain; 1/0 and a foreign domain's literal are malformed
PBW_COEFFS = {"Q": ["2", "1/2", "-3", "(1/2-3)"], "Q(i)": ["i", "2", "(1+i)", "1/2-3*i"],
              "GF": ["w", "g^2", "2", "(1+a)"]}
DOMAIN = {"witten": "Q", "weyl1z": "Q", "qspace3": "Q(i)", "qplane4": "GF", "qplane9": "GF", "missing": "Q"}
pbw_coeff = st.sampled_from(sorted({c for cs in PBW_COEFFS.values() for c in cs} | {"1/0"}))


def pbw(domain):
    coeff = mostly(st.sampled_from(PBW_COEFFS[domain]), pbw_coeff)
    return mostly(literal(st.one_of(var_power(["x", "y", "z"]), coeff)), JUNK)


@st.composite
def ring(draw):
    argv = ["--field", draw(field), "--sigma", str(draw(st.integers(-1, 4)))]
    if draw(st.booleans()):
        argv.append("--delta-w=" + draw(mostly(element, JUNK)))
    return argv


@st.composite
def command(draw):
    kind = draw(st.sampled_from(["field", "poly2", "eval", "poly1", "points", "evalcodes", "codes",
                                 "linearized", "moore", "spbw"]))
    if kind == "field":
        return ["field", "info", draw(field)]
    if kind == "poly2":
        op = draw(st.sampled_from(["mul", "divmod", "gcrd", "lclm"]))
        return ["poly", op, *draw(ring()), "--a=" + draw(poly), "--b=" + draw(poly)]
    if kind == "eval":
        mode = draw(mostly(st.sampled_from(["right", "operator"]), st.just("left")))
        return ["poly", "eval", *draw(ring()), "--g=" + draw(poly), "--at=" + draw(element), "--mode", mode]
    if kind == "poly1":
        cmd = draw(st.sampled_from([["poly", "twosided"], ["algset", "vanish"], ["algset", "wpoly"]]))
        return [*cmd, *draw(ring()), "--g=" + draw(poly)]
    if kind == "points":
        return ["algset", draw(st.sampled_from(["minpoly", "rank"])), *draw(ring()), "--points=" + draw(points)]
    if kind == "evalcodes":
        code = draw(st.sampled_from(["remainder", "operator"]))
        return ["evalcodes", "build", *draw(ring()), "--support=" + draw(points),
                "--k", str(draw(mostly(st.integers(1, 3), st.integers(-1, 6)))), "--code", code]
    if kind == "codes":
        op = draw(st.sampled_from(["build", "theta", "rightmult", "idempotent", "bezout"]))
        if op == "build":
            emit = draw(st.sampled_from(["G", "H", "G,H"]))
            return ["codes", "build", *draw(ring()), "--modulus=" + draw(poly), "--divisor=" + draw(poly),
                    "--emit", emit]
        flags = {"theta": ["g"], "rightmult": ["g"], "idempotent": ["e"], "bezout": ["g", "h"]}[op]
        return ["codes", op, *draw(ring()), *[f"--{f}={draw(poly)}" for f in flags],
                "--n", str(draw(st.integers(-1, 6)))]
    if kind == "linearized":
        return ["linearized", draw(st.sampled_from(["map", "dickson"])), "--field", draw(field),
                "--poly=" + draw(st.one_of(ypoly, poly))]
    if kind == "moore":
        return ["linearized", "moore", "--field", draw(field), "--basis=" + draw(points)]
    name = draw(mostly(st.sampled_from(SHIPPED), st.just("missing")))
    argv = ["spbw", draw(st.sampled_from(["mul", "divide"])), "--presentation", os.path.join(PRES, f"{name}.json")]
    lit = pbw(DOMAIN[name])
    if argv[1] == "mul":
        return argv + ["--a=" + draw(lit), "--b=" + draw(lit)]
    return argv + ["--f=" + draw(lit), "--by=" + ",".join(draw(st.lists(lit, min_size=1, max_size=2)))]


@st.composite
def argv_strategy(draw):
    argv = draw(command())
    edit = draw(st.sampled_from(["none"] * 8 + ["drop", "unknown"]))
    if edit == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif edit == "unknown":
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    return argv + ["--format", "json"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=argv_strategy())
def test_cli_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4, 5), argv
    if code == 2:
        assert out.getvalue() == "", argv
        return
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, argv
    payload = json.loads(lines[0])
    if code == 0:
        assert list(payload) == ["result"], argv
    else:
        assert payload["error"]["code"] == code, argv


# -- presentation dicts -------------------------------------------------------------

json_scalar = st.one_of(st.none(), st.booleans(), st.integers(-3, 5), JUNK, pbw_coeff)
json_value = st.recursive(json_scalar, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.sampled_from("ijcad"), inner, max_size=3)), max_leaves=6)
relation = st.fixed_dictionaries({}, optional={
    "i": st.one_of(st.integers(0, 4), json_value),
    "j": st.one_of(st.integers(0, 4), json_value),
    "c": st.one_of(pbw_coeff, json_value),
    "a": st.one_of(st.lists(pbw_coeff, max_size=4), json_value),
    "d": st.one_of(pbw_coeff, json_value),
})
presentation = st.fixed_dictionaries(
    {"schema_version": st.sampled_from([1, 1, 1, 2, "1", None])},
    optional={
        "vars": st.one_of(st.lists(st.sampled_from(["x", "y", "z", "1x", ""]), max_size=4), json_value),
        "field": st.one_of(st.sampled_from(["Q", "Q(i)", "QQ", "GF(4)", "GF(9)", "GF(16)", "GF(6)", "R"]),
                           json_value),
        "relations": st.one_of(st.lists(relation, max_size=3), json_value),
        "sigma": st.one_of(st.lists(st.one_of(st.none(), st.integers(-2, 3), json_value), max_size=4),
                           json_value),
        "delta": st.one_of(st.lists(st.one_of(st.none(), pbw_coeff, json_value), max_size=4), json_value),
    },
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=presentation)
def test_load_presentation_returns_or_raises_domain_error(data):
    try:
        pres = load_presentation(data)
    except DomainError:
        return
    assert isinstance(pres, PBWPresentation)
