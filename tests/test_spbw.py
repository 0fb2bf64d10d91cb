import copy
import itertools
import json
import os
import random
import re
from fractions import Fraction

import pytest

from orecodes.cli import main
from orecodes.errors import DomainError, GuardError
from orecodes.scalars import QQ, QQI, GaussianRational, domain_by_name
from orecodes.spbw import (
    MAX_REWRITE_DEGREE,
    PBWPresentation,
    divide,
    groebner_left,
    in_left_ideal,
    in_two_sided_ideal,
    load_presentation,
    pbw_str,
    presentation_to_dict,
    reduce_full,
    two_sided_closure,
)


def witten():
    # zx = xz - x, zy = yz + 2y, yx = 2xy over Q
    one, zero = QQ.one, QQ.zero
    return PBWPresentation(
        ["x", "y", "z"],
        QQ,
        {
            (0, 1): (Fraction(2), [zero] * 3, zero),
            (0, 2): (one, [Fraction(-1), zero, zero], zero),
            (1, 2): (one, [zero, Fraction(2), zero], zero),
        },
    )


def qspace3():
    # yx = 2i xy, zx = 3i xz, zy = -i yz over Q(i)
    i = GaussianRational(0, 1)
    zero = QQI.zero
    return PBWPresentation(
        ["x", "y", "z"],
        QQI,
        {
            (0, 1): (2 * i, [zero] * 3, zero),
            (0, 2): (3 * i, [zero] * 3, zero),
            (1, 2): (-i, [zero] * 3, zero),
        },
    )


def qplane(domain_name="Q", c="2"):
    dom = domain_by_name(domain_name)
    return PBWPresentation(["x", "y"], dom, {(0, 1): (dom.parse(c), [dom.zero] * 2, dom.zero)})


def rand_poly(pres, rng, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        alpha = tuple(rng.randrange(max_deg + 1) for _ in range(pres.n))
        if sum(alpha) > max_deg:
            continue
        terms[alpha] = pres.domain.parse(str(rng.randrange(-3, 4)))
    return pres.poly(terms)


# -- normal form multiplication ------------------------------------------------------

def test_witten_relations():
    A = witten()
    x, y, z = A.gens
    assert z * x == A.parse("x*z-x")
    assert z * y == A.parse("y*z+2*y")
    assert y * x == A.parse("2*x*y")
    assert A.parse("x^2*y") * A.one == A.parse("x^2*y")


def test_quantum_space_relations():
    A = qspace3()
    x, y, z = A.gens
    assert y * x == A.parse("2*i*x*y")
    assert z * x == A.parse("3*i*x*z")
    assert z * y == A.parse("-i*y*z")


def test_mul_associative_witten_and_qspace():
    for A in (witten(), qspace3()):
        rng = random.Random(12)
        for _ in range(25):
            a, b, c = (rand_poly(A, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_degree_multiplicative_over_domain():
    A = witten()
    rng = random.Random(5)
    for _ in range(30):
        a, b = rand_poly(A, rng), rand_poly(A, rng)
        if a and b:
            assert (a * b).degree == a.degree + b.degree


def test_unique_normal_form_random_rewriting():
    # multiplying in different associations must give identical term maps
    A = witten()
    x, y, z = A.gens
    words = [(z, y, x), (z, x, y), (y, z, x)]
    for w1 in words:
        p1 = w1[0] * w1[1] * w1[2]
        p2 = w1[0] * (w1[1] * w1[2])
        assert p1 == p2


@pytest.mark.parametrize("name", ["qplane4", "qplane9", "qspace3"])
def test_monomial_products_match_the_quasi_commutative_closed_form(name):
    """x^alpha * g = sum_beta S(alpha, beta) g_beta x^(alpha+beta) with
    S = prod_{i<j} c_ij^(alpha_j beta_i), computed here from A.relations: a
    product independent of _mono_times, which the division certificate uses
    to rebuild sum q_i * d_i and so cannot check."""
    A = load_presentation(os.path.join(os.path.dirname(__file__), "..", "presentations", f"{name}.json"))
    assert A.is_quasi_commutative and A.has_trivial_coefficient_maps
    rng = random.Random(name)
    one = A.domain.one

    def scalar():
        if A.domain.is_finite:
            return A.domain.field.element(rng.randrange(1, A.domain.field.size))
        return GaussianRational(rng.randrange(-3, 4), rng.randrange(-3, 4))

    def power(c, e):
        out = one
        for _ in range(e):
            out = out * c
        return out

    for alpha in itertools.product(range(4), repeat=A.n):
        if sum(alpha) > 3:
            continue
        for _ in range(3):
            g = A.poly({tuple(rng.randrange(3) for _ in range(A.n)): scalar() for _ in range(4)})
            expected = {}
            for beta, c in g.terms.items():
                S = one
                for (i, j), (cij, _, _) in A.relations.items():
                    S = S * power(cij, alpha[j] * beta[i])
                expected[tuple(a + b for a, b in zip(alpha, beta))] = S * c
            assert A._mono_times(alpha, g.terms) == expected
            assert (A.monomial(alpha) * g).terms == expected


# -- the division algorithm ------------------------------------------------------------

def test_witten_division_reference_output():
    A = witten()
    f = A.parse("x^2*y+x*z+y*z")
    F = [A.parse("x-1"), A.parse("y+2"), A.parse("z+3")]
    res = divide(f, F)
    assert res.quotients[0] == A.parse("1/2*x*y+1/4*y")
    assert res.quotients[1] == A.parse("1/4")
    assert res.quotients[2] == A.zero
    assert res.remainder == A.parse("x*z+y*z-1/2")
    assert pbw_str(res.remainder) == "x*z+y*z-1/2"


def test_quantum_space_division_remainder_verbatim():
    A = qspace3()
    f = A.parse("x^2*y+y*z^2+x*z")
    F = [A.parse("x-i"), A.parse("y-2*i"), A.parse("z-3*i")]
    res = divide(f, F)
    assert res.remainder == A.parse("y*z^2+x*z+1/2*i")
    assert res.quotients[1] == A.parse("1/4")
    assert res.quotients[2] == A.zero
    # with yx = 2i*xy the cascade cofactor is q1 = -1/2*i*x*y - 1/4*i*y;
    # the sign-flipped variant 1/2*i*x*y - 1/4*i*y cannot reconstruct f under
    # these relations (its leading term cannot cancel x^2*y).
    assert res.quotients[0] == A.parse("-1/2*i*x*y-1/4*i*y")
    flipped_q1 = A.parse("1/2*i*x*y-1/4*i*y")
    recon = flipped_q1 * F[0] + res.quotients[1] * F[1] + res.remainder
    assert recon != f


def test_divisor_in_family_divides_exactly():
    A = witten()
    F = [A.parse("x-1"), A.parse("y+2"), A.parse("z+3")]
    for i, d in enumerate(F):
        res = divide(d, F)
        assert res.quotients[i] == A.one
        assert not res.remainder


def test_reduce_full_witten():
    # the exhaustive normal form reduces the same input all the way to 15/2
    A = witten()
    f = A.parse("x^2*y+x*z+y*z")
    F = [A.parse("x-1"), A.parse("y+2"), A.parse("z+3")]
    assert reduce_full(f, F) == A.parse("15/2")


def test_division_reconstruction_random():
    A = witten()
    rng = random.Random(3)
    F = [A.parse("x-1"), A.parse("y+2"), A.parse("z+3")]
    for _ in range(25):
        f = rand_poly(A, rng)
        if not f:
            continue
        res = divide(f, F)
        recon = res.remainder
        for qi, di in zip(res.quotients, F):
            recon = recon + qi * di
        assert recon == f


# -- Groebner machinery ------------------------------------------------------------------

def test_groebner_single_generator():
    A = witten()
    g = groebner_left([A.parse("x-1")])
    assert g.complete and g.basis == [A.parse("x-1")]


def test_groebner_weyl_unit_ideal():
    # yx = xy - 1, z central: the left ideal A(x-1) + Ay + Az contains 1
    one, zero = QQ.one, QQ.zero
    A = PBWPresentation(
        ["x", "y", "z"],
        QQ,
        {(0, 1): (one, [zero] * 3, Fraction(-1)), (0, 2): (one, [zero] * 3, zero), (1, 2): (one, [zero] * 3, zero)},
    )
    x, y, z = A.gens
    # membership certificate: 1 = -y(x-1) + (x-1)y + 0z
    cert = -(y * (x - A.one)) + (x - A.one) * y
    assert cert == A.one
    res = groebner_left([A.parse("x-1"), y, z])
    assert res.complete
    assert A.one in res.basis
    assert in_left_ideal(A.one, res.basis)


def test_groebner_quantum_plane_monomials():
    A = qplane()
    res = groebner_left([A.var(0), A.var(1)])
    assert res.complete
    assert res.basis == [A.var(1), A.var(0)] or res.basis == [A.var(0), A.var(1)]


def test_groebner_membership_random_combinations():
    A = qplane()
    gens = [A.parse("x^2-1"), A.parse("y")]
    res = groebner_left(gens)
    assert res.complete
    rng = random.Random(7)
    for _ in range(25):
        combo = A.zero
        for g in gens:
            combo = combo + rand_poly(A, rng, max_deg=2) * g
        assert in_left_ideal(combo, res.basis)


def test_groebner_witten_membership():
    # completion in a presentation with additive lower-order relation terms
    A = witten()
    gens = [A.parse("x^2-1"), A.parse("y*z+x")]
    res = groebner_left(gens)
    assert res.complete
    rng = random.Random(17)
    for g in gens:
        assert in_left_ideal(g, res.basis)
    for _ in range(25):
        combo = A.zero
        for g in gens:
            combo = combo + rand_poly(A, rng, max_deg=2) * g
        assert in_left_ideal(combo, res.basis)
    # and something visibly outside: a bare constant (the ideal is proper
    # unless completion found a unit)
    if all(g.degree > 0 for g in res.basis):
        assert not in_left_ideal(A.one, res.basis)


# -- two-sided closure ----------------------------------------------------------------------

def test_closure_point_ideal_quantum_plane():
    A = qplane()
    gens = [A.parse("x-1"), A.parse("y")]  # the point (1, 0)
    G = two_sided_closure(gens)
    # two-sided combinations reduce to zero
    rng = random.Random(9)
    for _ in range(25):
        combo = A.zero
        for g in gens:
            combo = combo + rand_poly(A, rng, 2) * g * rand_poly(A, rng, 2)
        assert not reduce_full(combo, G)
    # the (1, 0) point ideal is proper
    assert reduce_full(A.one, G)


def test_point_ideal_collapses_off_the_axes():
    # in the quantum plane with q != 1, q(x-z1)y - y(x-z1) = (1-q) z1 y, so
    # the two-sided ideal of a point with both coordinates nonzero is the
    # whole ring
    A = qplane()
    gens = [A.parse("x-1"), A.parse("y-1")]
    q, z1 = A.domain.parse("2"), A.domain.parse("1")
    x, y = A.gens
    f = A.parse("x-1")
    witness = (f * y).scale(q) - y * f
    assert witness == y.scale((A.domain.one - q) * z1)
    G = two_sided_closure(gens)
    assert not reduce_full(A.one, G)


def test_closure_of_origin_is_itself():
    A = qplane()
    G = two_sided_closure([A.var(0), A.var(1)])
    assert sorted(pbw_str(g) for g in G) == ["x", "y"]


def test_closure_central_generators_add_nothing():
    A = qplane(c="-1")  # q = -1: x^2 is central
    G = two_sided_closure([A.parse("x^2")])
    assert [pbw_str(g) for g in G] == ["x^2"]


def test_closure_outside_quasi_commutative():
    # witten: x is normal (z x = x (z - 1)), and z x - x z = -x and z y - y z
    # = 2y put x and y into <z>; weyl1z: x^2 y - y x^2 = 2x, and x y - y x = 1
    A = witten()
    for gen, closure in [("x", ["x"]), ("x*y", ["x*y"]), ("z", ["z", "y", "x"]), ("x-1", ["1"])]:
        assert [pbw_str(g) for g in two_sided_closure([A.parse(gen)])] == closure
    W = load_presentation(os.path.join(os.path.dirname(__file__), "..", "presentations", "weyl1z.json"))
    assert [pbw_str(g) for g in two_sided_closure([W.parse("x^2")])] == ["1"]
    assert [pbw_str(g) for g in two_sided_closure([W.parse("z-1")])] == ["z-1"]


def test_closure_with_coefficient_twisting():
    # the one-variable ring with x*r = r^2*x over GF(4) as a PBW extension:
    # closure must also saturate against field generators
    from orecodes.gf import GF
    from orecodes.scalars import GFDomain

    A = PBWPresentation(["x"], GFDomain(GF(2, 2)), sigma=[1])
    assert A.is_quasi_commutative and not A.has_trivial_coefficient_maps
    central = A.parse("x^2+1")
    assert [pbw_str(g) for g in two_sided_closure([central])] == ["x^2+1"]
    # x+1 generates the unit two-sided ideal: (x+1)w - w^2(x+1) = w + w^2 = 1
    G = two_sided_closure([A.parse("x+1")])
    assert [pbw_str(g) for g in G] == ["1"]


def round_closure(gens):
    """The round-based two-sided closure, the reference: complete the left basis,
    reduce every right multiple g*m modulo it, and complete again with the
    nonzero remainders until a round adds nothing."""
    gens = [g for g in gens if g]
    pres = gens[0].pres
    right_mults = pres.gens + [pres.constant(r) for r in pres.twisting_scalars]
    res = groebner_left(gens)
    for _ in range(32):
        assert res.complete
        new = [r for g in res.basis for m in right_mults if (r := reduce_full(g * m, res.basis))]
        if not new:
            return res.basis
        res = groebner_left(res.basis + new)
    raise AssertionError("the reference closure did not stabilize in 32 rounds")


def closure_cases(pres, rng, count):
    """count lists of 1-3 generators of 1-3 terms of degree <= 2; a quarter
    repeat their first generator and a quarter add one with its leading monomial."""
    def gen():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            alpha = tuple(rng.randrange(3) for _ in range(pres.n))
            if sum(alpha) <= 2:
                terms[alpha] = pres.domain.parse(str(rng.randrange(1, 4) * rng.choice((1, -1))))
        return pres.poly(terms)

    for _ in range(count):
        gens = [gen() for _ in range(rng.randint(1, 3))]
        kind = rng.randrange(4)
        if kind == 0:
            gens.append(gens[0])
        elif kind == 1:
            gens.append(gens[0] + pres.one)
        if any(gens):
            yield gens


@pytest.mark.parametrize("name", ["qplane4", "qplane9", "qspace3", "weyl1z", "witten", "twisted"])
def test_closure_matches_the_round_based_reference(name):
    from orecodes.gf import GF
    from orecodes.scalars import GFDomain

    if name == "twisted":  # x*r = r^2*x over GF(4): the field generator is a right multiplier too
        A = PBWPresentation(["x"], GFDomain(GF(2, 2)), sigma=[1])
    else:
        A = load_presentation(os.path.join(os.path.dirname(__file__), "..", "presentations", f"{name}.json"))
    for gens in closure_cases(A, random.Random(name), 25):
        assert two_sided_closure(gens) == round_closure(gens), [pbw_str(g) for g in gens]


def test_closure_keeps_generators_with_a_shared_leading_monomial():
    # skipping the right multiples of every element another one's leading
    # monomial divides, earlier ones included, closes these to x*z+1/2 and to z, x^2
    W = load_presentation(os.path.join(os.path.dirname(__file__), "..", "presentations", "weyl1z.json"))
    for gens in ["x*z+1/2,x*z+1/2", "x^2+y*z,2*x^2+z"]:
        assert [pbw_str(g) for g in two_sided_closure([W.parse(t) for t in gens.split(",")])] == ["1"]


def test_in_two_sided_ideal_api():
    A = qplane()
    assert in_two_sided_ideal(A.parse("x*y-x"), [A.parse("y-1")])


# -- text and files -----------------------------------------------------------------------

def test_pbw_str_round_trip():
    A = witten()
    rng = random.Random(2)
    for _ in range(40):
        f = rand_poly(A, rng)
        assert A.parse(pbw_str(f)) == f
    assert pbw_str(A.parse("x*z+y*z-1/2")) == "x*z+y*z-1/2"


def test_gaussian_round_trip():
    A = qspace3()
    f = A.parse("y*z^2+x*z+1/2*i")
    assert pbw_str(f) == "y*z^2+x*z+1/2*i"
    g = A.parse("(3-2*i)*x+1")
    assert A.parse(pbw_str(g)) == g


def test_presentation_json_round_trip(tmp_path):
    A = witten()
    data = presentation_to_dict(A)
    import json

    path = tmp_path / "witten.json"
    path.write_text(json.dumps(data))
    B = load_presentation(str(path))
    assert B.names == A.names
    assert B.relations.keys() == A.relations.keys()
    f = B.parse("x^2*y+x*z+y*z")
    res = divide(f, [B.parse("x-1"), B.parse("y+2"), B.parse("z+3")])
    assert pbw_str(res.remainder) == "x*z+y*z-1/2"


def test_schema_version_checked(tmp_path):
    import json

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99, "vars": ["x"], "field": "Q"}))
    with pytest.raises(DomainError):
        load_presentation(str(path))


# -- malformed presentations: a DomainError that names what is wrong -------------------

GF9_PLANE = {"schema_version": 1, "vars": ["x", "y"], "field": "GF(9)",
             "relations": [{"i": 1, "j": 2, "c": "-1"}]}


@pytest.mark.parametrize("key", ["field", "vars"])
def test_presentation_missing_key(key):
    data = {k: v for k, v in GF9_PLANE.items() if k != key}
    with pytest.raises(DomainError, match=f"has no '{key}' entry"):
        load_presentation(data)


@pytest.mark.parametrize("key", ["i", "j"])
def test_presentation_relation_missing_index(key):
    rel = {k: v for k, v in GF9_PLANE["relations"][0].items() if k != key}
    with pytest.raises(DomainError, match=f"relation has no '{key}' entry"):
        load_presentation(dict(GF9_PLANE, relations=[rel]))


def test_presentation_not_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(DomainError, match="a presentation is a JSON object, not list"):
        load_presentation(str(path))


def test_presentation_unreadable_file(tmp_path):
    with pytest.raises(DomainError, match="cannot read presentation .*missing.json"):
        load_presentation(str(tmp_path / "missing.json"))


def test_presentation_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,')
    with pytest.raises(DomainError, match="cannot read presentation .*broken.json"):
        load_presentation(str(path))


@pytest.mark.parametrize("key", ["sigma", "delta"])
def test_presentation_map_list_length(key):
    with pytest.raises(DomainError, match=f"{key} lists 1 entries for 2 variables"):
        load_presentation(dict(GF9_PLANE, **{key: [1]}))


def test_presentation_integer_delta_spec():
    # x and y commute: with delta_1 != 0, y x = -x y would break (y x) r = y (x r)
    A = load_presentation(dict(GF9_PLANE, relations=[], sigma=[1, 1], delta=[2, None]))
    w = A.domain.field.from_int(2)
    g = A.domain.field.gen
    x, c = A.var(0), A.constant(g)
    assert x * c == A.constant(g ** 3) * x + A.constant(w * (g ** 3 - g))


# -- wrongly typed entries: a DomainError naming the entry, exit 3 in the CLI -----------

# (entry, value, whether the entry belongs to the relation, expected message)
BAD_ENTRIES = [
    ("i", "x", True, r"relation 'i' must be an integer, not \"x\""),
    ("j", 2.0, True, r"relation 'j' must be an integer, not 2\.0"),
    ("i", True, True, r"relation 'i' must be an integer, not true"),
    ("sigma", ["x", None], False, r"'sigma' item must be an integer or null, not \"x\""),
    ("sigma", 1, False, r"'sigma' must be a list or null, not 1"),
    ("delta", [[1], None], False, r"'delta' item must be a string or an integer or null, not \[1\]"),
    ("relations", 5, False, r"'relations' must be a list, not 5"),
    ("relations", [5], False, r"'relations' item must be an object, not 5"),
    ("a", 5, True, r"relation 'a' must be a list, not 5"),
    ("a", [None, "0"], True, r"relation 'a' item must be a string or an integer, not null"),
    ("c", [1], True, r"relation 'c' must be a string or an integer, not \[1\]"),
    ("d", None, True, r"relation 'd' must be a string or an integer, not null"),
    ("field", 9, False, r"'field' must be a string, not 9"),
    ("vars", "xy", False, r"'vars' must be a list, not \"xy\""),
    ("vars", ["x", "x"], False, r"'vars' must list distinct variable names"),
    ("vars", ["x", 1], False, r"'vars' must list distinct variable names"),
    ("vars", ["x", "y+z"], False, r"'vars' must list distinct variable names"),
]
BAD_IDS = [f"{key}={json.dumps(value)}" for key, value, _, _ in BAD_ENTRIES]


def _bad_presentation(key, value, rel):
    data = copy.deepcopy(GF9_PLANE)
    (data["relations"][0] if rel else data)[key] = value
    return data


@pytest.mark.parametrize("key, value, rel, message", BAD_ENTRIES, ids=BAD_IDS)
def test_presentation_wrong_entry_type(key, value, rel, message):
    with pytest.raises(DomainError, match=message):
        load_presentation(_bad_presentation(key, value, rel))


@pytest.mark.parametrize("key, value, rel, message", BAD_ENTRIES, ids=BAD_IDS)
def test_presentation_wrong_entry_type_cli(tmp_path, capsys, key, value, rel, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_bad_presentation(key, value, rel)))
    argv = ["spbw", "mul", "--presentation", str(path), "--a", "x", "--b", "y", "--format", "json"]
    assert main(argv) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == 3 and re.search(message, error["message"])


# -- associativity: the overlap conditions are checked when a presentation is built ------

def test_shipped_presentations_are_associative():
    for name in ["qplane4", "qplane9", "qspace3", "weyl1z", "witten"]:
        load_presentation(os.path.join(os.path.dirname(__file__), "..", "presentations", f"{name}.json"))


def test_non_associative_relations_are_refused():
    # y x = x y + z, z x = 2 x z, z y = y z over Q
    data = {"schema_version": 1, "vars": ["x", "y", "z"], "field": "Q", "relations": [
        {"i": 1, "j": 2, "a": ["0", "0", "1"]}, {"i": 1, "j": 3, "c": "2"}, {"i": 2, "j": 3}]}
    with pytest.raises(DomainError, match=re.escape("(z*y)*x = 2*x*y*z+2*z^2 but z*(y*x) = 2*x*y*z+z^2")):
        load_presentation(data)


def test_relation_incompatible_with_sigma_is_refused():
    # y x = x y + 1 with x r = r^2 x over GF(4): (y*x)*w = w^2*x*y+w but y*(x*w) = w^2*x*y+w^2
    data = {"schema_version": 1, "vars": ["x", "y"], "field": "GF(4)", "sigma": [1, None],
            "relations": [{"i": 1, "j": 2, "d": "1"}]}
    with pytest.raises(DomainError, match=re.escape("(y*x)*g = g^2*x*y+g but y*(x*g) = g^2*x*y+g^2")):
        load_presentation(data)


@pytest.fixture
def capped_groebner(monkeypatch):
    """groebner_left stopped by MAX_GROEBNER_PAIRS = 0 wherever the closure calls it."""
    import orecodes.spbw as spbw

    monkeypatch.setattr(spbw, "MAX_GROEBNER_PAIRS", 0)


def test_two_sided_closure_refuses_a_capped_basis(capped_groebner):
    A = load_presentation(GF9_PLANE)
    with pytest.raises(GuardError, match=r"stopped at its cap \(max_pairs 0\) with a basis of 2 elements"):
        two_sided_closure([A.parse("x^2+y"), A.parse("x*y+1")])


def test_two_sided_closure_refuses_a_basis_past_its_size_cap(monkeypatch):
    import orecodes.spbw as spbw

    monkeypatch.setattr(spbw, "MAX_GROEBNER_BASIS", 2)
    with pytest.raises(GuardError, match=r"stopped at its cap \(max_basis 2\) with a basis of 3 elements"):
        two_sided_closure([witten().parse("z")])


def test_two_sided_closure_capped_basis_exits_4(capped_groebner, tmp_path, capsys):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(GF9_PLANE))
    argv = ["spbw", "closure", "--presentation", str(path), "--gens", "x^2+y,x*y+1", "--format", "json"]
    assert main(argv) == 4
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == 4 and "max_pairs 0" in error["message"]


# -- the rewrite guard: x_i*x^beta recurses once per unit of the earlier exponents -----

@pytest.mark.parametrize("name", ["qplane4", "qplane9", "qspace3", "weyl1z", "witten"])
def test_deepest_rewrite_below_the_cap_runs_and_above_is_refused(name):
    path = os.path.join(os.path.dirname(__file__), "..", "presentations", f"{name}.json")
    for j in range(load_presentation(path).n - 1):
        A = load_presentation(path)  # a fresh cache, so the whole recursion runs
        beta = tuple(MAX_REWRITE_DEGREE - 1 if v == j else 0 for v in range(A.n))
        assert (A.var(j + 1) * A.monomial(beta)).degree == MAX_REWRITE_DEGREE
        beta = tuple(MAX_REWRITE_DEGREE if v == j else 0 for v in range(A.n))
        with pytest.raises(GuardError, match=rf"degree {MAX_REWRITE_DEGREE + 1} exceeds the cap {MAX_REWRITE_DEGREE}"):
            A.var(j + 1) * A.monomial(beta)


def test_deep_products_and_division_steps_are_refused_not_recursion_errors():
    A = load_presentation(os.path.join(os.path.dirname(__file__), "..", "presentations", "qplane9.json"))
    with pytest.raises(GuardError, match=r"degree 1001 exceeds the cap 512"):
        A.var(1) * A.monomial((1000, 0))
    with pytest.raises(GuardError, match=r"degree 1001 exceeds the cap 512"):
        divide(A.monomial((1000, 1)), [A.monomial((1000, 0))])
    assert (A.var(0) * A.monomial((0, 1000))).lm() == (1, 1000)  # no swap, no recursion


@pytest.mark.parametrize("name", ["qplane4", "witten"])
def test_negative_powers_are_refused_like_skew_polynomials(name):
    A = load_presentation(os.path.join(os.path.dirname(__file__), "..", "presentations", f"{name}.json"))
    x = A.var(0)
    assert x ** 0 == A.one and x ** 2 == x * x
    with pytest.raises(DomainError, match="negative power of a polynomial"):
        x ** -1
    with pytest.raises(DomainError, match="negative power of a polynomial"):
        A.one ** -2
