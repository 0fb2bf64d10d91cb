import itertools
import json
import os
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from orecodes import spbwsets
from orecodes.cli import main
from orecodes.errors import DomainError, GuardError
from orecodes.gf import GF
from orecodes.linalg import Matrix
from orecodes.scalars import GFDomain, QQ
from orecodes.skewpoly import OreRing, right_eval
from orecodes.spbw import (
    PBWPresentation,
    load_presentation,
    pbw_str,
    presentation_to_dict,
    reduce_full,
    two_sided_closure,
)
from orecodes.spbwsets import (
    MAX_NULLSTELLENSATZ_WORK,
    POWER_BOUND,
    center_basis,
    ideal_of_points_membership,
    normality_test,
    nullstellensatz_check,
    point_poly,
    root_test,
    truncated_ideal_of_points,
    vanishing_set,
)

PRESENTATIONS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "presentations")


def qplane_gf(q, k, cspec):
    dom = GFDomain(GF(q, k))
    c = dom.parse(cspec)
    return PBWPresentation(["x", "y"], dom, {(0, 1): (c, [dom.zero] * 2, dom.zero)})


@pytest.fixture(scope="module")
def QP9():
    # quantum plane over GF(9) with q = -1 (order 2 root of unity)
    return qplane_gf(3, 2, "-1")


@pytest.fixture(scope="module")
def QP4():
    # quantum plane over GF(4) with q = w (order 3 root of unity)
    return qplane_gf(2, 2, "w")


def test_root_test_examples(QP9):
    A = QP9
    dom = A.domain
    zero2 = (dom.zero, dom.zero)
    assert root_test(A.parse("x*y"), zero2)  # monomial in <x, y>
    # f = x - z1 + y - z2 always has Z as a root
    for Z in [(dom.one, dom.zero), (dom.zero, dom.parse("g"))]:
        f = point_poly(A, Z)[0] + point_poly(A, Z)[1]
        assert root_test(f, Z)
    assert not root_test(A.one, zero2)


def test_root_test_agrees_with_classical_eval_n1():
    # one commutative variable over GF(4): root_test is classical evaluation
    F = GF(2, 2)
    A = PBWPresentation(["x"], GFDomain(F))
    ring = OreRing(F, 0)  # commutative F[x]
    rng = random.Random(1)
    for _ in range(25):
        coeffs = [F.element(rng.randrange(4)) for _ in range(rng.randrange(1, 5))]
        f = A.poly({(i,): c for i, c in enumerate(coeffs) if c})
        g = ring.poly(coeffs)
        for z in F.elements():
            if not f:
                continue
            assert root_test(f, (z,)) == (not right_eval(g, z))


def test_vanishing_set_of_zero_and_intersection(QP9):
    A = QP9
    pts = vanishing_set([A.zero])
    assert len(pts) == 81
    gens = [A.parse("x^2-1"), A.parse("y")]
    V = set(vanishing_set(gens))
    V1 = set(vanishing_set([gens[0]]))
    V2 = set(vanishing_set([gens[1]]))
    assert V == V1 & V2


def test_vanishing_invariant_under_two_sided_multiples(QP9):
    A = QP9
    rng = random.Random(5)
    g = A.parse("x^2-1")
    for _ in range(5):
        # V(g) subset V(p g q)
        p = A.monomial((rng.randrange(2), rng.randrange(2)))
        q = A.monomial((rng.randrange(2), rng.randrange(2)))
        V = set(vanishing_set([g]))
        Vpgq = set(vanishing_set([p * g * q]))
        assert V <= Vpgq


def test_galois_connection_laws_quantum_plane_gf9(QP9):
    A = QP9
    dom = A.domain
    points = [tuple(p) for p in itertools.product(dom.elements(), repeat=2)]
    # X subset V(I(X)) via membership oracle, on sampled subsets
    rng = random.Random(2)
    polys_deg2 = [A.monomial(a) for a in [(1, 0), (0, 1), (2, 0), (1, 1)]]
    for _ in range(6):
        X = rng.sample(points, rng.randrange(1, 4))
        # every f vanishing on X vanishes on each Z in X (tautological) and
        # I(X) is monotone: I(Y) subset I(X) for X subset Y
        Y = X + rng.sample(points, 2)
        for f in polys_deg2:
            if ideal_of_points_membership(f, Y):
                assert ideal_of_points_membership(f, X)
    # I({Z}) = <Z>: membership agrees with root_test
    for Z in rng.sample(points, 6):
        for f in polys_deg2:
            assert ideal_of_points_membership(f, [Z]) == root_test(f, Z)
    # I(X u Y) = I(X) n I(Y) on samples
    for _ in range(4):
        X = rng.sample(points, 2)
        Y = rng.sample(points, 2)
        for f in polys_deg2:
            assert ideal_of_points_membership(f, X + Y) == (
                ideal_of_points_membership(f, X) and ideal_of_points_membership(f, Y)
            )


def test_v_i_v_g_equals_v_g(QP9):
    A = QP9
    g = A.parse("x^2-1")
    Vg = vanishing_set([g])
    gens = truncated_ideal_of_points(A, Vg, 3)
    ViVg = vanishing_set(gens) if gens else vanishing_set([A.zero])
    assert set(ViVg) == set(Vg)


def test_truncated_ideal_of_points(QP9):
    A = QP9
    dom = A.domain
    X = [(dom.one, dom.zero)]
    gens = truncated_ideal_of_points(A, X, 2)
    assert gens
    for f in gens:
        assert ideal_of_points_membership(f, X)
    # empty set: everything is a member
    assert ideal_of_points_membership(A.one, [])


def test_semiprimeness_sampled(QP9):
    A = QP9
    dom = A.domain
    rng = random.Random(11)
    els = dom.elements()
    points = [
        (dom.zero, dom.zero),
        (dom.one, dom.zero),
        (dom.zero, dom.parse("g")),
        (dom.parse("g"), dom.one),  # collapsed point: <Z> = A
    ]
    checked = 0
    for Z in points:
        gens = point_poly(A, Z)
        G2 = two_sided_closure(gens)
        for _ in range(90):
            f = A.zero
            for g in gens:
                p = A.poly(
                    {
                        (rng.randrange(2), rng.randrange(2)): rng.choice(els)
                        for _ in range(2)
                    }
                )
                q = A.poly(
                    {
                        (rng.randrange(2), rng.randrange(2)): rng.choice(els)
                        for _ in range(2)
                    }
                )
                f = f + p * g * q
            if rng.random() < 0.4:
                f = f + A.constant(rng.choice(els))
            if not f:
                continue
            f2_in = not reduce_full(f * f, G2)
            f_in = not reduce_full(f, G2)
            assert f2_in == f_in
            if f2_in:
                checked += 1
    assert checked >= 200


def test_normality_examples(QP9, QP4):
    # x^m is normal (central) at a primitive m-th root of unity
    res = normality_test(QP9.parse("x^2"))
    assert res.is_normal
    res4 = normality_test(QP4.parse("x^3"))
    assert res4.is_normal
    # any central element is normal
    assert normality_test(QP9.parse("x^2*y^2+1")).is_normal
    # x itself is normal in the quantum plane
    res_x = normality_test(QP9.parse("x"))
    assert res_x.is_normal
    for i, u in enumerate(res_x.left_movers):
        assert QP9.parse("x") * u == QP9.var(i) * QP9.parse("x")
    # x + y is not normal for q != 1
    assert not normality_test(QP9.parse("x+y")).is_normal


def test_normality_with_coefficient_twisting():
    # one-variable ring with x*r = r^2*x over GF(4): x^2+1 is central hence
    # normal; x+1 is not ((x+1)w = w^2 x + w has no left multiplier)
    from orecodes.gf import GF

    A = PBWPresentation(["x"], GFDomain(GF(2, 2)), sigma=[1])
    res = normality_test(A.parse("x^2+1"))
    assert res.is_normal
    assert res.scalar_movers  # field generator movers were exhibited
    r, w, wp = res.scalar_movers[0]
    assert A.constant(r) * A.parse("x^2+1") == A.parse("x^2+1") * A.constant(w)
    assert A.parse("x^2+1") * A.constant(r) == A.constant(wp) * A.parse("x^2+1")
    assert not normality_test(A.parse("x+1")).is_normal


def test_normality_on_witten():
    # y x = 2 x y, z x = x (z - 1) and z y = y (z + 2): x is normal, z is not
    A = load_presentation(os.path.join(PRESENTATIONS, "witten.json"))
    res = normality_test(A.parse("x"))
    assert res.is_normal and res.scalar_movers == []
    assert [pbw_str(u) for u in res.left_movers] == ["x", "2*y", "z-1"]
    assert [pbw_str(v) for v in res.right_movers] == ["x", "1/2*y", "z+1"]
    assert not normality_test(A.parse("z")).is_normal


def test_centers_of_witten_and_weyl1z():
    # weyl1z is the first Weyl algebra over Q with a central z: its center is Q[z]
    weyl = load_presentation(os.path.join(PRESENTATIONS, "weyl1z.json"))
    assert [pbw_str(m) for m in center_basis(weyl, 6)] == ["1"] + ["z"] + [f"z^{e}" for e in range(2, 7)]
    witten = load_presentation(os.path.join(PRESENTATIONS, "witten.json"))
    assert [pbw_str(m) for m in center_basis(witten, 6)] == ["1"]


def test_center_basis_quantum_planes(QP9, QP4):
    names9 = [str(m) for m in center_basis(QP9, 2)]
    assert names9 == ["1", "y^2", "x^2"] or set(names9) == {"1", "x^2", "y^2"}
    # commutative polynomial ring: every monomial is central
    A = PBWPresentation(["x", "y"], QQ)
    assert len(center_basis(A, 2)) == 6
    # GF(4), q = w of order 3: central generators appear at degree 3
    names4 = {str(m) for m in center_basis(QP4, 3)}
    assert "x^3" in names4 and "y^3" in names4 and "x^2" not in names4


def test_nullstellensatz_point_ideal(QP9):
    A = QP9
    dom = A.domain
    gens = point_poly(A, (dom.one, dom.zero))
    report = nullstellensatz_check(gens, degree=4, sample_budget=20, seed=3)
    assert report["holds"]
    assert report["radical_side"]["holds"]
    assert report["not_exercised"]


def test_nullstellensatz_spec_ideal(QP9):
    A = QP9
    gens = [A.parse("x^2-1"), A.parse("y")]
    report = nullstellensatz_check(gens, degree=4, sample_budget=20, seed=7)
    assert report["holds"]
    assert report["center_side"]["holds"]
    assert report["center_side"]["center_generators"] == ["x^2", "y^2"]


def test_nullstellensatz_reduces_each_distinct_candidate_once(QP9, monkeypatch):
    # at degree 0 the candidates are the scalars, at most 9 distinct among 2000
    # draws; the report still counts draws
    calls = []

    def counting(f, divisors):
        calls.append(f)
        return reduce_full(f, divisors)

    monkeypatch.setattr(spbwsets, "reduce_full", counting)
    report = nullstellensatz_check([QP9.parse("x^2-1"), QP9.parse("y")], degree=0, sample_budget=2000, seed=0)
    assert report["radical_side"]["candidates"] > 1500
    assert len(calls) <= 9 * POWER_BOUND + 1  # and the one central monomial of the center side


def test_negative_degree_and_sample_budget_are_refused(QP9):
    gens = [QP9.parse("x^2-1"), QP9.parse("y")]
    with pytest.raises(DomainError, match="center degree -3 is negative"):
        center_basis(QP9, -3)
    with pytest.raises(DomainError, match="Nullstellensatz degree -2 is negative"):
        nullstellensatz_check(gens, degree=-2)
    with pytest.raises(DomainError, match="Nullstellensatz sample budget -5 is negative"):
        nullstellensatz_check(gens, sample_budget=-5)
    over = MAX_NULLSTELLENSATZ_WORK + 1
    with pytest.raises(GuardError, match=rf"work {over} samples x max\(degree 0, 1\)\^2 = {over} exceeds the cap "
                                         rf"{MAX_NULLSTELLENSATZ_WORK}$"):
        nullstellensatz_check(gens, degree=0, sample_budget=over)
    assert center_basis(QP9, 0) == [QP9.one]


@pytest.mark.parametrize("degree, sample_budget", [
    (10, 800),  # the largest pair the separate degree and sample caps admitted, on the budget
    (16, 50),  # past the old degree cap, cheap: 12,800 of the budget
])
def test_nullstellensatz_work_budget_answers_cheap_pairs(QP4, degree, sample_budget):
    assert sample_budget * degree ** 2 <= MAX_NULLSTELLENSATZ_WORK
    report = nullstellensatz_check([QP4.parse("x^3-1"), QP4.parse("y")], degree, sample_budget, seed=5)
    assert report["holds"] is True


# generators and candidate points of each presentation: qplane9 admits 17
# points, witten the line (0, 0, c) only
POINT_CASES = {
    "qplane9": (["x^2-1", "y", "x*y+x"], [("0", "0"), ("1", "0"), ("-1", "0"), ("1", "g"), ("0", "g")]),
    "witten": (["x", "z^2-z", "x*y+z"], [("0", "0", "1"), ("0", "0", "0"), ("1", "0", "0"), ("0", "1", "2"),
                                        ("1/2", "0", "1")]),
}


def _point_answers(name):
    """Every point decision spbwsets makes, on a freshly loaded presentation,
    as plain strings and flags."""
    A = load_presentation(os.path.join(PRESENTATIONS, f"{name}.json"))
    specs, points = POINT_CASES[name]
    gens = [A.parse(s) for s in specs]
    answers = {
        "roots": [[root_test(g, Z) for Z in points] for g in gens],
        "variety": [tuple(map(str, Z)) for Z in vanishing_set(gens, points)],
        "members": [ideal_of_points_membership(g, points[:k]) for g in gens for k in range(len(points) + 1)],
        "truncated": [pbw_str(f) for f in truncated_ideal_of_points(A, points, 2)],
    }
    if A.domain.is_finite:
        answers["full_variety"] = [tuple(map(str, Z)) for Z in vanishing_set(gens)]
        answers["nullstellensatz"] = nullstellensatz_check(gens[:2])
    return answers


@pytest.mark.parametrize("name", sorted(POINT_CASES))
def test_point_decisions_build_no_point_ideal(name, monkeypatch):
    # a point is decided by admissibility and evaluation alone: no oracle
    # builds the generators x_i - z_i of <Z>
    expected = _point_answers(name)

    def refuse(pres, Z):
        raise AssertionError(f"a point decision built <{Z}>")

    monkeypatch.setattr(spbwsets, "point_poly", refuse)
    assert _point_answers(name) == expected


def test_each_point_is_checked_for_admissibility_once(monkeypatch):
    # the Nullstellensatz report and the truncated ideal of points decide a
    # point's admissibility once, not again for every candidate or kernel row
    calls = Counter()
    admissible = spbwsets.admissible

    def counting(pres, Z):
        calls[id(pres), tuple(Z)] += 1
        return admissible(pres, Z)

    monkeypatch.setattr(spbwsets, "admissible", counting)
    A = load_presentation(os.path.join(PRESENTATIONS, "qplane9.json"))
    report = nullstellensatz_check([A.parse("x^2-1"), A.parse("y")])
    assert report["radical_side"]["nilpotent_mod_I"] > 1 and report["center_side"]["generators_checked"] > 1
    # the 81 points of GF(9)^2, once on A and once on its center F[w]
    assert len(calls) == 2 * 81 and set(calls.values()) == {1}
    calls.clear()
    points = POINT_CASES["qplane9"][1]
    assert len(truncated_ideal_of_points(A, points, 3)) > 1
    assert len(calls) == len(points) and set(calls.values()) == {1}


# GF(4096)^3 has 68,719,476,736 points; an explicit candidate list stays uncapped
BIG = {"schema_version": 1, "vars": ["x", "y", "z"], "field": "GF(4096)", "relations": []}
BIG_REFUSAL = "point enumeration |F|^n = 4096^3 = 68719476736 exceeds the cap 65536"


def test_point_enumeration_past_the_cap_is_refused(monkeypatch):
    A = PBWPresentation(BIG["vars"], GFDomain(GF(2, 12)))
    gens = [A.parse("x")]
    with pytest.raises(GuardError, match=re.escape(BIG_REFUSAL)):
        vanishing_set(gens)

    def refuse(*args):
        raise AssertionError("the closure was built before the point enumeration was refused")

    monkeypatch.setattr(spbwsets, "two_sided_closure", refuse)
    with pytest.raises(GuardError, match=re.escape(BIG_REFUSAL)):
        nullstellensatz_check(gens, degree=0, sample_budget=0)
    assert vanishing_set(gens, [("0", "1", "g"), ("1", "1", "1")]) == [("0", "1", "g")]


def test_point_enumeration_past_the_cap_exits_4(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG))
    for op in (["variety", "--domain", "full"], ["nullstellensatz"]):
        argv = ["spbwsets", *op, "--presentation", str(path), "--gens", "x", "--format", "json"]
        assert main(argv) == 4
        assert json.loads(capsys.readouterr().out) == {"error": {"code": 4, "message": BIG_REFUSAL}}
    argv = ["spbwsets", "variety", "--domain", "0,1,g;1,1,1", "--presentation", str(path), "--gens", "x"]
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"result": {"points": [["0", "1", "g"]]}}


def test_twisted_gf256_normality_is_exact(tmp_path, capsys):
    # x*r = r^2*x over GF(2^8), y central: 2^24 degree-one candidates per mover,
    # solved as one linear system over F_2
    A = PBWPresentation(["x", "y"], GFDomain(GF(2, 8)), {}, sigma=[1, 0])
    res = normality_test(A.parse("w*x"))
    assert res.is_normal
    assert [pbw_str(u) for u in res.left_movers] == ["g^128*x", "y"]
    assert [pbw_str(v) for v in res.right_movers] == ["g^254*x", "y"]
    assert [tuple(str(v) for v in m) for m in res.scalar_movers] == [("g", "g^128", "g^2")]
    assert not normality_test(A.parse("x^2+y")).is_normal
    path = tmp_path / "twisted256.json"
    path.write_text(json.dumps(presentation_to_dict(A)))
    assert main(["spbwsets", "normal", "--presentation", str(path), "--f", "w*x", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "result": {"left_movers": ["g^128*x", "y"], "normal": True, "right_movers": ["g^254*x", "y"]}
    }


def brute_mover(f, target, side):
    """The degree-<=1 u with f*u = target ("right") or u*f = target ("left"),
    searched over all of F^(n+1)."""
    A = f.pres
    for combo in itertools.product(A.domain.elements(), repeat=A.n + 1):
        u = A.combination(combo, [A.one] + A.gens)
        if (f * u if side == "right" else u * f) == target:
            return u
    return None


def brute_scalar_mover(f, target, side):
    """The scalar w with f*w = target ("right") or w*f = target ("left")."""
    A = f.pres
    for w in A.domain.elements():
        if (f * A.constant(w) if side == "right" else A.constant(w) * f) == target:
            return w
    return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    qk=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    n=st.integers(1, 2),
    data=st.data(),
)
def test_movers_equal_a_brute_force_search_on_twisted_fields(qk, n, data):
    F = GF(*qk)
    dom = GFDomain(F)
    sigma = data.draw(st.lists(st.integers(0, F.k - 1), min_size=n, max_size=n).filter(any))
    rels = {}
    if n == 2:
        c = F.element(data.draw(st.integers(1, F.size - 1)))
        rels = {(0, 1): (c, [dom.zero] * 2, dom.zero)}
    A = PBWPresentation(["x", "y"][:n], dom, rels, sigma=sigma)
    exps = st.tuples(*[st.integers(0, 3)] * n)
    terms = data.draw(st.dictionaries(exps, st.integers(1, F.size - 1), min_size=1, max_size=3))
    f = A.poly({alpha: F.element(c) for alpha, c in terms.items()})
    res = normality_test(f)
    left = [brute_mover(f, x * f, "right") for x in A.gens]
    right = [brute_mover(f, f * x, "left") for x in A.gens]
    r = F.gen
    scalar = (r, brute_scalar_mover(f, A.constant(r) * f, "right"), brute_scalar_mover(f, f * A.constant(r), "left"))
    assert res.is_normal == (None not in left + right + list(scalar))
    if res.is_normal:
        assert res.left_movers == left and res.right_movers == right
        assert res.scalar_movers == [scalar]


def test_nullstellensatz_candidates_are_central_under_twisting(monkeypatch):
    # y x = w x y with x*r = r^2*x over GF(4): a central monomial times a scalar
    # outside the fixed subfield GF(2) does not commute with x
    dom = GFDomain(GF(2, 2))
    A = PBWPresentation(["x", "y"], dom, {(0, 1): (dom.parse("w"), [dom.zero] * 2, dom.zero)}, sigma=[1, None])
    drawn = []
    real = A.combination
    monkeypatch.setattr(A, "combination", lambda coeffs, polys: drawn.append(real(coeffs, polys)) or drawn[-1])
    report = nullstellensatz_check([A.parse("x^2+1")], degree=4)
    tests = A.gens + [A.constant(dom.field.gen)]
    assert drawn and all(t * f == f * t for f in drawn for t in tests)
    assert report["center_side"]["holds"] is None
    assert report["exercised"] == ["central f with f^m in I implies f in I(V(I))"]


@pytest.mark.parametrize("gen, nilpotent", [("x+1", True), ("y", False)])
def test_nullstellensatz_under_a_derivation(gen, nilpotent):
    # GF(4) with x r = r^2 x + w (r^2 - r) and y x = x y + x + w: the radical
    # side runs, the center side is not read from central monomials
    A = load_presentation({"schema_version": 1, "vars": ["x", "y"], "field": "GF(4)", "sigma": [1, None],
                           "delta": ["w", None], "relations": [{"i": 1, "j": 2, "a": ["1", "0"], "d": "w"}]})
    report = nullstellensatz_check([A.parse(gen)], degree=4, sample_budget=10, seed=1)
    radical = report["radical_side"]
    assert radical["holds"] and radical["candidates"] > 1
    assert radical["nilpotent_mod_I"] == radical["landed_in_I_of_V"] == (radical["candidates"] if nilpotent else 0)
    assert report["center_side"] == {"holds": None, "note": (
        "the center is spanned by central monomials only for quasi-commutative "
        "presentations with trivial coefficient maps")}


def test_nullstellensatz_center_side_with_a_mixed_central_monomial():
    # three pairwise anticommuting variables over GF(3): x^2, y^2, z^2 are central, and so is x*y*z,
    # which is no monomial in them, so the center is not F[x^2, y^2, z^2] at degree 3
    dom = GFDomain(GF(3))
    zero = [dom.zero] * 3
    A = PBWPresentation(["x", "y", "z"], dom, {pair: (dom.parse("2"), zero, dom.zero)
                                               for pair in ((0, 1), (0, 2), (1, 2))})
    assert (1, 1, 1) in {next(iter(m.terms)) for m in center_basis(A, 3)}
    report = nullstellensatz_check([A.parse("x^2-1")], degree=3)
    assert report["center_side"] == {"holds": None,
                                     "note": "center is not the expected polynomial ring at this degree"}


def reference_nullstellensatz(gens, degree, sample_budget, seed):
    """The report built the direct way: each candidate's powers f^m formed
    explicitly and tested for membership in I, and I_Z(A)(V_Z(A)(J)) as the
    kernel of the evaluation matrix of the w-monomials at the w-points."""
    A = gens[0].pres
    dom = A.domain
    G2 = two_sided_closure(gens)
    variety = vanishing_set(gens)
    rng = random.Random(seed)
    cmonos = center_basis(A, degree)
    candidates = list(cmonos)
    for _ in range(sample_budget):
        f = A.combination([rng.choice(dom.elements()) for _ in cmonos], cmonos)
        if f:
            candidates.append(f)
    nilpotent = [f for f in candidates if any(not reduce_full(f ** m, G2) for m in range(1, POWER_BOUND + 1))]
    landed = [f for f in nilpotent if all(root_test(f, Z) for Z in variety)]
    report = {
        "variety_size": len(variety),
        "exercised": ["central f with f^m in I implies f in I(V(I))"],
        "not_exercised": [
            "sqrt(I) itself (no noncommutative radical algorithm is computed)",
            "equality of the inclusions (needs an algebraically closed field)",
        ],
        "radical_side": {"candidates": len(candidates), "nilpotent_mod_I": len(nilpotent),
                         "landed_in_I_of_V": len(landed), "holds": len(nilpotent) == len(landed)},
    }
    alphas = [next(iter(m.terms)) for m in cmonos]
    L = [next((e for e in range(1, degree + 1) if tuple(e * (v == i) for v in range(A.n)) in alphas), None)
         for i in range(A.n)]
    if None in L:
        name = A.names[L.index(None)]
        center = {"holds": None, "note": f"no central power of {name} up to degree {degree}"}
    elif any(a % l for alpha in alphas for a, l in zip(alpha, L)):
        center = {"holds": None, "note": "center is not the expected polynomial ring at this degree"}
    else:
        support = sorted({m for f in cmonos for m in reduce_full(f, G2).terms})
        nf = Matrix([[reduce_full(f, G2).terms.get(m, dom.zero) for f in cmonos] for m in support],
                    len(cmonos), dom.zero, dom.one)
        J = [dict(zip(alphas, row)) for row in nf.kernel().rows]

        def w_value(terms, w):
            value = dom.zero
            for alpha, c in terms.items():
                for a, l, z in zip(alpha, L, w):
                    c = c * z ** (a // l) if a else c
                value = value + c
            return value

        wpoints = [w for w in itertools.product(dom.elements(), repeat=A.n)
                   if not any(w_value(terms, w) for terms in J)]
        wdeg = max(degree // max(L), 1)
        wmonos = [a for a in itertools.product(range(wdeg + 1), repeat=A.n) if sum(a) <= wdeg]
        rows = [[w_value({tuple(e * l for e, l in zip(a, L)): dom.one}, w) for a in wmonos] for w in wpoints]
        basis = (Matrix(rows, len(wmonos), dom.zero, dom.one).kernel().rows if rows
                 else [[dom.one * (i == j) for i in range(len(wmonos))] for j in range(len(wmonos))])
        generators = [A.combination(coeffs, [A.monomial(tuple(e * l for e, l in zip(a, L))) for a in wmonos])
                      for coeffs in basis]
        center = {
            "holds": all(root_test(g, Z) for g in generators for Z in variety),
            "J_basis_size": len(J),
            "center_variety_size": len(wpoints),
            "generators_checked": len(generators),
            "center_generators": [f"{n}^{l}" for n, l in zip(A.names, L)],
        }
        report["exercised"].append("generators of <I_Z(A)(V_Z(A)(I n Z(A)))> lie in I(V(I))")
    report["center_side"] = center
    report["holds"] = report["radical_side"]["holds"] and center["holds"]
    return report


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(["qplane4", "qplane9"]),
    data=st.data(),
    degree=st.integers(2, 4),
    sample_budget=st.integers(0, 12),
    seed=st.integers(0, 1000),
)
def test_nullstellensatz_report_equals_the_direct_reference(name, data, degree, sample_budget, seed):
    A = load_presentation(os.path.join(PRESENTATIONS, f"{name}.json"))
    size = A.domain.field.size
    terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(1, size - 1),
                            min_size=1, max_size=3)
    gens = [A.poly({alpha: A.domain.field.element(c) for alpha, c in t.items()})
            for t in data.draw(st.lists(terms, min_size=1, max_size=2))]
    assert nullstellensatz_check(gens, degree, sample_budget, seed) == reference_nullstellensatz(
        gens, degree, sample_budget, seed)
