import gc
import itertools
import random
import weakref

import pytest

from orecodes.errors import DomainError, GuardError
from orecodes.gf import GF
from orecodes.scalars import GFDomain, QQ
from orecodes.skewpoly import OreRing, right_eval
from orecodes.spbw import PBWPresentation, reduce_full, two_sided_closure
from orecodes.spbwsets import (
    center_basis,
    ideal_of_points_membership,
    normality_test,
    nullstellensatz_check,
    point_closure,
    point_poly,
    root_test,
    truncated_ideal_of_points,
    vanishing_set,
)


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


def test_normality_refused_outside_qc():
    A = PBWPresentation(
        ["x", "y"], QQ, {(0, 1): (QQ.one, [QQ.zero, QQ.zero], QQ.parse("-1"))}
    )
    with pytest.raises(DomainError):
        normality_test(A.parse("x"))


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


def test_point_closure_cache_lives_on_the_presentation():
    pres = qplane_gf(3, 2, "-1")
    first = point_closure(pres, (0, 0))
    assert point_closure(pres, (0, 0)) is first  # a warm call hits the cache
    other = qplane_gf(3, 2, "-1")
    assert point_closure(other, (0, 0)) is not first  # a new presentation starts cold
    ref = weakref.ref(pres)
    del pres, first
    gc.collect()
    assert ref() is None


def test_multiplier_search_guard_reports_size_and_cap():
    dom = GFDomain(GF(2, 8))
    A = PBWPresentation(["x", "y"], dom, {}, sigma=[1, 0])
    with pytest.raises(GuardError, match=r"\|F\|\^\(n\+1\) = 256\^3 = 16777216 exceeds the cap 65536"):
        normality_test(A.parse("x"))
