"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single "criterion NN PASS/FAIL" line (visible with -s or
in captured output); a FAIL line is always followed by the raising assert.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

from orecodes.gf import GF, basis_over_fixed_subfield
from orecodes.skewpoly import (
    OreRing,
    bound_polynomial,
    conjugacy_classes,
    factor_irreducible,
    gcrd,
    lclm,
    norms_i,
    two_sided_test,
)
from orecodes import algset, codes, evalcodes, linearized, spbwsets
from orecodes.scalars import GFDomain, QQ, QQI, GaussianRational
from orecodes.spbw import PBWPresentation, divide, reduce_full, two_sided_closure


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {num:2d} FAIL  {desc}")
                raise
            print(f"criterion {num:2d} PASS  {desc}")

        return wrapper

    return deco


def R(q, k, l=1, w=None):
    field = GF(q, k)
    return OreRing(field, l, None if w is None else field.element(w))


# -- 1 ------------------------------------------------------------------------

@criterion(1, "GF(4)[x;phi] regression: product, factorizations, divisibility")
def test_criterion_01():
    ring = R(2, 2)
    F = ring.field
    w = F.gen
    assert ring.parse("x^2+w*x+w") * ring.parse("x+w") == ring.parse("x^3+w^2*x+w^2")
    target = ring.parse("x^2+1")
    assert ring.parse("x+1") * ring.parse("x+1") == target
    assert ring.parse("x+w^2") * ring.parse("x+w") == target
    assert ring.parse("x+w") * ring.parse("x+w^2") == target
    assert factor_irreducible(target) == [ring.parse("x+1"), ring.parse("x+1")]
    assert set(algset.vanishing_set(target)) == {F.one, w, w ** 2}
    g = ring.parse("x^3+w^2*x+w^2")
    d = ring.parse("x+w")
    assert d.right_divides(g)
    assert not d.left_divides(g)


# -- 2 ------------------------------------------------------------------------

@criterion(2, "conjugacy census over GF(4), GF(8), GF(9), GF(16)")
def test_criterion_02():
    for q, k in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        field = GF(q, k)
        for l in range(k):
            ring = OreRing(field, l)
            r = math.gcd(l, k) if l else k
            classes = conjugacy_classes(ring)
            zero_cls = next(c for c in classes if field.zero in c)
            assert zero_cls == [field.zero]
            size = (q ** k - 1) // (q ** r - 1)
            for c in classes:
                if c != zero_cls:
                    assert len(c) == size
            assert len(classes) == q ** r
            assert sum(len(c) for c in classes) == q ** k


# -- 3 ------------------------------------------------------------------------

@criterion(3, "degree formula for 1000 random pairs per ring")
def test_criterion_03():
    rng = random.Random(42)
    for q, k in [(2, 2), (2, 3), (3, 2)]:
        ring = R(q, k)
        size = ring.field.size
        done = 0
        while done < 1000:
            g1 = ring.poly([ring.field.element(rng.randrange(size)) for _ in range(rng.randrange(1, 6))])
            g2 = ring.poly([ring.field.element(rng.randrange(size)) for _ in range(rng.randrange(1, 6))])
            if not g1 or not g2:
                continue
            assert gcrd(g1, g2).degree + lclm(g1, g2).degree == g1.degree + g2.degree
            done += 1


# -- 4 ------------------------------------------------------------------------

def _eval_equivalence_exhaustive(ring, max_deg):
    """Fast exhaustive check: division remainder by (x - z) equals the
    norm-sum, for every coefficient vector of degree <= max_deg and every z.

    Runs on raw element indices through the field's index operations; the
    norms N_i(z) come from skewpoly.norms_i."""
    field = ring.field
    add, sub, mul, frob = field.add_i, field.sub_i, field.mul_i, field.frob_i
    size = field.size
    sigma_l, w_idx = ring.sigma.l, (0 if ring.delta.is_zero else ring.delta.w.idx)
    for zidx in range(size):
        # x^e * z expanded as a coefficient vector, e = 0 .. max_deg - 1
        exp_rows = [[zidx]]
        for e in range(1, max_deg):
            row = [0] * (e + 1)
            for j, c in enumerate(exp_rows[-1]):
                if c:
                    sc = frob(c, sigma_l)
                    row[j + 1] = add(row[j + 1], sc)
                    if w_idx:
                        row[j] = add(row[j], mul(w_idx, sub(sc, c)))
            exp_rows.append(row)
        norms = norms_i(ring, zidx, max_deg)
        # c * (x^e * z) and c * N_i(z) for every field element c
        scaled_rows = [[[mul(c, v) for v in row] for c in range(size)] for row in exp_rows]
        scaled_norms = [[mul(c, n) for c in range(size)] for n in norms]
        for gs in itertools.product(range(size), repeat=max_deg + 1):
            # remainder of g by (x - z): top-down elimination
            r = list(gs)
            for m in range(max_deg, 0, -1):
                c = r[m]
                if c:
                    for j, v in enumerate(scaled_rows[m - 1][c]):
                        if v:
                            r[j] = add(r[j], v)
            rem = r[0]
            acc = 0
            for row, gi in zip(scaled_norms, gs):
                v = row[gi]
                if v:
                    acc = add(acc, v)
            assert acc == rem, (gs, zidx)


@criterion(4, "norm-sum equals division-remainder for every deg<=5 poly")
def test_criterion_04():
    for q, k in [(2, 2), (2, 3)]:
        _eval_equivalence_exhaustive(R(q, k, 1), 5)
        _eval_equivalence_exhaustive(R(q, k, 1, w=2), 5)  # inner w = generator


# -- 5 ------------------------------------------------------------------------

@criterion(5, "algebraic-set laws: exhaustive GF(4), sampled GF(16)")
def test_criterion_05():
    ring = R(2, 2)
    F = ring.field
    els = F.elements()
    # V(0) = F = V(lclm of all linears); V(1) = empty; I(empty) = A
    assert algset.vanishing_set(ring.zero) == els
    assert algset.vanishing_set(algset.minimal_polynomial(ring, els)) == els
    assert algset.vanishing_set(ring.one) == []
    assert algset.ideal_of_points(ring, []) == ring.one
    subsets = [list(c) for r in range(5) for c in itertools.combinations(els, r)]
    for X in subsets:
        gen = algset.ideal_of_points(ring, X)
        VIX = algset.vanishing_set(gen)
        assert set(X) <= set(VIX)  # X subset V(I(X))
        assert algset.ideal_of_points(ring, VIX) == gen  # I(V(I(X))) = I(X)
        if X:
            assert algset.rank_of_set(ring, X) == algset.vandermonde(ring, X).rank()
    for X in subsets:
        for Y in ([], [F.one], [F.gen, F.gen ** 2]):
            mx, my = algset.minimal_polynomial(ring, X), algset.minimal_polynomial(ring, Y)
            mxy = algset.minimal_polynomial(ring, X + Y)
            if X and Y:
                assert mxy == lclm(mx, my)
            assert mxy.degree <= mx.degree + my.degree
    # V identities on principal ideals; Ag subset I(V(g)) via the generator
    polys = [ring.parse(s) for s in ["x^2+1", "x+1", "x", "x^2+w*x+w", "x^3+w^2*x+w^2"]]
    for g in polys:
        assert algset.ideal_of_points(ring, algset.vanishing_set(g)).right_divides(g)
    for g1, g2 in itertools.combinations(polys, 2):
        assert set(algset.vanishing_set(gcrd(g1, g2))) == set(algset.vanishing_set(g1)) & set(
            algset.vanishing_set(g2)
        )
        assert set(algset.vanishing_set(g1)) | set(algset.vanishing_set(g2)) <= set(
            algset.vanishing_set(lclm(g1, g2))
        )
    for g in polys:
        assert algset.vanishing_set(algset.ideal_of_points(ring, algset.vanishing_set(g))) == algset.vanishing_set(g)
    # GF(16): 500 sampled instances
    big = R(2, 4)
    rng = random.Random(7)
    for _ in range(500):
        X = rng.sample(big.field.elements(), rng.randrange(0, 5))
        Y = rng.sample(big.field.elements(), rng.randrange(0, 5))
        mX = algset.minimal_polynomial(big, X)
        assert set(X) <= set(algset.vanishing_set(mX))
        if X:
            assert algset.rank_of_set(big, X) == algset.vandermonde(big, sorted(set(X), key=lambda z: z.idx)).rank()
        if X and Y:
            assert algset.minimal_polynomial(big, X + Y) == lclm(mX, algset.minimal_polynomial(big, Y))


# -- 6 ------------------------------------------------------------------------

def _central_monic(ring, degree):
    s = ring.s
    if degree % s:
        return
    fixed = list(ring.sigma.fixed_subfield())
    for tail in itertools.product(fixed, repeat=degree // s):
        coeffs = [ring.field.zero] * (degree + 1)
        for j, c in enumerate(tail):
            coeffs[j * s] = c
        coeffs[degree] = ring.field.one
        yield ring.poly(coeffs)


@criterion(6, "bound polynomial minimality for all monic f, deg<=3, GF(4)")
def test_criterion_06():
    ring = R(2, 2)
    for d in (1, 2, 3):
        for f in ring.all_polys(d):
            fstar = bound_polynomial(f)
            assert two_sided_test(fstar).is_two_sided
            assert f.right_divides(fstar)
            # exhaustive minimality via the two-sided normal form c x^t h
            for dd in range(f.degree, fstar.degree):
                for t in range(dd + 1):
                    for h in _central_monic(ring, dd - t):
                        cand = ring.monomial(t) * h
                        assert not (cand.degree == dd and f.right_divides(cand))


# -- 7 ------------------------------------------------------------------------

@criterion(7, "code duality: GF(4) n=2 and GF(8) n=3, theta vs kernel")
def test_criterion_07():
    for (q, k), n in [((2, 2), 2), ((2, 3), 3)]:
        ring = R(q, k)
        f = ring.monomial(n) - ring.one
        for g in codes.monic_right_divisors(ring, f):
            code = codes.SkewCyclicCode(ring, f, g)
            lin = code.to_linear()
            H = lin.parity_check()
            prod = lin.G * H.transpose()
            assert all(not v for row in prod.rows for v in row)
            assert lin.dim + (n - lin.dim) == n and H.nrows == n - lin.dim
            assert lin.dual().dual().same_code(lin)
            dual = codes.dual_skew_cyclic(code)
            assert dual.to_linear().same_code(lin.dual())


# -- 8 ------------------------------------------------------------------------

@criterion(8, "generating idempotents: GF(4) pipeline and all GF(8) pairs")
def test_criterion_08():
    ring = R(2, 2)
    f2 = ring.monomial(2) - ring.one
    e = codes.bezout_idempotent(ring, ring.parse("x+1"), ring.parse("x+w"), 2)
    assert e == ring.parse("w*x+w")
    assert (e * e).right_divmod(f2)[1] == e
    assert codes.idempotent_to_generator(ring, e, 2) == ring.parse("x+1")

    ring8 = R(2, 3)
    f = ring8.monomial(3) - ring8.one
    divisors = codes.monic_right_divisors(ring8, f)
    pairs = 0
    for g, h in itertools.product(divisors, divisors):
        if g.degree + h.degree != 3 or g.degree in (0, 3):
            continue
        if lclm(g, h) != f:
            continue
        e = codes.bezout_idempotent(ring8, g, h, 3)
        assert (e * e).right_divmod(f)[1] == e
        assert codes.idempotent_to_generator(ring8, e, 3) == g
        pairs += 1
    assert pairs > 0


# -- 9 ------------------------------------------------------------------------

def _sorted_supports(field, r):
    return itertools.combinations_with_replacement(field.elements(), r)


@criterion(9, "MDS/MRD certification with exhaustive distances, r<=4")
def test_criterion_09():
    for q, k in [(2, 2), (2, 3)]:
        ring = R(q, k)
        # remainder codes: every full-Vandermonde-rank support is MDS;
        # supports are deduped by coordinate permutation (both metrics and
        # the certificates are permutation-invariant)
        for r in range(1, 5):
            for Z in _sorted_supports(ring.field, r):
                V = algset.vandermonde(ring, Z)
                rank = V.rank()
                for kk in range(1, rank + 1):
                    code = evalcodes.remainder_code(ring, Z, kk)
                    d = evalcodes.min_distance(code, "hamming")
                    assert d <= r - kk + 1  # Singleton
                    if rank == r:
                        cert = evalcodes.certify(code, "MDS")
                        assert cert.holds
        # operator codes with F^sigma-independent support are MRD
        basis = basis_over_fixed_subfield(ring.sigma)
        maxr = len(basis)
        indep = []
        for r in range(1, maxr + 1):
            for Z in itertools.combinations([z for z in ring.field.elements() if z], r):
                if evalcodes.rank_of_word(ring, Z) == r:
                    indep.append(Z)
        assert indep
        for Z in indep:
            r = len(Z)
            for kk in range(1, r + 1):
                code = evalcodes.operator_code(ring, Z, kk)
                cert = evalcodes.certify(code, "MRD", ring)
                assert cert.holds
                assert cert.distance <= r - kk + 1


# -- 10 -----------------------------------------------------------------------

@criterion(10, "linearized algebra: iso law, Dickson identity, M_k(Z_q) image")
def test_criterion_10():
    ring = R(2, 2)
    F = ring.field
    polys = [ring.poly(list(t)) for t in itertools.product(F.elements(), repeat=4)]
    for a, b in itertools.product(polys, repeat=2):
        assert linearized.to_linearized(a * b) == linearized.to_linearized(a).compose(
            linearized.to_linearized(b)
        )
    for k in (1, 2, 3):
        field = GF(2, k)
        for coeffs in itertools.product(field.elements(), repeat=k):
            assert linearized.dickson_identity_holds(linearized.LinearizedPoly(field, coeffs))
    report = linearized.matrix_algebra_check(GF(2, 2))
    assert report["all_ok"] and report["pairs_checked"] == 256


# -- 11 -----------------------------------------------------------------------

@criterion(11, "PBW division regressions: Witten and quantum space")
def test_criterion_11():
    one, zero = QQ.one, QQ.zero
    witten = PBWPresentation(
        ["x", "y", "z"],
        QQ,
        {
            (0, 1): (Fraction(2), [zero] * 3, zero),
            (0, 2): (one, [Fraction(-1), zero, zero], zero),
            (1, 2): (one, [zero, Fraction(2), zero], zero),
        },
    )
    f = witten.parse("x^2*y+x*z+y*z")
    res = divide(f, [witten.parse("x-1"), witten.parse("y+2"), witten.parse("z+3")])
    assert res.quotients[0] == witten.parse("1/2*x*y+1/4*y")
    assert res.quotients[1] == witten.parse("1/4")
    assert res.quotients[2] == witten.zero
    assert res.remainder == witten.parse("x*z+y*z-1/2")

    i = GaussianRational(0, 1)
    qz = QQI.zero
    qspace = PBWPresentation(
        ["x", "y", "z"],
        QQI,
        {
            (0, 1): (2 * i, [qz] * 3, qz),
            (0, 2): (3 * i, [qz] * 3, qz),
            (1, 2): (-i, [qz] * 3, qz),
        },
    )
    f2 = qspace.parse("x^2*y+y*z^2+x*z")
    F2 = [qspace.parse("x-i"), qspace.parse("y-2*i"), qspace.parse("z-3*i")]
    res2 = divide(f2, F2)
    assert res2.remainder == qspace.parse("y*z^2+x*z+1/2*i")
    assert res2.quotients[1] == qspace.parse("1/4")
    assert res2.quotients[2] == qspace.zero
    # under yx = 2i*xy the cascade cofactor is sign-definite; the flipped
    # variant cannot reconstruct f2 (its leading term cannot cancel x^2*y)
    assert res2.quotients[0] == qspace.parse("-1/2*i*x*y-1/4*i*y")
    flipped_q1 = qspace.parse("1/2*i*x*y-1/4*i*y")
    recon = flipped_q1 * F2[0] + res2.quotients[1] * F2[1] + res2.remainder
    assert recon != f2


# -- 12 -----------------------------------------------------------------------

def _qplane9():
    dom = GFDomain(GF(3, 2))
    return PBWPresentation(["x", "y"], dom, {(0, 1): (dom.parse("-1"), [dom.zero] * 2, dom.zero)})


@criterion(12, "PBW geometry laws over GF(9); Weyl-type unit ideal; semiprimeness")
def test_criterion_12():
    A = _qplane9()
    dom = A.domain
    points = [tuple(p) for p in itertools.product(dom.elements(), repeat=2)]
    assert len(points) == 81
    probe = [A.monomial(a) for a in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]] + [
        A.parse("x^2-1"),
        A.parse("x+y"),
    ]
    # I({Z}) = <Z> and X subset V(I(X)) on every point
    for Z in points:
        for f in probe[:3]:
            assert spbwsets.ideal_of_points_membership(f, [Z]) == spbwsets.root_test(f, Z)
    rng = random.Random(3)
    for _ in range(10):
        X = rng.sample(points, rng.randrange(1, 4))
        Y = rng.sample(points, rng.randrange(1, 4))
        for f in probe:
            in_xy = spbwsets.ideal_of_points_membership(f, X + Y)
            assert in_xy == (
                spbwsets.ideal_of_points_membership(f, X)
                and spbwsets.ideal_of_points_membership(f, Y)
            )
            if spbwsets.ideal_of_points_membership(f, Y) and set(X) <= set(Y):
                assert spbwsets.ideal_of_points_membership(f, X)
    # V(I(V(g))) = V(g) through truncated ideal generators
    for g in (A.parse("x^2-1"), A.parse("y"), A.parse("x*y")):
        Vg = spbwsets.vanishing_set([g])
        gens = spbwsets.truncated_ideal_of_points(A, Vg, 3)
        assert set(spbwsets.vanishing_set(gens)) == set(Vg)
    # V(sum of ideals) = intersection of the V's
    g1, g2 = A.parse("x^2-1"), A.parse("y")
    assert set(spbwsets.vanishing_set([g1, g2])) == set(
        spbwsets.vanishing_set([g1])
    ) & set(spbwsets.vanishing_set([g2]))

    # Weyl-type ring yx = xy - 1 (z central): 1 in A(x-1) + Ay + Az,
    # so (1,0,0) lies in V(A)
    one, zero = QQ.one, QQ.zero
    B = PBWPresentation(
        ["x", "y", "z"],
        QQ,
        {
            (0, 1): (one, [zero] * 3, Fraction(-1)),
            (0, 2): (one, [zero] * 3, zero),
            (1, 2): (one, [zero] * 3, zero),
        },
    )
    from orecodes.spbw import groebner_left, in_left_ideal

    x, y, z = B.gens
    res = groebner_left([B.parse("x-1"), y, z])
    assert res.complete and in_left_ideal(B.one, res.basis)
    # explicit membership certificate for 1 in the two-sided <(1,0,0)>
    assert -(y * (x - B.one)) + (x - B.one) * y == B.one

    # point ideals are completely semiprime: 200 sampled f with f^2 in <Z>
    # must lie in <Z>
    els = dom.elements()
    sample_points = [
        (dom.zero, dom.zero),
        (dom.one, dom.zero),
        (dom.zero, dom.parse("g")),
        (dom.parse("g"), dom.parse("g^2")),
    ]
    confirmed = 0
    rng = random.Random(11)
    for Z in sample_points:
        gens = spbwsets.point_poly(A, Z)
        G2 = two_sided_closure(gens)
        for _ in range(90):
            f = A.zero
            for g in gens:
                p = A.poly({(rng.randrange(2), rng.randrange(2)): rng.choice(els)})
                q = A.poly({(rng.randrange(2), rng.randrange(2)): rng.choice(els)})
                f = f + p * g * q
            if rng.random() < 0.3:
                f = f + A.constant(rng.choice(els))
            if not f:
                continue
            if not reduce_full(f * f, G2):
                assert not reduce_full(f, G2)
                confirmed += 1
    assert confirmed >= 200


# -- 13 -----------------------------------------------------------------------

@criterion(13, "Nullstellensatz consequence over GF(4), GF(9) quantum planes")
def test_criterion_13():
    dom9 = GFDomain(GF(3, 2))
    qp9 = PBWPresentation(["x", "y"], dom9, {(0, 1): (dom9.parse("-1"), [dom9.zero] * 2, dom9.zero)})
    dom4 = GFDomain(GF(2, 2))
    qp4 = PBWPresentation(["x", "y"], dom4, {(0, 1): (dom4.parse("w"), [dom4.zero] * 2, dom4.zero)})

    cases = [
        (qp9, [qp9.parse("x^2-1"), qp9.parse("y")]),
        (qp9, spbwsets.point_poly(qp9, (dom9.one, dom9.zero))),
        (qp4, [qp4.parse("x^3-1"), qp4.parse("y")]),
        (qp4, spbwsets.point_poly(qp4, (dom4.zero, dom4.one))),
    ]
    for pres, gens in cases:
        report = spbwsets.nullstellensatz_check(gens, degree=4, sample_budget=30, seed=13)
        assert report["radical_side"]["holds"]
        assert report["holds"]
        assert report["not_exercised"]  # the report lists unexercised inclusions
        assert any("sqrt" in s for s in report["not_exercised"])
