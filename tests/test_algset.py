"""Single-variable algebraic sets: worked examples, the Galois-connection laws,
and vanishing sets and minimal polynomials against the references kept here,
the enumeration of the field and the lclm fold over the linear factors."""

import itertools
import math
import random

import pytest

from orecodes import algset
from orecodes.errors import VerificationError
from orecodes.gf import GF
from orecodes.skewpoly import OreRing, conjugacy_classes, gcrd, lclm, lclm_list, right_eval
from orecodes.algset import (
    ideal_of_points,
    is_w_polynomial,
    minimal_polynomial,
    rank_of_set,
    vandermonde,
    vanishing_set,
    wronskian,
)


@pytest.fixture(scope="module")
def R4():
    return OreRing(GF(2, 2), 1)


def all_subsets(field):
    els = field.elements()
    for r in range(len(els) + 1):
        for comb in itertools.combinations(els, r):
            yield list(comb)


def test_vanishing_set_examples(R4):
    F = R4.field
    w = F.gen
    assert vanishing_set(R4.parse("x^2+1")) == sorted([F.one, w, w ** 2], key=lambda z: z.idx)
    assert vanishing_set(R4.zero) == F.elements()
    assert vanishing_set(R4.one) == []
    for z in F.elements():
        assert vanishing_set(R4.linear(z)) == [z]


def test_minimal_polynomial_examples(R4):
    F = R4.field
    w = F.gen
    assert minimal_polynomial(R4, [F.one, w]) == R4.parse("x^2+1")
    assert minimal_polynomial(R4, []) == R4.one
    assert minimal_polynomial(R4, [F.one, w, w ** 2]) == R4.parse("x^2+1")
    # brute-force minimality: no monic of lower degree vanishes on {1, w}
    for d in (R4.linear(z) for z in F.elements()):
        assert right_eval(d, F.one) or right_eval(d, w)


def test_rank_examples(R4):
    F = R4.field
    w = F.gen
    assert rank_of_set(R4, [F.one, w, w ** 2]) == 2
    assert vandermonde(R4, [F.one, w, w ** 2]).rank() == 2
    assert rank_of_set(R4, [w]) == 1


def test_rank_subadditive(R4):
    rng = random.Random(1)
    els = R4.field.elements()
    for _ in range(50):
        X = rng.sample(els, rng.randrange(len(els) + 1))
        Y = rng.sample(els, rng.randrange(len(els) + 1))
        assert rank_of_set(R4, X + Y) <= rank_of_set(R4, X) + rank_of_set(R4, Y)


def test_vandermonde_wronskian_shapes(R4):
    F = R4.field
    w = F.gen
    V = vandermonde(R4, [F.one, w])
    assert V.rows == [[F.one, F.one], [F.one, w]]
    assert V.rank() == 2
    assert vandermonde(R4, [w]).rows == [[F.one]]
    W = wronskian(R4, [F.one, w])
    assert W.rows == [[F.one, w], [F.one, w ** 2]]
    assert W.is_invertible()


def test_w_polynomial_examples(R4):
    F = R4.field
    assert is_w_polynomial(R4.parse("x^2+1"))
    for z in F.elements():
        assert is_w_polynomial(R4.linear(z))
    assert not is_w_polynomial(R4.monomial(2))  # V(x^2) = {0}, m_{0} = x


def test_ideal_of_points(R4):
    F = R4.field
    w = F.gen
    l = ideal_of_points(R4, [F.one, w])
    assert l == R4.parse("x^2+1")
    assert ideal_of_points(R4, []) == R4.one
    assert is_w_polynomial(l)


@pytest.mark.parametrize("qk,l,widx", [((2, 2), 1, 0), ((2, 3), 1, 0), ((3, 2), 1, 0), ((2, 2), 1, 2)])
def test_galois_connection_laws_exhaustive(qk, l, widx):
    F = GF(*qk)
    ring = OreRing(F, l, F.element(widx))
    els = F.elements()
    # X subset V(I(X)) and I(V(I(X))) = I(X), I(X u Y) = lclm identity
    for X in all_subsets(F):
        gen = ideal_of_points(ring, X)
        VIX = vanishing_set(gen)
        assert set(X) <= set(VIX)
        assert ideal_of_points(ring, VIX) == gen
    rng = random.Random(0)
    for _ in range(30):
        X = rng.sample(els, rng.randrange(len(els) + 1))
        Y = rng.sample(els, rng.randrange(len(els) + 1))
        mx = minimal_polynomial(ring, X)
        my = minimal_polynomial(ring, Y)
        assert minimal_polynomial(ring, X + Y) == lclm(mx, my)
        assert ideal_of_points(ring, X + Y) == lclm(mx, my)  # I(X u Y) = I(X) n I(Y)


def test_v_of_ideal_laws(R4):
    rng = random.Random(4)
    polys = [p for p in (R4.parse(s) for s in ["x^2+1", "x+1", "x^2+w*x+w", "x^3+w^2*x+w^2", "x"])]
    for g in polys:
        # Ag subset I(V(g)): the generator of I(V(g)) right-divides g
        assert ideal_of_points(R4, vanishing_set(g)).right_divides(g)
        # V(I(V(g))) = V(g)
        assert vanishing_set(ideal_of_points(R4, vanishing_set(g))) == vanishing_set(g)
    for g1, g2 in itertools.combinations(polys, 2):
        # V(Ag1 + Ag2) = V(gcrd) = V(g1) n V(g2)
        lhs = set(vanishing_set(gcrd(g1, g2)))
        assert lhs == set(vanishing_set(g1)) & set(vanishing_set(g2))
        # V(g1) u V(g2) subset V(lclm) = V(Ag1 n Ag2)
        assert set(vanishing_set(g1)) | set(vanishing_set(g2)) <= set(vanishing_set(lclm(g1, g2)))


def test_rank_equals_vandermonde_rank_exhaustive():
    """rank_of_set is deg m_X; the Vandermonde rank is its reference."""
    for qk in [(2, 2), (2, 3), (3, 2)]:
        F = GF(*qk)
        for ring in (OreRing(F, 1), OreRing(F, 1, F.gen)):
            for X in all_subsets(F):
                if X:
                    assert rank_of_set(ring, X) == vandermonde(ring, X).rank()


def test_full_field_minimal_polynomial(R4):
    # V(l) = F for l = lclm(x - z | z in F)
    l = minimal_polynomial(R4, R4.field.elements())
    assert vanishing_set(l) == R4.field.elements()


# -- the structural vanishing set and minimal polynomial against the references ------

def enumerated_vanishing_set(g):
    """V(g) by testing every field element: z is a root iff x - z right-divides g."""
    ring = g.ring
    if not g:
        return ring.field.elements()
    return [z for z in ring.field.elements() if ring.linear(z).right_divides(g)]


def lclm_minimal_polynomial(ring, points):
    """m_X as the lclm fold over the linear factors x - z, in index order."""
    pts = sorted(set(points), key=lambda z: z.idx)
    return lclm_list(ring.linear(z) for z in pts) if pts else ring.one


FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 6), (2, 8)]


def rings_of(q, k):
    """F[x; phi^l] for every l, and F[x; phi^l, delta_w] with w the primitive
    element wherever phi^l is not the identity."""
    F = GF(q, k)
    return [OreRing(F, l, w) for l in range(k) for w in ((None, F.gen) if l else (None,))]


def random_poly(rng, ring, degree):
    F = ring.field
    tail = [F.element(rng.randrange(F.size)) for _ in range(degree)]
    return ring.poly(tail + [F.element(rng.randrange(1, F.size))])


@pytest.mark.parametrize("q,k", FIELDS, ids=lambda v: str(v))
def test_vanishing_set_matches_enumeration(q, k):
    rng = random.Random(f"vanish/{q}^{k}")
    for ring in rings_of(q, k):
        F = ring.field
        els = F.elements()
        cases = [ring.zero, ring.one, ring.poly([F.gen]), random_poly(rng, ring, 1) * ring.x]
        cases.append(ring.poly([F.zero]) + ring.x * random_poly(rng, ring, 2))  # g_0 = 0
        for _ in range(5):
            X = rng.sample(els, rng.randrange(1, 5))
            g = random_poly(rng, ring, rng.randrange(3)) * lclm_minimal_polynomial(ring, X)
            V = vanishing_set(g)
            assert set(X) <= set(V), (ring, g)  # planted roots
            cases.append(g)
        cases += [random_poly(rng, ring, d) for d in range(1, 5)]
        for g in cases:
            assert vanishing_set(g) == enumerated_vanishing_set(g), (ring, g)


@pytest.mark.parametrize("q,k", FIELDS, ids=lambda v: str(v))
def test_minimal_polynomial_matches_lclm_fold(q, k):
    rng = random.Random(f"minpoly/{q}^{k}")
    for ring in rings_of(q, k):
        els = ring.field.elements()
        cases = [[], [rng.choice(els)]]
        for _ in range(4):
            X = rng.sample(els, rng.randrange(1, min(len(els), 9)))
            cases.append(X)
            cases.append(X + X[:2])  # repeated points
            # points already in V(m_X), listed before and after X
            extra = rng.sample(vanishing_set(lclm_minimal_polynomial(ring, X)), 2 if len(X) > 1 else 1)
            cases += [extra + X, X + extra]
        for X in cases:
            m = minimal_polynomial(ring, X)
            assert m == lclm_minimal_polynomial(ring, X), (ring, X)
            assert m.is_monic and m.degree <= len(set(X))


@pytest.mark.parametrize("q,k", FIELDS[:-1], ids=lambda v: str(v))
def test_roots_in_a_conjugacy_class_fill_a_projective_space(q, k):
    # Lam: V(g) meets a class C in the nonzero vectors, up to F^sigma-scalars, of
    # a kernel over F^sigma = GF(q^r), so |V(g) n C| = (q^(r d) - 1)/(q^r - 1)
    rng = random.Random(f"classes/{q}^{k}")
    for ring in rings_of(q, k):
        Q = q ** math.gcd(ring.sigma.l, k)
        sizes = {(Q ** d - 1) // (Q - 1) for d in range(k + 1)}
        classes = [set(C) for C in conjugacy_classes(ring)]
        els = ring.field.elements()
        for _ in range(6):
            X = rng.sample(els, rng.randrange(1, min(len(els), 6)))
            V = set(vanishing_set(random_poly(rng, ring, rng.randrange(2)) * minimal_polynomial(ring, X)))
            assert all(len(V & C) in sizes for C in classes), (ring, X)


def test_wrong_kernel_fires_the_root_certificate(monkeypatch):
    ring = OreRing(GF(2, 8), 1)
    g = ring.linear(ring.field.gen)
    assert vanishing_set(g) == [ring.field.gen]
    # the first unit vector: the class of 1 would report the root 1
    monkeypatch.setattr(algset, "kernel_i", lambda field, rows, ncols: [[1] + [0] * (ncols - 1)])
    with pytest.raises(VerificationError, match="every point of V"):
        vanishing_set(g)
