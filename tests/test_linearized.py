import itertools
import random

import pytest

from orecodes.errors import DomainError, GuardError
from orecodes.gf import GF
from orecodes.skewpoly import OreRing
from orecodes.linearized import (
    LinearizedPoly,
    dickson_identity_holds,
    dickson_matrix,
    eval_matrix,
    from_linearized,
    is_zq_basis,
    matrix_algebra_check,
    moore_matrix,
    to_linearized,
)


@pytest.fixture(scope="module")
def R4():
    return OreRing(GF(2, 2), 1)


def test_coefficient_transport(R4):
    F = R4.field
    g = to_linearized(R4.x)
    # x maps to y^q, i.e. the Frobenius map
    for z in F.elements():
        assert g(z) == z ** 2
    lifted = from_linearized(R4, g)
    assert lifted == R4.x
    g2 = to_linearized(R4.parse("x^2+1"))
    for z in F.elements():
        assert g2(z) == z ** 4 + z


def test_requires_frobenius_ring():
    R = OreRing(GF(2, 2), 0)
    with pytest.raises(DomainError):
        to_linearized(R.one)


def test_evaluation_is_additive_and_zq_linear(R4):
    F = R4.field
    rng = random.Random(0)
    for _ in range(25):
        g = LinearizedPoly(F, [F.element(rng.randrange(4)) for _ in range(3)])
        for z1, z2 in itertools.product(F.elements(), repeat=2):
            assert g(z1 + z2) == g(z1) + g(z2)


def test_transport_is_ring_isomorphism(R4):
    F = R4.field
    rng = random.Random(1)
    for _ in range(40):
        a = R4.poly([F.element(rng.randrange(4)) for _ in range(rng.randrange(1, 4))])
        b = R4.poly([F.element(rng.randrange(4)) for _ in range(rng.randrange(1, 4))])
        assert to_linearized(a * b) == to_linearized(a).compose(to_linearized(b))
        assert to_linearized(a + b) == to_linearized(a) + to_linearized(b)


def test_composition_rule_example(R4):
    F = R4.field
    w = F.gen
    g = to_linearized(R4.x)
    h = to_linearized(w * R4.x)
    # z y^{q^i} o z' y^{q^j} = z z'^{q^i} y^{q^{i+j}}
    assert g.compose(h) == LinearizedPoly(F, [F.zero, F.zero, w ** 2])


def test_moore_matrix_examples():
    F = GF(2, 2)
    w = F.gen
    M = moore_matrix(F, [F.one, w])
    assert M.rows == [[F.one, w], [F.one, w ** 2]]
    assert M.det() == F.one  # w^2 + w = 1
    assert moore_matrix(GF(2, 1), [GF(2, 1).one]).rows == [[GF(2, 1).one]]


def test_moore_invertibility_iff_basis():
    F = GF(2, 3)
    for pair in itertools.combinations(F.elements(), 3):
        M = moore_matrix(F, list(pair))
        assert M.is_invertible() == is_zq_basis(F, list(pair))


def test_dickson_identity_and_frobenius_example():
    F = GF(2, 2)
    w = F.gen
    g = LinearizedPoly(F, [F.zero, F.one])  # y^2, the Frobenius
    D = dickson_matrix(g)
    assert D.rows == [[F.zero, F.one], [F.one, F.zero]]
    Mg = eval_matrix(g)
    # columns hold the coordinates of g(1) = 1 and g(w) = w^2 = 1 + w
    assert Mg.rows == [[F.one, F.one], [F.zero, F.one]]
    assert dickson_identity_holds(g)
    ident = LinearizedPoly(F, [F.one])
    assert dickson_matrix(ident).rows == [[F.one, F.zero], [F.zero, F.one]]


def test_dickson_identity_all_g_small_fields():
    for q, k in [(2, 1), (2, 2), (2, 3)]:
        F = GF(q, k)
        for coeffs in itertools.product(F.elements(), repeat=k):
            g = LinearizedPoly(F, list(coeffs))
            assert dickson_identity_holds(g)


def test_dickson_conjugation_by_random_bases():
    F = GF(2, 2)
    rng = random.Random(3)
    bases = [b for b in itertools.permutations(F.elements(), 2) if is_zq_basis(F, b)]
    for _ in range(20):
        g = LinearizedPoly(F, [F.element(rng.randrange(4)) for _ in range(2)])
        X = list(rng.choice(bases))
        M = moore_matrix(F, X)
        assert (dickson_matrix(g) * M).rows == (M * eval_matrix(g, X)).rows


def test_matrix_algebra_q2_k2():
    report = matrix_algebra_check(GF(2, 2))
    assert report["all_ok"]
    assert report["surjective"] and report["injective"]
    assert report["pairs_checked"] == 16 * 16


def test_matrix_algebra_q2_k3():
    report = matrix_algebra_check(GF(2, 3))
    assert report["all_ok"]


def test_matrix_algebra_guard_reports_size_and_cap():
    with pytest.raises(GuardError, match=r"\|F\| = 128 \(cap 64\)"):
        matrix_algebra_check(GF(2, 7))
