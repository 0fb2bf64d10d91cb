import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from orecodes import gf, skewpoly
from orecodes.errors import DomainError, GuardError
from orecodes.gf import GF, FieldElement, basis_over_fixed_subfield
from orecodes.linalg import Matrix
from orecodes.skewpoly import (
    OreRing,
    annihilator_poly,
    bound_polynomial,
    centralizer,
    conjugacy_class,
    conjugacy_classes,
    conjugate,
    factor_irreducible,
    gcrd,
    gcrd_bezout,
    is_central,
    is_irreducible,
    lclm,
    norm,
    operator_eval,
    parse_poly,
    poly_str,
    remove_derivation,
    residue_rows_i,
    right_eval,
    similarity_test,
    TwoSidedWitness,
    two_sided_test,
)


@pytest.fixture(scope="module")
def R4():
    return OreRing(GF(2, 2), 1)


@pytest.fixture(scope="module")
def R8():
    return OreRing(GF(2, 3), 1)


def rand_poly(rng, ring, max_deg):
    deg = rng.randrange(max_deg + 1)
    coeffs = [rng.randrange(ring.field.size) for _ in range(deg + 1)]
    return ring.poly([ring.field.element(c) for c in coeffs])


# -- multiplication -----------------------------------------------------------

def test_reference_product_gf4(R4):
    a = R4.parse("x^2+w*x+w")
    b = R4.parse("x+w")
    assert a * b == R4.parse("x^3+w^2*x+w^2")


def test_power_is_repeated_product(R4):
    g = R4.parse("x^2+w*x+1")
    acc = R4.one
    for n in range(5):
        assert g ** n == acc
        acc = acc * g
    assert R4.parse("w*x+1") ** 0 == R4.one
    with pytest.raises(DomainError, match="negative power"):
        g ** -1


def test_unit_and_annihilator(R4):
    a = R4.parse("x^2+w*x+w")
    assert a * R4.one == a
    assert a * R4.zero == R4.zero


def test_three_factorizations_of_x2_plus_1(R4):
    w = R4.field.gen
    target = R4.parse("x^2+1")
    assert R4.parse("x+w^2") * R4.parse("x+w") == target
    assert R4.parse("x+w") * R4.parse("x+w^2") == target
    assert R4.parse("x+1") * R4.parse("x+1") == target


def test_twist_rule_x_times_constant(R4):
    w = R4.field.gen
    assert R4.x * R4.poly([w]) == R4.poly([R4.field.zero, w ** 2])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([(2, 2, 1, 0), (2, 3, 1, 0), (2, 2, 1, 1), (3, 2, 1, 2)]))
def test_mul_associative_distributive(seed, params):
    q, k, l, widx = params
    F = GF(q, k)
    ring = OreRing(F, l, F.element(widx))
    rng = random.Random(seed)
    a, b, c = (rand_poly(rng, ring, 4) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_degree_multiplicative(R8):
    rng = random.Random(7)
    for _ in range(40):
        a, b = rand_poly(rng, R8, 4), rand_poly(rng, R8, 4)
        if a and b:
            assert (a * b).degree == a.degree + b.degree


ARITHMETIC_RINGS = [(2, 2, 1, 0), (3, 2, 1, 2), (5, 2, 1, 0), (3, 3, 2, 5), (2, 8, 3, 7)]


def coefficient_loop(ring, op, a, b):
    """op on each coefficient index pair of a and b, the shorter padded with 0."""
    pairs = itertools.zip_longest(a.idx, b.idx, fillvalue=0)
    return ring.poly([ring.field.element(op(x, y)) for x, y in pairs])


@pytest.mark.parametrize("q, k, l, widx", ARITHMETIC_RINGS)
@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=8), st.lists(st.integers(0, 255), max_size=8), st.integers(0, 255))
def test_sum_difference_negation_and_scaling_match_the_coefficient_loop(q, k, l, widx, a, b, c):
    F = GF(q, k)
    ring = OreRing(F, l, F.element(widx))
    a, b = (ring.poly([F.element(v % F.size) for v in raw]) for raw in (a, b))
    c %= F.size
    assert a + b == coefficient_loop(ring, F.add_i, a, b)
    assert a - b == coefficient_loop(ring, F.sub_i, a, b)
    assert -a == coefficient_loop(ring, lambda x, _: F.neg_i(x), a, ring.zero)
    assert F.element(c) * a == coefficient_loop(ring, lambda x, _: F.mul_i(c, x), a, ring.zero)
    # a full leading cancellation: the shared top term goes and the result is trimmed
    top = ring.monomial(max(a.degree, b.degree) + 2, F.element(1 + c % F.t))
    assert (a + top) - (b + top) == coefficient_loop(ring, F.sub_i, a, b)
    assert (a + top) + (-top) == a and a - a == ring.zero and 0 * a == ring.zero


@pytest.mark.parametrize("q, k, l, widx", ARITHMETIC_RINGS)
def test_prime_subfield_ints_commute_with_polynomials(q, k, l, widx):
    F = GF(q, k)
    ring = OreRing(F, l, F.element(widx))
    rng = random.Random(q ** k)
    for _ in range(10):
        p = rand_poly(rng, ring, 5)
        for c in range(-q, 2 * q):
            assert p * c == c * p == F.from_int(c) * p


# -- division -----------------------------------------------------------------

def test_right_division_cubic_examples(R4):
    g = R4.parse("x^3+w^2*x+w^2")
    d = R4.parse("x+w")
    q, r = g.right_divmod(d)
    assert not r
    assert q == R4.parse("x^2+w*x+w")
    # x+w is not a LEFT divisor of g
    _, r2 = g.left_divmod(d)
    assert r2


def test_self_division(R4):
    g = R4.parse("x^2+w*x+1")
    q, r = g.right_divmod(g)
    assert q == R4.one and not r
    q, r = g.left_divmod(g)
    assert q == R4.one and not r


def test_left_divisor_of_x2_plus_1(R4):
    g = R4.parse("x^2+1")
    q, r = g.left_divmod(R4.parse("x+w"))
    assert not r
    assert q == R4.parse("x+w^2")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_divmod_reconstruction(seed):
    F = GF(2, 3)
    ring = OreRing(F, 1, F.gen)
    rng = random.Random(seed)
    g = rand_poly(rng, ring, 5)
    d = rand_poly(rng, ring, 3)
    if not d:
        d = ring.one
    q, r = g.right_divmod(d)
    assert q * d + r == g
    assert not r or r.degree < d.degree
    q, r = g.left_divmod(d)
    assert d * q + r == g
    assert not r or r.degree < d.degree


# -- norms and evaluation -------------------------------------------------------

def test_norm_basics(R4):
    w = R4.field.gen
    for z in R4.field.elements():
        assert norm(R4, 0, z) == R4.field.one
        assert norm(R4, 1, z) == z  # delta = 0
    assert norm(R4, 2, w) == R4.field.one  # N_2(w) = w^3 = 1


def test_right_eval_roots_of_x2_plus_1(R4):
    g = R4.parse("x^2+1")
    w = R4.field.gen
    for z in (R4.field.one, w, w ** 2):
        assert not right_eval(g, z)
    assert right_eval(g, R4.field.zero) == R4.field.one


def test_right_eval_constants_and_divisor_root(R4):
    w = R4.field.gen
    c = R4.poly([w ** 2])
    for z in R4.field.elements():
        assert right_eval(c, z) == w ** 2
    assert not right_eval(R4.parse("x^3+w^2*x+w^2"), w)


def test_right_eval_additive(R4):
    rng = random.Random(3)
    for _ in range(50):
        g, h = rand_poly(rng, R4, 4), rand_poly(rng, R4, 4)
        for z in R4.field.elements():
            assert right_eval(g + h, z) == right_eval(g, z) + right_eval(h, z)


def test_operator_eval(R4):
    w = R4.field.gen
    assert operator_eval(R4.x, w) == w ** 2  # sigma(w)
    assert operator_eval(R4.parse("x+1"), w) == R4.field.one  # w^2 + w = 1
    c = R4.poly([w])
    for z in R4.field.elements():
        assert operator_eval(c, z) == w * z


# -- gcrd / lclm ----------------------------------------------------------------

def test_gcrd_examples(R4):
    one = gcrd(R4.parse("x+1"), R4.parse("x+w"))
    assert one == R4.one
    g = R4.parse("x^2+w*x+1")
    assert gcrd(g, g) == g.monic()
    assert gcrd(R4.parse("x^2+1"), R4.parse("x+1")) == R4.parse("x+1")


def test_gcrd_bezout_certificate(R4):
    rng = random.Random(11)
    for _ in range(40):
        g1, g2 = rand_poly(rng, R4, 4), rand_poly(rng, R4, 4)
        if not g1 and not g2:
            continue
        d, u, v = gcrd_bezout(g1, g2)
        assert u * g1 + v * g2 == d
        if g1:
            assert d.right_divides(g1)
        if g2:
            assert d.right_divides(g2)


def test_lclm_examples(R4):
    assert lclm(R4.parse("x+1"), R4.parse("x+w")) == R4.parse("x^2+1")
    g = R4.parse("w*x^2+x")
    assert lclm(g, g) == g.monic()


def test_lclm_conjugate_formula(R4):
    # lclm(x-z, x-z') = (x - z'^(z'-z)) (x - z) for z != z'
    for z, zp in itertools.permutations(R4.field.elements(), 2):
        left = lclm(R4.linear(z), R4.linear(zp))
        tw = conjugate(R4, zp, zp - z)
        assert left == R4.linear(tw) * R4.linear(z)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([(2, 2), (2, 3), (3, 2)]))
def test_degree_formula(seed, qk):
    F = GF(*qk)
    ring = OreRing(F, 1)
    rng = random.Random(seed)
    g1, g2 = rand_poly(rng, ring, 5), rand_poly(rng, ring, 5)
    if not g1 or not g2:
        return
    assert gcrd(g1, g2).degree + lclm(g1, g2).degree == g1.degree + g2.degree


# -- conjugacy ------------------------------------------------------------------

def test_conjugacy_is_equivalence(R4):
    F = R4.field
    rings = [R4, OreRing(F, 1, F.gen)]  # delta = 0 and delta != 0
    for ring in rings:
        for z in F.elements():
            assert conjugate(ring, z, F.one) == z
            for u in F.elements():
                if not u:
                    continue
                zu = conjugate(ring, z, u)
                assert conjugate(ring, zu, u.inverse()) == z
                for v in F.elements():
                    if v:
                        assert conjugate(ring, zu, v) == conjugate(ring, z, v * u)


def test_conjugate_direct_value(R4):
    # 1^w = sigma(w) w^{-1} = w^2 * w^2 = w
    F = R4.field
    w = F.gen
    assert conjugate(R4, F.one, w) == w


def test_conjugacy_classes_gf4(R4):
    F = R4.field
    assert conjugacy_class(R4, F.one) == sorted([F.one, F.gen, F.gen ** 2], key=lambda z: z.idx)
    assert conjugacy_class(R4, F.zero) == [F.zero]
    assert centralizer(R4, F.one) == sorted(R4.sigma.fixed_subfield(), key=lambda z: z.idx)


def test_conjugacy_class_of_minus_w_singleton():
    F = GF(2, 2)
    ring = OreRing(F, 1, F.gen)  # delta(z) = w(sigma(z) - z), w = g
    minus_w = -F.gen
    assert conjugacy_class(ring, minus_w) == [minus_w]


def test_centralizer_is_subfield(R8):
    for z in R8.field.elements():
        cent = centralizer(R8, z)
        s = set(cent)
        for a, b in itertools.product(cent, cent):
            assert a + b in s and a * b in s


def test_class_partition(R4, R8):
    for ring in (R4, R8):
        classes = conjugacy_classes(ring)
        assert sum(len(c) for c in classes) == ring.field.size


# The orbit enumeration the closed forms of skewpoly._class_i replaced: |F| conjugates per class.

def enum_conjugacy_class(ring, z):
    field = ring.field
    z = skewpoly.field_index(field, z)
    cls = {skewpoly.conjugate_i(ring, z, u) for u in range(1, field.size)}
    return [FieldElement(field, c) for c in sorted(cls)]


def enum_centralizer(ring, z):
    field = ring.field
    z = skewpoly.field_index(field, z)
    return [FieldElement(field, u) for u in range(field.size) if not u or skewpoly.conjugate_i(ring, z, u) == z]


def enum_conjugacy_classes(ring):
    seen = set()
    classes = []
    for z in ring.field.elements():
        if z in seen:
            continue
        cls = enum_conjugacy_class(ring, z)
        seen.update(cls)
        classes.append(cls)
    return classes


def class_rings(F):
    """F[x;phi^l] for every l, and F[x;phi^l, delta_w] for three nonzero w when l != 0."""
    ws = [None, F.one, F.gen, F.element(F.size - 1)]
    return [OreRing(F, l, w) for l in range(F.k) for w in (ws if l else ws[:1])]


CLASS_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 6)]


@pytest.mark.parametrize("q, k", CLASS_FIELDS, ids=[f"GF({q}^{k})" for q, k in CLASS_FIELDS])
def test_closed_forms_equal_the_enumeration(q, k):
    for ring in class_rings(GF(q, k)):
        assert conjugacy_classes(ring) == enum_conjugacy_classes(ring), ring
        for z in ring.field.elements():
            assert conjugacy_class(ring, z) == enum_conjugacy_class(ring, z), (ring, z)
            assert centralizer(ring, z) == enum_centralizer(ring, z), (ring, z)


def test_classes_never_conjugate(monkeypatch):
    def refuse(*args):
        raise AssertionError("a class was enumerated")

    F = GF(2, 4)
    rings = [OreRing(F, 1), OreRing(F, 2, F.gen), OreRing(F, 0)]
    expected = [(enum_conjugacy_classes(R), [(enum_conjugacy_class(R, z), enum_centralizer(R, z))
                                            for z in F.elements()]) for R in rings]
    monkeypatch.setattr(skewpoly, "conjugate_i", refuse)
    for ring, (classes, per_element) in zip(rings, expected):
        assert conjugacy_classes(ring) == classes
        assert [(conjugacy_class(ring, z), centralizer(ring, z)) for z in F.elements()] == per_element


def test_centralizer_of_minus_w_is_the_field():
    F = GF(3, 2)
    ring = OreRing(F, 1, F.gen)
    minus_w = -F.gen
    assert centralizer(ring, minus_w) == enum_centralizer(ring, minus_w) == F.elements()
    assert centralizer(ring, F.zero) == enum_centralizer(ring, F.zero) == ring.sigma.fixed_subfield()


def test_class_of_zero_with_a_derivation_is_not_zero_alone():
    # 0^u = delta(u) u^-1 = w (sigma(u) u^-1 - 1): the class of 0 is the class of w, shifted by -w
    F = GF(2, 3)
    ring = OreRing(F, 1, F.gen)
    cls = conjugacy_class(ring, F.zero)
    assert cls == enum_conjugacy_class(ring, F.zero)
    assert len(cls) == (F.size - 1) // (F.q - 1) and cls != [F.zero]


@pytest.mark.parametrize("q, k", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_identity_sigma_gives_singleton_classes(q, k):
    F = GF(q, k)
    ring = OreRing(F, k, F.gen)  # phi^k = id (phi itself on a prime field), so delta_w vanishes
    assert conjugacy_classes(ring) == enum_conjugacy_classes(ring) == [[z] for z in F.elements()]
    assert all(centralizer(ring, z) == enum_centralizer(ring, z) == F.elements() for z in F.elements())


# -- two-sided / center -----------------------------------------------------------

def test_two_sided_examples(R4):
    assert two_sided_test(R4.parse("x^2+1")).is_two_sided
    assert two_sided_test(R4.monomial(3)).is_two_sided
    assert not two_sided_test(R4.parse("x+w")).is_two_sided
    # x^n - a two-sided iff sigma(a) = a and s | n
    F = R4.field
    for n in range(1, 5):
        for a in F.elements():
            if not a:
                continue
            g = R4.monomial(n) - R4.poly([a])
            expected = (R4.sigma(a) == a) and (n % R4.s == 0)
            assert two_sided_test(g).is_two_sided == expected


def test_two_sided_agrees_with_direct_check(R4):
    # Ag = gA checked directly: x*g in gA and z*g in gA for all z
    for g in R4.all_polys(2):
        decided = two_sided_test(g).is_two_sided
        direct = all(
            not (p * g).left_divmod(g)[1]
            for p in [R4.x] + [R4.poly([z]) for z in R4.field.elements() if z]
        )
        assert decided == direct


def test_two_sided_witness_reconstructs(R4):
    res = two_sided_test(R4.parse("x^3+x"))
    assert res.is_two_sided
    assert res.c * (R4.monomial(res.t) * res.h) == R4.parse("x^3+x")
    assert is_central(res.h)


def boxed_is_central(g):
    """Reference: membership in F^sigma[x^s], each coefficient boxed and tested by sigma(c) == c."""
    ring = g.ring
    return all(not c or (i % ring.s == 0 and ring.sigma(c) == c) for i, c in enumerate(g.coeffs))


def boxed_two_sided_test(g):
    """Reference: g = c x^t h with h = c^-1 sigma^-t(g_i) boxed coefficient by coefficient."""
    ring = g.ring
    if not g:
        return TwoSidedWitness(True, ring.field.zero, 0, ring.one)
    t = next(i for i, c in enumerate(g.coeffs) if c)
    c = g.lc()
    h = ring.poly([ring.sigma(ci / c, -t) if ci else ci for ci in g.coeffs[t:]])
    if not boxed_is_central(h):
        return TwoSidedWitness(False, None, None, None)
    return TwoSidedWitness(True, c, t, h)


def _bound_cases():
    """(ring, f): every monic f of degree <= 3 over GF(4) and GF(8) for every l, and 40 seeded monic
    f = f1 x^e, f1(0) != 0, deg f1 in 1..4, over GF(9), GF(16), GF(27) and GF(64) for every l, where
    e is 0, 1 or 2 with probabilities 1/2, 1/4 and 1/4."""
    for q, k in ((2, 2), (2, 3)):
        F = GF(q, k)
        for l in range(k):
            ring = OreRing(F, l)
            for d in range(4):
                for f in ring.all_polys(d):
                    yield ring, f
    for q, k in ((3, 2), (2, 4), (3, 3), (2, 6)):
        F = GF(q, k)
        for l in range(k):
            ring = OreRing(F, l)
            rng = random.Random(q ** k * 10 + l)
            for _ in range(40):
                d, e = rng.randrange(1, 5), rng.choice((0, 0, 1, 2))
                tail = [rng.randrange(F.size) for _ in range(d - 1)]
                yield ring, skewpoly._from_idx(ring, [0] * e + [rng.randrange(1, F.size)] + tail + [1])


def test_center_by_indices_matches_the_boxed_references():
    for ring, f in _bound_cases():
        for g in (ring.zero, f, f * ring.monomial(2), ring.monomial(ring.s) + ring.one):
            assert is_central(g) == boxed_is_central(g)
            assert two_sided_test(g) == boxed_two_sided_test(g), g


# -- annihilators and bounds -------------------------------------------------------

def test_annihilator_trivial_cases(R4):
    f = R4.parse("x^2+1")
    assert annihilator_poly(R4.one, f) == f
    assert annihilator_poly(f, f) == R4.one


def test_annihilator_derived_example(R4):
    f = R4.parse("x^2+1")
    fa = annihilator_poly(R4.parse("x+1"), f)
    assert fa == R4.parse("x+1")
    # minimality: no constant annihilates
    for c in R4.field.elements():
        if c:
            assert (R4.poly([c]) * R4.parse("x+1")).right_divmod(f)[1]


def grow_and_solve_annihilator(a, f):
    """Reference: grow the rows x^i * a mod f until x^D * a mod f is a
    combination of the rows below it, solving one system per degree D."""
    ring, field = a.ring, a.ring.field
    rows = residue_rows_i(ring, a.row, f.row)
    basis = [next(rows)]
    if not any(basis[0]):
        return ring.one
    for row in itertools.islice(rows, ring.s * f.degree * field.k + 1):
        target = [FieldElement(field, field.neg_i(v)) for v in row]
        sol = Matrix.from_indices(field, basis, f.degree).transpose().solve(target)
        if sol is not None:
            return ring.poly(list(sol) + [field.one])
        basis.append(row)
    raise AssertionError("no annihilator of degree <= s*k*deg f")


@pytest.mark.parametrize("q,k,l,delta", [(2, 2, 1, False), (2, 3, 1, False), (3, 2, 1, False), (2, 4, 2, False), (2, 3, 1, True)])
def test_annihilator_matches_grow_and_solve_and_is_minimal(q, k, l, delta):
    F = GF(q, k)
    ring = OreRing(F, l, F.gen if delta else None)
    rng = random.Random(q ** k + l)
    for _ in range(40):
        f = ring.poly([F.element(rng.randrange(F.size)) for _ in range(rng.randrange(1, 4))] + [F.one])
        a = rand_poly(rng, ring, 5)
        fa = annihilator_poly(a, f)
        assert fa == grow_and_solve_annihilator(a, f)
        assert fa.is_monic and not (fa * a).right_divmod(f)[1]
        # no monic polynomial of lower degree annihilates a mod f
        for d in range(fa.degree):
            assert all((h * a).right_divmod(f)[1] for h in ring.all_polys(d))


def test_bound_of_one_is_one(R4):
    for ring in (R4, OreRing(GF(3, 2), 1), OreRing(GF(2, 4), 0)):
        assert bound_polynomial(ring.one) == ring.one


def test_bound_polynomial_examples(R4):
    assert bound_polynomial(R4.parse("x^2+1")) == R4.parse("x^2+1")  # two-sided fixpoint
    assert bound_polynomial(R4.parse("x+1")) == R4.parse("x^2+1")
    # x is itself two-sided, so its bound is x (Prop: f two-sided iff f* = f)
    assert bound_polynomial(R4.x) == R4.x


def fold_bound(f):
    """Reference: f* = lclm(f, f_{a_1}, ..., f_{a_r}) over the Z(A)-module generators {b_j x^i}."""
    ring = f.ring
    if f.degree == 0:
        return ring.one
    acc = f
    for b in basis_over_fixed_subfield(ring.sigma):
        for i in range(ring.s):
            acc = lclm(acc, annihilator_poly(ring.monomial(i, b), f))
    return acc


def test_bound_polynomial_equals_the_lclm_fold():
    count = 0
    for ring, f in _bound_cases():
        assert bound_polynomial(f) == fold_bound(f), (ring, f)
        count += 1
    assert count == 2 * (1 + 4 + 16 + 64) + 3 * (1 + 8 + 64 + 512) + 40 * (2 + 4 + 3 + 6)


def test_bound_polynomial_uses_no_lclm_fold(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the bound folded lclm over annihilators")

    R16 = OreRing(GF(2, 4), 1)
    f = R16.parse("x^3+g*x^2+g^5") * R16.x
    expected = fold_bound(f)
    monkeypatch.setattr(skewpoly, "lclm", refuse)
    monkeypatch.setattr(skewpoly, "annihilator_poly", refuse)
    monkeypatch.setattr(gf, "basis_over_fixed_subfield", refuse)
    assert bound_polynomial(f) == expected


def test_bound_polynomial_is_minimal_two_sided_multiple(R4):
    for f in R4.all_polys(2):
        fstar = bound_polynomial(f)
        assert two_sided_test(fstar).is_two_sided
        assert f.right_divides(fstar)
        # no lower-degree monic two-sided multiple: enumerate x^t * central
        for d in range(f.degree, fstar.degree):
            for t in range(d + 1):
                rest = d - t
                if rest % R4.s:
                    continue
                for h in _central_monic(R4, rest):
                    cand = R4.monomial(t) * h
                    assert not (cand.degree == d and f.right_divides(cand))


def _central_monic(ring, degree):
    """All monic central polynomials of the given degree (delta = 0 rings)."""
    s = ring.s
    if degree % s:
        return
    fixed = [z for z in ring.sigma.fixed_subfield()]
    m = degree // s
    for tail in itertools.product(fixed, repeat=m):
        coeffs = [ring.field.zero] * (degree + 1)
        for j, c in enumerate(tail):
            coeffs[j * s] = c
        coeffs[degree] = ring.field.one
        yield ring.poly(coeffs)


# -- similarity -------------------------------------------------------------------

def test_similarity_reflexive_identity(R4):
    g = R4.parse("x^2+w*x+1")
    ok, B = similarity_test(g, g)
    assert ok
    assert B.rows == [[R4.field.one, R4.field.zero], [R4.field.zero, R4.field.one]]


def test_similarity_linear_iff_conjugate(R4):
    F = R4.field
    for z, zp in itertools.product(F.elements(), repeat=2):
        ok, B = similarity_test(R4.linear(z), R4.linear(zp))
        conj = zp in conjugacy_class(R4, z)
        assert ok == conj
        if ok:
            assert B.is_invertible()


def test_similarity_x_minus_1_x_minus_w(R4):
    F = R4.field
    ok, B = similarity_test(R4.linear(F.one), R4.linear(F.gen))
    assert ok and B.is_invertible()


def test_right_associates_are_similar(R8):
    rng = random.Random(5)
    for _ in range(10):
        h = rand_poly(rng, R8, 2)
        if not h or h.degree < 1:
            continue
        h = h.monic()
        u = R8.field.element(rng.randrange(1, R8.field.size))
        g = (u * h).monic()
        assert similarity_test(g, h)[0]


# -- factorization ----------------------------------------------------------------

def test_factor_x2_plus_1_lex_least(R4):
    factors = factor_irreducible(R4.parse("x^2+1"))
    assert factors == [R4.parse("x+1"), R4.parse("x+1")]


def test_factor_irreducible_returns_self(R8):
    # x^2 + x + 1 over GF(8)[x; phi]: check irreducibility by brute force first
    g = R8.parse("x^2+x+1")
    if is_irreducible(g):
        assert factor_irreducible(g) == [g]


def test_factor_cubic_ends_with_x_plus_w(R4):
    g = R4.parse("x^3+w^2*x+w^2")
    factors = factor_irreducible(g)
    prod = factors[0]
    for p in factors[1:]:
        prod = prod * p
    assert prod == g
    assert factors[-1] == R4.parse("x+w")
    assert all(is_irreducible(p) or p.degree == 1 for p in factors)


def test_factor_preserves_unit(R4):
    w = R4.field.gen
    g = w * R4.parse("x^2+1")
    factors = factor_irreducible(g)
    prod = factors[0]
    for p in factors[1:]:
        prod = prod * p
    assert prod == g


# -- change of variable -------------------------------------------------------------

def change_variable(g, target, image):
    """The reference for remove_derivation: the coefficient-fixing ring map
    x -> image, by boxed left Horner."""
    acc = target.zero
    for c in reversed(g.coeffs):
        acc = acc * image + target.poly([c])
    return acc


def image_in_y(g):
    """remove_derivation on the row of g, boxed in its target ring."""
    target, row = remove_derivation(g.ring, g.row)
    return target, skewpoly._from_row(target, row)


def test_remove_derivation_is_ring_map():
    F = GF(2, 2)
    ring = OreRing(F, 1, F.gen)
    target, _ = image_in_y(ring.one)
    assert target.is_auto_type
    rng = random.Random(19)
    img = target.poly([-ring.delta.w, F.one])
    for _ in range(40):
        a, b = rand_poly(rng, ring, 3), rand_poly(rng, ring, 3)
        fa = change_variable(a, target, img)
        fb = change_variable(b, target, img)
        assert image_in_y(a) == (target, fa)
        assert change_variable(a * b, target, img) == fa * fb
        assert change_variable(a + b, target, img) == fa + fb


def test_remove_derivation_round_trip_odd_char():
    F = GF(3, 2)
    ring = OreRing(F, 1, F.gen)
    target, _ = image_in_y(ring.one)
    img_back = ring.poly([ring.delta.w, F.one])
    rng = random.Random(23)
    for _ in range(20):
        a = rand_poly(rng, ring, 3)
        _, fa = image_in_y(a)
        assert change_variable(fa, ring, img_back) == a


# -- text round trips -----------------------------------------------------------------

def test_poly_str_round_trip(R4):
    rng = random.Random(2)
    for _ in range(50):
        g = rand_poly(rng, R4, 5)
        assert parse_poly(R4, poly_str(g)) == g
    assert poly_str(R4.parse("x^3+w^2*x+w^2")) == "x^3+w^2*x+w^2"
    assert poly_str(R4.zero) == "0"


def test_parse_rejects_garbage(R4):
    with pytest.raises(DomainError):
        R4.parse("x^2 + $")


def test_ring_mismatch_raises():
    a = OreRing(GF(2, 2), 1).x
    b = OreRing(GF(2, 2), 0).x
    with pytest.raises(DomainError):
        a * b


# -- guards -----------------------------------------------------------------------------

def test_factor_guard_reports_size_and_cap(R4):
    with pytest.raises(GuardError, match=r"factorization guard: degree 7 exceeds the cap 6"):
        factor_irreducible(R4.parse("x^7+x"))
    # irreducible, so the search reaches degree 3: 64^3 monic candidates
    quartic = OreRing(GF(2, 6), 1).parse("x^4+w^18*x^3+w^28*x^2+w^18*x+w^49")
    with pytest.raises(GuardError, match=r"\|F\|\^d = 64\^3 = 262144 exceeds the cap 65536"):
        factor_irreducible(quartic)


def test_all_polys_refuses_before_yielding():
    candidates = OreRing(GF(2, 8), 1).all_polys(3)
    with pytest.raises(GuardError, match=r"\|F\|\^d = 256\^3 = 16777216 exceeds the cap 65536"):
        next(candidates)


def test_factor_over_a_large_field_with_a_small_search():
    g = OreRing(GF(2, 7), 1).parse("x^2+1")
    factors = factor_irreducible(g)
    assert [str(p) for p in factors] == ["x+1", "x+1"]
    assert factors[0] * factors[1] == g


def test_similarity_guard_reports_size_and_cap():
    ring = OreRing(GF(2, 5), 1)
    g, h = ring.parse("x^4+g"), ring.parse("x^4+g^2")
    with pytest.raises(GuardError, match=r"\|F\|\^m = 32\^4 = 1048576 exceeds the cap 65536"):
        similarity_test(g, h)
