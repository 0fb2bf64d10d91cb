import itertools
import random

import pytest

from orecodes import codes as codes_module
from orecodes.errors import DomainError
from orecodes.gf import GF
from orecodes.linalg import Matrix
from orecodes.skewpoly import OreRing, gcrd, lclm
from orecodes.codes import (
    LinearCode,
    SkewCyclicCode,
    bezout_idempotent,
    complement_divisor,
    dual_skew_cyclic,
    generating_idempotent,
    idempotent_to_generator,
    monic_right_divisors,
    right_mult_matrix,
    theta,
    word_map,
    word_unmap,
)


@pytest.fixture(scope="module")
def R4():
    return OreRing(GF(2, 2), 1)


@pytest.fixture(scope="module")
def R8():
    return OreRing(GF(2, 3), 1)


def f_mod(ring, n):
    return ring.monomial(n) - ring.one


# -- word map -------------------------------------------------------------------

def test_word_map_round_trip(R4):
    F = R4.field
    f = R4.parse("x^2+1")
    v = (F.one, F.one)
    assert word_map(R4, v, f) == R4.parse("x+1")
    rng = random.Random(0)
    for _ in range(30):
        v = tuple(F.element(rng.randrange(4)) for _ in range(2))
        assert word_unmap(word_map(R4, v, f), f) == v


def test_word_unmap_reduces(R4):
    F = R4.field
    f = R4.parse("x^2+1")
    g = R4.x * R4.parse("x+1")  # x^2 + x = x + 1 mod x^2+1
    assert word_unmap(g, f) == (F.one, F.one)


# -- code construction -------------------------------------------------------------

def test_skew_cyclic_code_generator_matrix(R4):
    F = R4.field
    code = SkewCyclicCode(R4, R4.parse("x^2+1"), R4.parse("x+1"))
    assert code.n == 2 and code.dim == 1
    assert code.generator_matrix().rows == [[F.one, F.one]]


def test_trivial_codes(R4):
    f = R4.parse("x^2+1")
    full = SkewCyclicCode(R4, f, R4.one)
    assert full.dim == 2
    assert full.generator_matrix().rows == [[R4.field.one, R4.field.zero], [R4.field.zero, R4.field.one]]
    zero = SkewCyclicCode(R4, f, f)
    assert zero.dim == 0
    assert zero.generator_matrix().rows == []


def test_non_divisor_rejected(R4):
    with pytest.raises(DomainError):
        SkewCyclicCode(R4, R4.parse("x^2+1"), R4.parse("x"))


def test_dim_formula_all_divisors(R8):
    f = f_mod(R8, 3)
    for g in monic_right_divisors(R8, f):
        code = SkewCyclicCode(R8, f, g)
        assert code.to_linear().dim == 3 - g.degree
        assert code.generator_matrix().rank() == code.dim


# -- duals (linear algebra path) -----------------------------------------------------

def test_dual_self_dual_repetition(R4):
    F = R4.field
    c = LinearCode(F, Matrix.over_field(F, [[F.one, F.one]], 2))
    d = c.dual()
    assert d.dim == 1
    assert d.same_code(c)  # [1 1] is self-dual in char 2


def test_dual_dims_and_double_dual(R8):
    F = R8.field
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 5)
        k = rng.randrange(0, n + 1)
        rows = []
        while len(rows) < k:
            cand = [F.element(rng.randrange(F.size)) for _ in range(n)]
            m = Matrix.over_field(F, rows + [cand], n)
            if m.rank() == len(rows) + 1:
                rows.append(cand)
        c = LinearCode(F, Matrix.over_field(F, rows, n))
        d = c.dual()
        assert c.dim + d.dim == n
        assert d.dual().same_code(c)
        # G H^T = 0
        prod = c.G * d.G.transpose()
        assert all(not v for row in prod.rows for v in row)


def test_membership_via_parity_check(R4):
    f = R4.parse("x^2+1")
    code = SkewCyclicCode(R4, f, R4.parse("x+1")).to_linear()
    words = set(code.words())
    for v in itertools.product(R4.field.elements(), repeat=2):
        assert code.contains(v) == (v in words)


def test_sigma_shift_closure(R4, R8):
    # delta = 0, f = x^n - 1: (r0..rn-1) in C implies (s(rn-1), s(r0), ...) in C
    for ring, n in ((R4, 2), (R8, 3)):
        f = f_mod(ring, n)
        for g in monic_right_divisors(ring, f):
            code = SkewCyclicCode(ring, f, g).to_linear()
            for v in code.words():
                shifted = (ring.sigma(v[-1]),) + tuple(ring.sigma(c) for c in v[:-1])
                assert code.contains(shifted)


# -- right multiplication matrix and theta ----------------------------------------------

def test_right_mult_matrix_examples(R4):
    F = R4.field
    assert right_mult_matrix(R4, R4.one, 2).rows == [[F.one, F.zero], [F.zero, F.one]]
    M = right_mult_matrix(R4, R4.x, 2)
    assert M.rows == [[F.zero, F.one], [F.one, F.zero]]


def test_right_mult_matrix_closed_form(R8):
    # row i of M(g) is sigma^i applied to g's coefficients rotated right by i
    rng = random.Random(9)
    n = 3
    for _ in range(20):
        g = R8.poly([R8.field.element(rng.randrange(8)) for _ in range(n)])
        M = right_mult_matrix(R8, g, n)
        for i in range(n):
            expected = [R8.sigma(g[(j - i) % n], i) for j in range(n)]
            assert M.rows[i] == expected


def test_right_mult_matrix_is_right_action(R4):
    rng = random.Random(2)
    f = f_mod(R4, 2)
    for _ in range(30):
        g = R4.poly([R4.field.element(rng.randrange(4)) for _ in range(2)])
        M = right_mult_matrix(R4, g, 2)
        v = tuple(R4.field.element(rng.randrange(4)) for _ in range(2))
        lhs = word_map(R4, M.transpose().mul_vec(list(v)), f)  # row-vector action v M
        # compare against p_f(v) * g mod f
        rhs = (word_map(R4, v, f) * g).right_divmod(f)[1]
        assert lhs == rhs


def test_right_mult_matrix_multiplicative(R8):
    rng = random.Random(3)
    n = 3
    for _ in range(20):
        g = R8.poly([R8.field.element(rng.randrange(8)) for _ in range(n)])
        gp = R8.poly([R8.field.element(rng.randrange(8)) for _ in range(n)])
        f = f_mod(R8, n)
        prod = (g * gp).right_divmod(f)[1]
        assert right_mult_matrix(R8, prod, n).rows == (
            right_mult_matrix(R8, g, n) * right_mult_matrix(R8, gp, n)
        ).rows


def test_theta_involution_and_transpose(R4, R8):
    rng = random.Random(4)
    for ring, n in ((R4, 2), (R8, 3)):
        assert theta(ring, ring.one, n) == ring.one
        for _ in range(25):
            g = ring.poly([ring.field.element(rng.randrange(ring.field.size)) for _ in range(n)])
            tg = theta(ring, g, n)
            assert theta(ring, tg, n) == g
            assert right_mult_matrix(ring, tg, n).rows == right_mult_matrix(ring, g, n).transpose().rows


def test_theta_antimultiplicative(R8):
    rng = random.Random(6)
    n = 3
    f = f_mod(R8, n)
    for _ in range(20):
        g = R8.poly([R8.field.element(rng.randrange(8)) for _ in range(n)])
        h = R8.poly([R8.field.element(rng.randrange(8)) for _ in range(n)])
        lhs = theta(R8, (g * h).right_divmod(f)[1], n)
        rhs = (theta(R8, h, n) * theta(R8, g, n)).right_divmod(f)[1]
        assert lhs == rhs


def boxed_theta(ring, g, n):
    """The reference: sigma^{n-i}(gbar_i) at x^{n-i} for i >= 1 and gbar_0 at the
    constant, gbar = g mod x^n - 1, on FieldElements."""
    gbar = g.right_divmod(f_mod(ring, n))[1]
    coeffs = [ring.field.zero] * n
    coeffs[0] = gbar[0]
    for i in range(1, n):
        coeffs[n - i] = ring.sigma(gbar[i], n - i)
    return ring.poly(coeffs)


@pytest.mark.parametrize("q, k, l, n", [(2, 2, 1, 2), (2, 3, 1, 3), (2, 4, 1, 4), (3, 3, 1, 3), (2, 6, 2, 3)])
def test_theta_matches_the_boxed_loop(q, k, l, n):
    ring = OreRing(GF(q, k), l)
    rng = random.Random(q ** k + l)
    assert theta(ring, ring.zero, n) == ring.zero
    for _ in range(30):  # degrees up to 2n - 1, so the reduction mod x^n - 1 is exercised
        g = ring.poly([ring.field.element(rng.randrange(ring.field.size)) for _ in range(rng.randrange(2 * n + 1))])
        assert theta(ring, g, n) == boxed_theta(ring, g, n)


# -- idempotents -----------------------------------------------------------------------

def test_bezout_idempotent_gf4_pipeline(R4):
    F = R4.field
    w = F.gen
    g, h = R4.parse("x+1"), R4.parse("x+w")
    e = bezout_idempotent(R4, g, h, 2)
    assert e == R4.parse("w*x+w")
    f = f_mod(R4, 2)
    assert (e * e).right_divmod(f)[1] == e
    assert idempotent_to_generator(R4, e, 2) == g


def test_idempotent_trivial_cases(R4):
    assert idempotent_to_generator(R4, R4.one, 2) == R4.one
    assert idempotent_to_generator(R4, R4.zero, 2) == f_mod(R4, 2)


def test_idempotent_generator_minimality_brute(R4):
    # gcrd(e, x^n-1) has minimal degree among monic generators of A ebar
    f = f_mod(R4, 2)
    e = R4.parse("w*x+w")
    g = idempotent_to_generator(R4, e, 2)
    code = SkewCyclicCode(R4, f, g).to_linear()
    for d in range(g.degree):
        for cand in R4.all_polys(d):
            cand_code_rows = []
            cur = cand.right_divmod(f)[1]
            for i in range(2):
                if i:
                    cur = (R4.x * cur).right_divmod(f)[1]
                cand_code_rows.append([cur[j] for j in range(2)])
            cand_code = Matrix.over_field(R4.field, cand_code_rows, 2)
            assert not code.G.row_space_equals(cand_code)


def test_rejects_non_idempotent(R4):
    with pytest.raises(DomainError):
        idempotent_to_generator(R4, R4.x, 2)


def test_complement_and_idempotent_for_all_divisors(R8):
    f = f_mod(R8, 3)
    for g in monic_right_divisors(R8, f):
        if g.degree in (0, 3):
            continue
        h = complement_divisor(R8, g, 3)
        e = bezout_idempotent(R8, g, h, 3)
        assert idempotent_to_generator(R8, e, 3) == g


# -- dual skew cyclic codes ---------------------------------------------------------------

def test_dual_skew_cyclic_matches_kernel_dual(R4, R8):
    for ring, n in ((R4, 2), (R8, 3)):
        f = f_mod(ring, n)
        for g in monic_right_divisors(ring, f):
            code = SkewCyclicCode(ring, f, g)
            dual = dual_skew_cyclic(code)
            assert dual.to_linear().same_code(code.to_linear().dual())
            assert dual.dim == n - code.dim


# (q, k, l, n): every field and sigma = phi^l of order n below has all its monic
# right divisors of x^n - 1 checked, 205 of them
CYCLIC_SETTINGS = [(2, 2, 1, 2), (2, 3, 1, 3), (2, 3, 2, 3), (2, 4, 1, 4), (2, 4, 3, 4), (3, 2, 1, 2), (3, 3, 1, 3)]


def _all_divisors(ring, n):
    """The monic right divisors of f = x^n - 1: f is its only one of degree n."""
    f = f_mod(ring, n)
    return [g for d in range(n) for g in ring.all_polys(d) if g.right_divides(f)] + [f]


def idempotent_dual(code):
    """The dual's generator through a generating idempotent e: gcrd(theta(1 - e), x^n - 1)."""
    ring, n = code.ring, code.n
    return idempotent_to_generator(ring, theta(ring, ring.one - generating_idempotent(code), n), n)


def reciprocal_dual(code):
    """The skew reciprocal of h, x^n - 1 = h*g, written out: sum_i sigma^i(h_{k-i}) x^i, made monic."""
    ring, f = code.ring, f_mod(code.ring, code.n)
    h = f.right_divmod(code.g)[0]
    if h == f:
        return f
    k = h.degree
    return ring.poly([ring.sigma(h[k - i], i) for i in range(k + 1)]).monic()


@pytest.mark.parametrize("q, k, l, n", CYCLIC_SETTINGS)
def test_dual_skew_cyclic_matches_both_references(q, k, l, n):
    ring = OreRing(GF(q, k), l)
    f = f_mod(ring, n)
    for g in _all_divisors(ring, n):
        code = SkewCyclicCode(ring, f, g)
        dual = dual_skew_cyclic(code).g
        assert dual == idempotent_dual(code) == reciprocal_dual(code), g


def test_dual_skew_cyclic_does_not_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dual searched")

    for name in ("generating_idempotent", "complement_divisor", "bezout_idempotent", "idempotent_to_generator"):
        monkeypatch.setattr(codes_module, name, refuse)
    monkeypatch.setattr(OreRing, "all_polys", refuse)
    ring = OreRing(GF(2, 8), 1)
    f = f_mod(ring, 8)
    # over GF(256) the complement search of x + 1 would span 256^7 candidates
    for g, gperp in ((ring.one, f), (ring.parse("x+1"), ring.parse("x^7+x^6+x^5+x^4+x^3+x^2+x+1")), (f, ring.one)):
        assert dual_skew_cyclic(SkewCyclicCode(ring, f, g)).g == gperp


def test_dual_refuses_a_divisor_of_another_modulus():
    # x + w right-divides x^2 + 1 over GF(9)[x;phi] but not x^2 - 1
    ring = OreRing(GF(3, 2), 1)
    f = ring.parse("x^2+1")
    assert f.right_divmod(ring.parse("x+w"))[1] == ring.zero
    with pytest.raises(DomainError, match=r"the divisor does not right-divide x\^2 - 1"):
        dual_skew_cyclic(SkewCyclicCode(ring, f, ring.parse("x+w")))


def complement_with_gcrd(ring, g, n):
    """complement_divisor with the gcrd(g, h) = 1 test that lclm(g, h) = x^n - 1 makes redundant."""
    f = f_mod(ring, n)
    if g.degree == 0:
        return f
    for h in ring.all_polys(n - g.degree):
        if h.right_divides(f) and gcrd(g, h).degree == 0 and lclm(g, h) == f:
            return h


@pytest.mark.parametrize("q, k, l, n", [s for s in CYCLIC_SETTINGS if s[0] == 2])
def test_complement_divisor_matches_the_gcrd_reference(q, k, l, n):
    ring = OreRing(GF(q, k), l)
    f = f_mod(ring, n)
    for g in _all_divisors(ring, n):
        h = complement_with_gcrd(ring, g, n)
        assert complement_divisor(ring, g, n) == h, g
        if 0 < g.degree < n:  # so the generating idempotent does not move either
            assert generating_idempotent(SkewCyclicCode(ring, f, g)) == bezout_idempotent(ring, g, h, n)


def test_dual_of_full_and_zero(R4):
    f = f_mod(R4, 2)
    full = SkewCyclicCode(R4, f, R4.one)
    assert dual_skew_cyclic(full).dim == 0
    zero = SkewCyclicCode(R4, f, f)
    assert dual_skew_cyclic(zero).dim == 2
    assert generating_idempotent(full) == R4.one
    assert generating_idempotent(zero) == R4.zero


def test_cyclic_setting_guard(R4):
    with pytest.raises(DomainError):
        right_mult_matrix(R4, R4.one, 3)  # |sigma| = 2 != 3
    bad = OreRing(GF(2, 2), 1, GF(2, 2).gen)
    with pytest.raises(DomainError):
        theta(bad, bad.one, 2)
