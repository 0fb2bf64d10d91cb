"""The kernels of F[x;sigma,delta_w] that run in its untwisted image F[y;sigma]
(y = x + w): left division (also with delta = 0, where it runs through the
anti-isomorphism psi: F[x;sigma] -> F[x;sigma^-1]), gcrd with its Bezout
cofactors and lclm, against the direct algorithms kept here as references; the
change of variable and psi themselves; and the row kernels of gf (addmul_i,
twist_row_i, frob_row_i) and skewpoly._x_times_i against loops over add_i,
mul_i and frob_i.  Fields: GF(4), GF(8), GF(9), GF(16), GF(25), GF(27) and
GF(256), every sigma = phi^l."""

import pytest
from hypothesis import given, settings, strategies as st

from orecodes.gf import GF
from orecodes.skewpoly import OreRing, _from_y_i, _to_y_i, _x_times_i, gcrd_bezout, lclm, remove_derivation

FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 8)]
RINGS = [(q, k, l) for q, k in FIELDS for l in range(k)]
coeffs = st.lists(st.integers(0, 255), max_size=10)


def ring_id(params):
    q, k, l = params
    return f"GF({q}^{k})-phi^{l}"


def delta_ring(params, w):
    q, k, l = params
    field = GF(q, k)
    return OreRing(field, l, field.element(1 + w % (field.size - 1)))


def poly(ring, raw):
    return ring.poly([ring.field.element(c % ring.field.size) for c in raw])


# -- the direct delta_w algorithms, the references --------------------------------

def direct_left_divmod(a, d):
    """a = d*q + r: the top coefficient c of r at x^{e + deg d} is removed by
    d * (qc x^e), qc = sigma^{-deg d}(c / lc(d)), multiplied in the delta_w ring."""
    ring = a.ring
    q, r = ring.zero, a
    while r.degree >= d.degree:
        term = ring.monomial(r.degree - d.degree, ring.sigma(r.lc() / d.lc(), -d.degree))
        q, r = q + term, r - d * term
    return q, r


def direct_right_euclid(g1, g2):
    ring = g1.ring
    r0, r1, u0, u1 = g1, g2, ring.one, ring.zero
    while r1:
        q, r2 = r0.right_divmod(r1)
        r0, r1 = r1, r2
        u0, u1 = u1, u0 - q * u1
    return r0, u0, u1


def direct_gcrd_bezout(g1, g2):
    r, u, _ = direct_right_euclid(g1, g2)
    lead = r.lc().inverse()
    d, u = lead * r, lead * u
    v = (d - u * g1).right_divmod(g2)[0] if g2 else g2
    return d, u, v


def direct_lclm(g1, g2):
    return (direct_right_euclid(g1, g2)[2] * g1).monic()


# -- F[x;sigma,delta_w] computed in F[y;sigma] -------------------------------------

@pytest.mark.parametrize("params", RINGS, ids=ring_id)
@settings(max_examples=8, deadline=None)
@given(st.integers(0, 255), coeffs, coeffs)
def test_left_divmod_matches_direct(params, w, a, d):
    for ring in (delta_ring(params, w), OreRing(GF(*params[:2]), params[2])):
        a_, d_ = poly(ring, a), poly(ring, d) or ring.one
        assert a_.left_divmod(d_) == direct_left_divmod(a_, d_)


@pytest.mark.parametrize("params", RINGS, ids=ring_id)
@settings(max_examples=8, deadline=None)
@given(st.integers(0, 255), coeffs, coeffs, coeffs)
def test_gcrd_bezout_and_lclm_match_direct(params, w, a, b, c):
    ring = delta_ring(params, w)
    c = poly(ring, c) or ring.one  # a planted common right factor
    a, b = poly(ring, a) * c, poly(ring, b) * c
    if a or b:
        assert tuple(gcrd_bezout(a, b)) == direct_gcrd_bezout(a, b)
    if a and b:
        assert lclm(a, b) == direct_lclm(a, b)


@pytest.mark.parametrize("params", RINGS, ids=ring_id)
@settings(max_examples=8, deadline=None)
@given(st.integers(0, 255), coeffs, coeffs)
def test_change_of_variable_is_a_ring_isomorphism(params, w, a, b):
    ring = delta_ring(params, w)
    a, b = poly(ring, a), poly(ring, b)
    target, ya = remove_derivation(a)
    assert target.is_auto_type and target.sigma == ring.sigma
    assert ya.degree == a.degree
    assert tuple(_from_y_i(ring, ya.idx)) == a.idx
    assert remove_derivation(a * b)[1] == ya * remove_derivation(b)[1]
    assert remove_derivation(a + b)[1] == ya + remove_derivation(b)[1]


@pytest.mark.parametrize("params", RINGS, ids=ring_id)
@settings(max_examples=8, deadline=None)
@given(coeffs, coeffs)
def test_twist_is_the_anti_isomorphism_onto_the_opposite_ring(params, a, b):
    q, k, l = params
    field = GF(q, k)
    ring, op = OreRing(field, l), OreRing(field, -l)
    a, b = poly(ring, a), poly(ring, b)

    def psi(p):
        return op.poly([field.element(c) for c in field.twist_row_i(p.idx, -l)])

    assert psi(a * b) == psi(b) * psi(a)
    assert psi(a + b) == psi(a) + psi(b)
    assert psi(ring.x) == op.x and psi(ring.one) == op.one
    assert tuple(field.twist_row_i(psi(a).idx, l)) == a.idx


@pytest.mark.parametrize("q, k", FIELDS)
def test_edge_cases_match_direct(q, k):
    ring = delta_ring((q, k, 1), 1)
    zero, one, w = ring.zero, ring.one, ring.poly([ring.delta.w])
    big, small = ring.parse("x^3+w*x+1"), ring.parse("w*x^2+x+w")
    assert _to_y_i(ring, []) == [] and _from_y_i(ring, []) == []
    assert _to_y_i(ring, w.idx) == list(w.idx)  # constants are fixed
    assert tuple(_to_y_i(ring, ring.x.idx)) == ring.poly([-ring.delta.w, 1]).idx  # x = y - w
    for a, d in [(zero, big), (w, big), (small, big), (big, w), (big, one), (zero, one)]:
        assert a.left_divmod(d) == direct_left_divmod(a, d)
    for a, b in [(zero, big), (big, zero), (w, big), (big, one), (small, big)]:
        assert tuple(gcrd_bezout(a, b)) == direct_gcrd_bezout(a, b)
    for a, b in [(w, big), (big, one), (small, big), (big, big)]:
        assert lclm(a, b) == direct_lclm(a, b)


# -- the row kernels against add_i, mul_i and frob_i ------------------------------------

@pytest.mark.parametrize("q, k", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 8), (5, 2), (3, 3)])
@settings(max_examples=15, deadline=None)
@given(coeffs, coeffs, st.integers(0, 255), st.integers(0, 7), st.integers(0, 3))
def test_row_kernels_match_field_operations(q, k, acc, row, k_raw, power, off):
    field = GF(q, k)
    acc, row = [c % field.size for c in acc], [c % field.size for c in row]
    acc += [0] * (off + len(row) - len(acc))
    for kk in (0, k_raw % field.size):  # k = 0 must leave acc as it is
        want, got = list(acc), list(acc)
        for j, v in enumerate(row):
            want[off + j] = field.add_i(want[off + j], field.mul_i(kk, v))
        field.addmul_i(got, kk, row, off)
        assert got == want
    assert field.frob_row_i(row, power) == [field.frob_i(v, power) for v in row]
    for p in (power, -power):
        assert field.twist_row_i(row, p) == [field.frob_i(v, p * j) for j, v in enumerate(row)]


@pytest.mark.parametrize("params", RINGS, ids=ring_id)
@settings(max_examples=8, deadline=None)
@given(st.integers(0, 255), coeffs)
def test_x_times_matches_field_operations(params, w, c):
    for ring in (delta_ring(params, w), OreRing(GF(*params[:2]), params[2])):
        field, l, wi = ring.field, ring.sigma.l, ring._w
        c = [v % field.size for v in c]
        sc = [field.frob_i(v, l) for v in c]
        want = [0] + sc
        for j, v in enumerate(c):
            want[j] = field.add_i(want[j], field.mul_i(wi, field.sub_i(sc[j], v)))
        assert _x_times_i(ring, c) == want
