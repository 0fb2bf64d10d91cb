"""The skew-polynomial kernels in odd characteristic, where negation and
subtraction are not the identity: GF(9), GF(25) and GF(27) with sigma = phi
(and phi^2 on GF(27)), each with delta = 0 and delta = delta_w."""

import pytest
from hypothesis import given, settings, strategies as st

from orecodes.gf import GF
from orecodes.skewpoly import OreRing, right_eval

RINGS = [
    (q, k, l, w)
    for q, k, l in [(3, 2, 1), (5, 2, 1), (3, 3, 1), (3, 3, 2)]
    for w in (None, 2)  # w = 2 is the index of the primitive element
]


def ring_of(params):
    q, k, l, w = params
    field = GF(q, k)
    return OreRing(field, l, None if w is None else field.element(w))


def ring_id(params):
    q, k, l, w = params
    return f"GF({q}^{k})-phi^{l}-" + ("auto" if w is None else "deriv")


coeffs = st.lists(st.integers(0, 10 ** 6), max_size=8)


def make(ring, raw):
    return ring.poly([ring.field.element(c % ring.field.size) for c in raw])


def naive_mul(ring, a, b):
    """a*b on boxed coefficients from the rule x*r = sigma(r)*x + delta(r) alone."""
    zero = ring.field.zero
    acc = [zero] * (len(a.coeffs) + len(b.coeffs))
    cur = list(b.coeffs)  # x^i * b
    for ai in a.coeffs:
        for j, c in enumerate(cur):
            acc[j] = acc[j] + ai * c
        nxt = [zero] * (len(cur) + 1)
        for j, c in enumerate(cur):
            nxt[j + 1] = nxt[j + 1] + ring.sigma(c)
            nxt[j] = nxt[j] + ring.delta(c)
        cur = nxt
    return ring.poly(acc)


@pytest.mark.parametrize("params", RINGS, ids=ring_id)
@settings(max_examples=40, deadline=None)
@given(a=coeffs, b=coeffs)
def test_mul_matches_naive_reference(params, a, b):
    ring = ring_of(params)
    a, b = make(ring, a), make(ring, b)
    assert a * b == naive_mul(ring, a, b)


@pytest.mark.parametrize("params", RINGS, ids=ring_id)
@settings(max_examples=40, deadline=None)
@given(a=coeffs, d=coeffs)
def test_divmod_reconstructs(params, a, d):
    ring = ring_of(params)
    a, d = make(ring, a), make(ring, d)
    if not d:
        d = ring.one
    q, r = a.right_divmod(d)
    assert q * d + r == a
    assert r.degree < d.degree
    q, r = a.left_divmod(d)
    assert d * q + r == a
    assert r.degree < d.degree


@pytest.mark.parametrize("params", RINGS, ids=ring_id)
def test_divmod_edge_cases(params):
    ring = ring_of(params)
    F = ring.field
    d = make(ring, [5, 7, 1, 11])
    small = make(ring, [3, 4])
    for side in ("right_divmod", "left_divmod"):
        assert getattr(ring.zero, side)(d) == (ring.zero, ring.zero)
        assert getattr(small, side)(d) == (ring.zero, small)  # deg a < deg d
        c = ring.poly([F.gen])  # degree-0 divisor
        q, r = getattr(d, side)(c)
        assert not r
        assert (q * c if side == "right_divmod" else c * q) == d
    with pytest.raises(ZeroDivisionError, match=r"^right division by zero$"):
        d.right_divmod(ring.zero)
    with pytest.raises(ZeroDivisionError, match=r"^left division by zero$"):
        d.left_divmod(ring.zero)


@pytest.mark.parametrize("params", RINGS, ids=ring_id)
@settings(max_examples=40, deadline=None)
@given(g=coeffs, z=st.integers(0, 10 ** 6))
def test_right_eval_is_norm_sum(params, g, z):
    """right_eval, the norm sum sum_i g_i N_i(z), is the remainder of g by x - z."""
    ring = ring_of(params)
    F = ring.field
    g, z = make(ring, g), F.element(z % F.size)
    expected = g.right_divmod(ring.linear(z))[1][0]
    assert right_eval(g, z) == expected
