"""Ring axioms of the skew PBW normal-form arithmetic on the five shipped
presentations: associativity, both distributive laws, additive inverses,
scaling as left multiplication by a constant (and linear combinations as
sums of scalings), and the reconstruction sum q_i d_i + h = f of the
division algorithm."""

import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from orecodes.spbw import divide, load_presentation

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
NAMES = ["qplane4", "qplane9", "qspace3", "weyl1z", "witten"]
LITERALS = {"Q": ["1", "-1", "2", "1/2", "-3/2"], "Q(i)": ["1", "i", "-i", "1+i", "2-i", "1/2"]}


@pytest.fixture(scope="module", params=NAMES)
def A(request):
    return load_presentation(os.path.join(ROOT, "presentations", f"{request.param}.json"))


def scalars(A):
    if A.domain.is_finite:
        return [z for z in A.domain.elements() if z]
    return [A.domain.parse(c) for c in LITERALS[A.domain.name]]


def polys(A):
    """Up to three terms of total degree at most 3."""
    alpha = st.tuples(*[st.integers(0, 3)] * A.n).filter(lambda a: sum(a) <= 3)
    return st.dictionaries(alpha, st.sampled_from(scalars(A)), max_size=3).map(A.poly)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ring_axioms(A, data):
    f, g, h = (data.draw(polys(A)) for _ in range(3))
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (g + h) * f == g * f + h * f
    assert not (f - f)
    assert (f + g) - g == f
    c, d = (data.draw(st.sampled_from(scalars(A))) for _ in range(2))
    assert f.scale(c) == A.constant(c) * f
    assert A.combination([c, d], [f, g]) == f.scale(c) + g.scale(d)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_division_reconstructs(A, data):
    f, d1, d2 = (data.draw(polys(A)) for _ in range(3))
    assume(d1 and d2)
    for divisors in ([d1, d2], [d2]):
        res = divide(f, divisors)
        total = res.remainder
        for q, d in zip(res.quotients, divisors):
            total = total + q * d
        assert total == f
