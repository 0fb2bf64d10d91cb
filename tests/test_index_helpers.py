"""The single index-space helpers of the code layer against boxed reference
loops written here: operator powers (operator_eval, Wronskian and Moore
matrices), the residue rows x^i * g mod f (skew cyclic generator matrices,
right-multiplication matrices, the B of a similarity test) and coordinates
over a fixed subfield.  Rings: GF(9), GF(25), GF(27) and GF(16) with
sigma = phi and phi^2, each with delta = 0 and delta = delta_w."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from orecodes.algset import wronskian
from orecodes.codes import SkewCyclicCode, right_mult_matrix
from orecodes.gf import GF, Automorphism, basis_over_fixed_subfield, fixed_field_coordinates
from orecodes.linearized import moore_matrix
from orecodes.skewpoly import OreRing, gcrd, lclm, operator_eval, similarity_test

RINGS = [
    (q, k, l, w)
    for q, k in [(3, 2), (5, 2), (3, 3), (2, 4)]
    for l in (1, 2)
    for w in (None, 2)  # w = 2 is the index of the primitive element
]


def ring_of(params):
    q, k, l, w = params
    field = GF(q, k)
    return OreRing(field, l, None if w is None else field.element(w))


def ring_id(params):
    q, k, l, w = params
    return f"GF({q}^{k})-phi^{l}-" + ("auto" if w is None else "deriv")


draws = st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=7)


def elements(field, raw):
    return [field.element(c % field.size) for c in raw]


def monic(ring, raw):
    return ring.poly(elements(ring.field, raw) + [ring.field.one])


# -- operator powers -------------------------------------------------------------

def boxed_operator_rows(ring, points, nrows):
    """Row i holds D^i(z_j), by applying the boxed ring.sigma or ring.delta."""
    op = ring.sigma if ring.delta.is_zero else ring.delta
    rows, cur = [], list(points)
    for _ in range(nrows):
        rows.append(cur)
        cur = [op(z) for z in cur]
    return rows


@pytest.mark.parametrize("params", RINGS, ids=ring_id)
@settings(max_examples=25, deadline=None)
@given(raw=draws, at=st.integers(0, 10 ** 6))
def test_operator_eval_matches_boxed_loop(params, raw, at):
    ring = ring_of(params)
    g = ring.poly(elements(ring.field, raw))
    z = ring.field.element(at % ring.field.size)
    powers = boxed_operator_rows(ring, [z], len(raw))
    expected = ring.field.zero
    for c, (d,) in zip(g.coeffs, powers):
        expected = expected + c * d
    assert operator_eval(g, z) == expected


@pytest.mark.parametrize("params", RINGS, ids=ring_id)
@settings(max_examples=25, deadline=None)
@given(raw=draws, extra=st.integers(-1, 2))
def test_wronskian_rows_match_boxed_loop(params, raw, extra):
    ring = ring_of(params)
    points = elements(ring.field, raw)
    nrows = len(points) + extra
    W = wronskian(ring, points, nrows)
    assert (W.nrows, W.ncols) == (nrows, len(points))
    assert W.rows == boxed_operator_rows(ring, points, nrows)
    assert wronskian(ring, points).rows == boxed_operator_rows(ring, points, len(points))


@pytest.mark.parametrize("q, k", [(3, 2), (5, 2), (3, 3), (2, 4)])
@settings(max_examples=25, deadline=None)
@given(raw=draws)
def test_moore_matrix_matches_frobenius_rows(q, k, raw):
    field = GF(q, k)
    X = elements(field, raw)
    rows = [[z ** (q ** i) for z in X] for i in range(len(X))]
    assert moore_matrix(field, X).rows == rows


# -- residue rows x^i * g mod f -----------------------------------------------------

def boxed_residue_rows(ring, g, f, count):
    """Coefficients of x^i * g mod f, each step one boxed (x * cur) mod f."""
    rows, cur = [], g.right_divmod(f)[1]
    for _ in range(count):
        rows.append([cur[j] for j in range(f.degree)])
        cur = (ring.x * cur).right_divmod(f)[1]
    return rows


@pytest.mark.parametrize("params", RINGS, ids=ring_id)
@settings(max_examples=25, deadline=None)
@given(graw=draws, hraw=draws)
def test_generator_matrix_matches_boxed_loop(params, graw, hraw):
    ring = ring_of(params)
    g, h = monic(ring, graw[:3]), monic(ring, hraw[:3])
    code = SkewCyclicCode(ring, h * g, g)
    assert code.generator_matrix().rows == boxed_residue_rows(ring, g, h * g, code.dim)


AUTO_RINGS = [p for p in RINGS if p[3] is None]


@pytest.mark.parametrize("params", AUTO_RINGS, ids=ring_id)
@settings(max_examples=25, deadline=None)
@given(raw=draws)
def test_right_mult_matrix_matches_boxed_loop(params, raw):
    ring = ring_of(params)
    n = ring.s
    g = ring.poly(elements(ring.field, raw))
    f = ring.monomial(n) - ring.one
    assert right_mult_matrix(ring, g, n).rows == boxed_residue_rows(ring, g, f, n)


@pytest.mark.parametrize("params", [p for p in AUTO_RINGS if p[2] % p[1]], ids=ring_id)
@settings(max_examples=10, deadline=None)
@given(praw=st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=2), hraw=draws)
def test_similarity_matrix_rows_match_boxed_loop(params, praw, hraw):
    """g = lclm(p, h) / p is similar to h whenever gcrd(p, h) = 1 (sigma is
    not the identity, so g can differ from h); the rows of B are x^i * p'
    mod h for the p' the search finds, p' being row 0."""
    ring = ring_of(params)
    h = monic(ring, hraw[:2])
    p = ring.poly(elements(ring.field, praw))
    assume(p and gcrd(p, h).degree == 0)
    g = lclm(p, h).right_divmod(p)[0].monic()
    assume(g != h)
    ok, B = similarity_test(g, h)
    assert ok
    found = ring.poly(B.rows[0])
    assert B.rows == boxed_residue_rows(ring, found, h, h.degree)


# -- coordinates over the fixed subfield ---------------------------------------------

def span_closure_basis(sigma):
    """Greedy basis over F^sigma in index order, skipping every element of
    the span (a set of boxed elements) built so far."""
    field = sigma.field
    sub = [z for z in field.elements() if sigma(z) == z]
    basis, span = [], {field.zero}
    for z in field.elements():
        if z not in span:
            basis.append(z)
            span = {s + c * z for s in span for c in sub}
    assert len(span) == field.size
    return basis


@pytest.mark.parametrize("q, k, l", [(2, 4, 1), (2, 4, 2), (2, 6, 1), (2, 6, 2), (3, 4, 2)])
def test_fixed_subfield_basis_and_coordinates(q, k, l):
    field = GF(q, k)
    sigma = Automorphism(field, l)
    basis = span_closure_basis(sigma)
    assert list(basis_over_fixed_subfield(sigma)) == basis
    got_basis, table = fixed_field_coordinates(sigma)
    assert list(got_basis) == basis
    assert len(set(table)) == field.size
    for z in field.elements():
        coords = [field.element(c) for c in table[z.idx]]
        assert all(sigma(c) == c for c in coords)
        total = field.zero
        for c, b in zip(coords, basis):
            total = total + c * b
        assert total == z
