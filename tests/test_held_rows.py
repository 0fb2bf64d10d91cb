"""A SkewPoly holds one row of its field's row operations (FiniteField.rows):
a packed int for GF(2^8), a list of indices without a zero tail for GF(9) and
GF(2^9).  No operation or kernel may change the row of an operand, since
results share rows with operands and a Zech kernel's addmul writes into its
accumulator; and the row is the polynomial, so equal polynomials built by
different routes compare and hash equal, and p[i] reads zero outside
0 .. deg p."""

import itertools
import random

import pytest

from orecodes.gf import GF
from orecodes.skewpoly import (OreRing, _from_idx, _from_y_i, _to_y_i, gcrd_bezout, lclm, remove_derivation,
                               residue_rows_i, two_sided_test)

# GF(2^8) packs its rows (gf.ByteRows); GF(9) and GF(2^9) keep Zech lists (gf.ZechRows)
FIELDS = [(2, 8), (3, 2), (2, 9)]
KINDS = ["sigma", "delta"]


def make_ring(q, k, kind):
    field = GF(q, k)
    return OreRing(field, 1, field.gen if kind == "delta" else None)


def rand_poly(rng, ring, degree):
    size = ring.field.size
    return _from_idx(ring, [rng.randrange(size) for _ in range(degree)] + [rng.randrange(1, size)])


def operand_pairs(ring, rng):
    """Random pairs in both degree orders, a pair with a common right factor, the ring's own
    zero, one and x, a polynomial with itself, and pairs whose results share an operand's row
    (a remainder of a lower-degree dividend, a cancelling difference)."""
    a, b, c = (rand_poly(rng, ring, d) for d in (7, 4, 2))
    low = rand_poly(rng, ring, 1)
    pairs = [(a, b), (b, a), (a * c, b * c), (a, ring.one), (ring.one, a), (ring.x, a), (a, a),
             (low, a), (low.right_divmod(a)[1], a), ((a + b) - a, b)]
    return pairs + [(ring.zero, a), (a, ring.zero)]


def operations(ring, p, r):
    """Every operation on the operands p and r that the ring admits, and the change of variable
    both ways on the row of p."""
    yield lambda: p + r
    yield lambda: p - r
    yield lambda: -p
    yield lambda: p * r
    yield lambda: ring.field.gen * p
    if r:
        yield lambda: p.right_divmod(r)
        yield lambda: p.left_divmod(r)
    if p or r:
        yield lambda: gcrd_bezout(p, r)
    if p and r:
        yield lambda: lclm(p, r)
    if ring.is_auto_type:
        yield lambda: two_sided_test(p)
    yield lambda: remove_derivation(ring, p.row)
    yield lambda: _to_y_i(ring, p.row)
    yield lambda: _from_y_i(ring, p.row)
    if r.is_monic and r.degree >= 1:
        yield lambda: list(itertools.islice(residue_rows_i(ring, p.row, r.row), 2 * r.degree + 2))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("q, k", FIELDS)
def test_no_operation_changes_its_operands(q, k, kind):
    ring = make_ring(q, k, kind)
    rows, rng = ring.field.rows, random.Random(q ** k)
    held = [ring.zero, ring.one, ring.x]
    for p, r in operand_pairs(ring, rng):
        for op in operations(ring, p, r.monic() if r else r):
            operands = held + [p, r]
            before = [(g.idx, rows.shift(g.row, 0)) for g in operands]  # shift(row, 0) is a copy
            op()
            assert [(g.idx, g.row) for g in operands] == before


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("q, k", FIELDS)
def test_coefficients_outside_the_degree_are_zero(q, k, kind):
    ring = make_ring(q, k, kind)
    zero = ring.field.zero
    for p in (ring.zero, ring.one, ring.x, ring.parse("x^3+w*x+1"), rand_poly(random.Random(1), ring, 12)):
        assert [p[i] for i in (-2, -1, p.degree + 1, p.degree + 9)] == [zero] * 4
        assert [p[i] for i in range(p.degree + 1)] == list(p.coeffs)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("q, k", FIELDS)
def test_equal_polynomials_by_different_routes_compare_and_hash_equal(q, k, kind):
    ring = make_ring(q, k, kind)
    field = ring.field
    rng = random.Random(q + k)
    for degree in (0, 1, 5, 12):
        p = rand_poly(rng, ring, degree)
        top = ring.monomial(degree + 3, field.gen)
        routes = [ring.poly(list(p.coeffs) + [field.zero] * 3), _from_idx(ring, list(p.idx) + [0, 0]),
                  (p + top) - top, (top + p) + (-top), p * ring.one]
        for other in routes:
            assert other == p and hash(other) == hash(p)
            assert (other.degree, other.lc(), other.is_monic) == (p.degree, p.lc(), p.is_monic)
        cancelled = [p - p, p + (-p), _from_idx(ring, [0, 0, 0]), ring.poly([field.zero] * 4)]
        for z in cancelled:
            assert z == ring.zero and hash(z) == hash(ring.zero)
            assert (z.degree, bool(z), z.idx) == (-1, False, ())
