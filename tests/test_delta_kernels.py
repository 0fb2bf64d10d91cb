"""The kernels of F[x;sigma,delta_w] that run in its untwisted image F[y;sigma]
(y = x + w): left division (also with delta = 0, where it runs through the
anti-isomorphism psi: F[x;sigma] -> F[x;sigma^-1]), gcrd with its Bezout
cofactors and lclm, against the direct algorithms kept here as references; the
row loop of the Euclid algorithm against the SkewPoly loop it replaced; the
change of variable and psi themselves; the row operations of gf (FiniteField.rows,
packed or Zech) and skewpoly._x_times_i against loops over add_i, mul_i and
frob_i, and every row they return for a zero tail; and the product and right
division over GF(2^8) against the Zech loop.  The kernels take and return
rows of FiniteField.rows; as_idx reads one as a list of indices.  Rings:
GF(4), GF(8), GF(9), GF(16), GF(25), GF(27) and GF(256), every sigma = phi^l;
the row operations and the Euclid loop also over GF(2^9), the row operations
also over GF(2), GF(3) and GF(5)."""

import pytest
from hypothesis import given, settings, strategies as st

from orecodes.gf import GF, ByteRows, ZechRows
from orecodes.skewpoly import (OreRing, _from_row, _from_y_i, _mul_i, _right_divmod_i, _right_euclid, _to_y_i,
                               _x_times_i, gcrd_bezout, lclm, remove_derivation)

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


def twist_i(field, row, p):
    """phi^(p*j) on entry j of an index list: psi for p = -l, the reference for rows.twist."""
    return [field.frob_i(v, p * j) for j, v in enumerate(row)]


def as_idx(field, row):
    """The indices of a row of field.rows, without its zero tail."""
    return field.rows.unpack(row, field.rows.length(row))


# -- the direct delta_w algorithms, the references --------------------------------

def direct_left_divmod(a, d):
    """a = d*q + r: the top coefficient c of r at x^{e + deg d} is removed by
    d * (qc x^e), qc = sigma^{-deg d}(c / lc(d)), multiplied in the delta_w ring.
    Each step lowers deg r, so deg a - deg d + 1 steps must reach deg r < deg d."""
    ring = a.ring
    q, r = ring.zero, a
    for _ in range(a.degree - d.degree + 1):
        if r.degree < d.degree:
            break
        term = ring.monomial(r.degree - d.degree, ring.sigma(r.lc() / d.lc(), -d.degree))
        q, r = q + term, r - d * term
    assert r.degree < d.degree, "a division step did not lower the degree of the remainder"
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

    def image(p):
        return _from_row(*remove_derivation(ring, p.row))

    ya = image(a)
    assert ya.ring.is_auto_type and ya.ring.sigma == ring.sigma
    assert ya.degree == a.degree
    assert tuple(as_idx(ring.field, _from_y_i(ring, ya.row))) == a.idx
    assert image(a * b) == ya * image(b)
    assert image(a + b) == ya + image(b)


@pytest.mark.parametrize("params", RINGS, ids=ring_id)
@settings(max_examples=8, deadline=None)
@given(coeffs, coeffs)
def test_twist_is_the_anti_isomorphism_onto_the_opposite_ring(params, a, b):
    q, k, l = params
    field = GF(q, k)
    ring, op = OreRing(field, l), OreRing(field, -l)
    a, b = poly(ring, a), poly(ring, b)

    def psi(p):
        return _from_row(op, field.rows.twist(p.row, -l))

    assert list(psi(a).idx) == twist_i(field, list(a.idx), -l)
    assert psi(a * b) == psi(b) * psi(a)
    assert psi(a + b) == psi(a) + psi(b)
    assert psi(ring.x) == op.x and psi(ring.one) == op.one
    assert field.rows.twist(psi(a).row, l) == a.row


@pytest.mark.parametrize("q, k", FIELDS)
def test_edge_cases_match_direct(q, k):
    ring = delta_ring((q, k, 1), 1)
    zero, one, w = ring.zero, ring.one, ring.poly([ring.delta.w])
    big, small = ring.parse("x^3+w*x+1"), ring.parse("w*x^2+x+w")
    assert not _to_y_i(ring, zero.row) and not _from_y_i(ring, zero.row)
    assert _to_y_i(ring, w.row) == w.row  # constants are fixed
    assert tuple(as_idx(ring.field, _to_y_i(ring, ring.x.row))) == ring.poly([-ring.delta.w, 1]).idx  # x = y - w
    for a, d in [(zero, big), (w, big), (small, big), (big, w), (big, one), (zero, one)]:
        assert a.left_divmod(d) == direct_left_divmod(a, d)
    for a, b in [(zero, big), (big, zero), (w, big), (big, one), (small, big)]:
        assert tuple(gcrd_bezout(a, b)) == direct_gcrd_bezout(a, b)
    for a, b in [(w, big), (big, one), (small, big), (big, big)]:
        assert lclm(a, b) == direct_lclm(a, b)


# -- the Euclid row loop against the SkewPoly loop ------------------------------------

# GF(2^8) packs its rows; GF(9), GF(25) and GF(2^9) keep the Zech loop
EUCLID_RINGS = [(2, 8, l) for l in (0, 1, 3, 7)] + [(3, 2, 0), (3, 2, 1), (5, 2, 1), (2, 9, 0), (2, 9, 2), (2, 9, 5)]


def skewpoly_right_euclid(g1, g2):
    """_right_euclid as SkewPoly operations: r0.right_divmod(r1) and u0 - q*u1 on the images
    in F[y;sigma], each step a division, a product and a difference."""
    (target, a), (_, b) = remove_derivation(g1.ring, g1.row), remove_derivation(g2.ring, g2.row)
    return tuple(list(p.idx) for p in direct_right_euclid(_from_row(target, a), _from_row(target, b)))


def row_right_euclid(g1, g2):
    """_right_euclid on the rows of g1 and g2, each row read as indices."""
    return tuple(as_idx(g1.ring.field, p) for p in _right_euclid(g1.ring, g1.row, g2.row))


def euclid_pairs(ring, a, b, c):
    """A planted common right factor, a zero operand, g1 | g2 (both ways) and equal degrees."""
    top = ring.monomial(1 + max(a.degree, b.degree, 0))
    pairs = [(a * c, b * c), (ring.zero, a), (a, ring.zero), (c, b * c), (b * c, c), (a + top, b - top)]
    return [(g1, g2) for g1, g2 in pairs if g1 or g2]


@pytest.mark.parametrize("params", EUCLID_RINGS, ids=ring_id)
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 255), coeffs, coeffs, coeffs)
def test_right_euclid_row_loop_matches_the_skewpoly_loop(params, w, a, b, c):
    for ring in (delta_ring(params, w), OreRing(GF(*params[:2]), params[2])):
        a_, b_, c_ = poly(ring, a), poly(ring, b), poly(ring, c) or ring.one
        for g1, g2 in euclid_pairs(ring, a_, b_, c_):
            assert row_right_euclid(g1, g2) == skewpoly_right_euclid(g1, g2)


def test_right_euclid_edge_cases():
    for q, k, l in EUCLID_RINGS:
        for ring in (delta_ring((q, k, l), 1), OreRing(GF(q, k), l)):
            big, small = ring.parse("x^3+w*x+1"), ring.parse("w*x^2+x+w")
            one, zero = ring.one, ring.zero
            for g1, g2 in [(big, zero), (zero, big), (one, big), (big, one), (big, big), (small * big, big),
                           (big, small * big), (small, big), (big * small, small * small)]:
                assert row_right_euclid(g1, g2) == skewpoly_right_euclid(g1, g2)
            r, u, u_next = row_right_euclid(big, zero)
            assert (r, u, u_next) == (as_idx(ring.field, remove_derivation(ring, big.row)[1]), [1], [])


# -- the row operations against add_i, mul_i and frob_i ---------------------------------

# GF(2), GF(4), GF(8), GF(16) and GF(2^8) pack their rows; GF(3), GF(5), GF(9), GF(27), GF(25)
# and GF(2^9) keep the Zech loop
PACKED = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 8)]
ZECH = [(3, 1), (5, 1), (3, 2), (3, 3), (5, 2), (2, 9)]
rows_st = st.lists(st.integers(0, 1 << 9), max_size=20)  # longer than 8 bytes


def test_fields_pick_their_row_kind():
    for q, k in PACKED:
        assert type(GF(q, k).rows) is ByteRows
    for q, k in ZECH:
        assert type(GF(q, k).rows) is ZechRows


def trimmed(row):
    """row without its zero tail, the row that length counts."""
    row = list(row)
    while row and not row[-1]:
        row.pop()
    return row


def check_rows(field, acc, row, kk, power, off):
    """Every row operation of field.rows on acc and row against the per-element loop."""
    ops, size = field.rows, field.size
    acc, row = [c % size for c in acc], [c % size for c in row]
    n = max(len(acc), off + len(row))
    assert ops.length(ops.pack(row)) == len(trimmed(row))
    assert ops.unpack(ops.pack(row), len(row) + off) == row + [0] * off
    assert [ops.coeff(ops.pack(row), j) for j in range(len(row) + 2)] == row + [0, 0]
    assert ops.unpack(ops.shift(ops.pack(row), off), len(row) + off) == [0] * off + row
    assert ops.unpack(ops.shift(ops.pack(row), -off), len(row)) == row[off:] + [0] * min(off, len(row))
    assert ops.unpack(ops.frob(ops.pack(row), power), len(row)) == [field.frob_i(v, power) for v in row]
    for p in (power, -power):
        assert ops.unpack(ops.twist(ops.pack(row), p), len(row)) == twist_i(field, row, p)
    for k in (0, 1, kk % size):
        want = acc + [0] * (n - len(acc))
        for j, v in enumerate(row):
            want[off + j] = field.add_i(want[off + j], field.mul_i(k, v))
        out = ops.addmul(ops.pack(acc), k, ops.pack(row), off)
        assert ops.unpack(out, n) == want
        length = ops.length(out)
        assert length == len(trimmed(want)) and ops.unpack(out, length) == trimmed(want)


@pytest.mark.parametrize("q, k", PACKED + ZECH)
@settings(max_examples=15, deadline=None)
@given(rows_st, rows_st, st.integers(0, 1 << 9), st.integers(-9, 9), st.integers(0, 10))
def test_row_kernels_match_field_operations(q, k, acc, row, k_raw, power, off):
    field = GF(q, k)
    check_rows(field, acc, row, k_raw, power, off)


@pytest.mark.parametrize("q, k", PACKED + ZECH)
def test_row_edge_cases(q, k):
    field = GF(q, k)
    ops, top = field.rows, field.size - 1
    for acc, row in [([], []), ([], [1]), ([top], []), ([1], [top]), ([0] * 3, [0] * 2), ([top] * 12, [1] * 11)]:
        for off in (0, 1, 9):
            check_rows(field, acc, row, top, 1, off)
    # rows shorter and longer than k and than a power of two, and a shorter row after a long
    # one (ByteRows.twist cycles its tables from entry 0 on every call); phi^p of both signs
    for n in (1, 2, 3, 8, 9, 32, 33, 64, 65, 129, 40):
        row = [(7 * j + 1) % field.size for j in range(n - 1)] + [top]
        for power in (1, 3, field.k, 2 * field.k + 1):
            check_rows(field, row[::2], row, top, power, 2)
    # the top entry cancels: k*row added to -k*row (and to a longer row with that top)
    row = [c % field.size for c in range(1, 12)] + [top]
    minus = [field.mul_i(field.neg_i(1), field.mul_i(top, v)) for v in row]
    cancelled = ops.addmul(ops.pack(minus), top, ops.pack(row))
    assert ops.unpack(cancelled, len(row)) == [0] * len(row)
    assert ops.length(cancelled) == 0
    longer = [1] * 5 + minus[5:]
    cancelled = ops.addmul(ops.pack(longer), top, ops.pack(row[5:]), 5)
    assert ops.unpack(cancelled, len(row)) == [1] * 5 + [0] * (len(row) - 5)
    assert ops.length(cancelled) == 5 and ops.unpack(cancelled, 5) == [1] * 5


def assert_canonical(ops, row, n):
    """row, of at most n entries, has no zero tail: bool(row) means nonzero, a Zech list ends
    in a nonzero entry, and length reads the number of entries up to the last nonzero one."""
    entries = ops.unpack(row, n)
    assert bool(row) == any(entries)
    if type(row) is list:
        assert not row or row[-1]
    assert ops.length(row) == len(trimmed(entries))


@pytest.mark.parametrize("q, k", [(3, 1), (3, 2), (5, 2), (2, 9), (2, 8)])
def test_every_row_operation_returns_a_canonical_row(q, k):
    """Over the Zech fields GF(3), GF(9), GF(25) and GF(2^9) (and GF(2^8), whose ints have no
    zero tail to keep), == and bool of every row mean polynomial equality and nonzero."""
    field = GF(q, k)
    ops, top, minus_one = field.rows, field.size - 1, field.neg_i(1)
    x = ops.pack([0, 1])
    assert ops.addmul(ops.shift(x, 0), minus_one, x) == ops.pack(())  # x - x
    assert not ops.addmul(ops.shift(x, 0), minus_one, x)
    assert ops.pack([1, 0, 0]) == ops.pack([1]) and not ops.pack([0, 0])
    assert ops.shift(ops.pack([]), 2) == ops.pack(()) and not ops.shift(ops.pack([]), 2)
    for raw in ([], [0, 0], [1], [1, 0, 0], [0, 0, top], [top] * 5 + [0, 0], list(range(1, field.size))[:12]):
        row, n = ops.pack(raw), 2 * len(raw) + 4
        minus = ops.addmul(ops.pack(()), minus_one, row)
        outs = [row, minus, ops.addmul(ops.shift(row, 0), 1, minus), ops.addmul(ops.shift(row, 0), 1, minus, 1),
                ops.addmul(ops.pack([1]), 0, row, 3), ops.addmul(ops.pack(()), 1, ops.pack(()), 3),
                ops.shift(row, 2), ops.shift(row, 0), ops.shift(row, -1), ops.shift(row, -n),
                ops.frob(row, 1), ops.frob(row, -1), ops.twist(row, 1), ops.twist(row, -1)]
        for out in outs:
            assert_canonical(ops, out, n)
        assert ops.addmul(ops.shift(row, 0), 1, minus) == ops.pack(())  # row - row


# -- x times a row, the product and right division against the Zech loop -------------
# (the kernels before packed rows, on add_i, mul_i and frob_i)

def zech_x_times(ring, c):
    field, l, w = ring.field, ring.sigma.l, ring._w
    sc = [field.frob_i(v, l) for v in c]
    out = [0] + sc
    for j, v in enumerate(c):
        out[j] = field.add_i(out[j], field.mul_i(w, field.sub_i(sc[j], v)))
    return out


@pytest.mark.parametrize("params", RINGS, ids=ring_id)
@settings(max_examples=8, deadline=None)
@given(st.integers(0, 255), coeffs)
def test_x_times_matches_field_operations(params, w, c):
    for ring in (delta_ring(params, w), OreRing(GF(*params[:2]), params[2])):
        ops = ring.field.rows
        c = [v % ring.field.size for v in c]
        assert ops.unpack(_x_times_i(ring, ops.pack(c)), len(c) + 1) == zech_x_times(ring, c)


def zech_rows(ring, d, count):
    """x^e * d for e < count, each a full list of indices."""
    rows = [list(d)]
    for _ in range(count - 1):
        rows.append(zech_x_times(ring, rows[-1]))
    return rows


def zech_mul(ring, a, b):
    field = ring.field
    acc = [0] * (len(a) + len(b) - 1)
    for ai, row in zip(a, zech_rows(ring, b, len(a))):
        for j, v in enumerate(row):
            acc[j] = field.add_i(acc[j], field.mul_i(ai, v))
    return acc


def zech_right_divmod(ring, a, d):
    field, dd = ring.field, len(d) - 1
    r, count = list(a), len(a) - dd
    if count <= 0:
        return [], r
    q, rows = [0] * count, zech_rows(ring, d, count)
    for e in range(count - 1, -1, -1):
        row = rows[e]
        q[e] = qc = field.mul_i(r[e + dd], field.inv_i(row[-1]))
        for j, v in enumerate(row):
            r[j] = field.sub_i(r[j], field.mul_i(qc, v))
    return q, r[:dd]


@pytest.mark.parametrize("kind", ["sigma", "delta"])
@settings(max_examples=25, deadline=None)
@given(st.integers(1, 255), st.integers(0, 7), st.integers(0, 64), st.integers(0, 64), st.randoms())
def test_mul_and_right_divmod_match_the_zech_loop(kind, w, l, da, dd, rng):
    field = GF(2, 8)
    ring = OreRing(field, l, field.element(w)) if kind == "delta" else OreRing(field, l)
    a = [rng.randrange(256) for _ in range(da)] + [rng.randrange(1, 256)]
    d = [rng.randrange(256) for _ in range(dd)] + [rng.randrange(1, 256)]
    a_row, d_row = field.rows.pack(a), field.rows.pack(d)
    assert as_idx(field, _mul_i(ring, a_row, d_row)) == trimmed(zech_mul(ring, a, d))
    assert [as_idx(field, p) for p in _right_divmod_i(ring, a_row, d_row)] == [
        trimmed(p) for p in zech_right_divmod(ring, a, d)]
