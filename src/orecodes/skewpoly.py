"""The Ore extension A = F[x; sigma, delta] over a finite field.

Polynomials are tuples of field indices (low degree first, trailing zeros
trimmed), boxed as FieldElements only by coeffs, p[i] and lc(); the kernels
apply x*r = sigma(r)*x + delta(r) on indices through gf's row kernels.  With
delta = delta_w, y = x + w gives A = F[y; sigma] (y*r = sigma(r)*y; Lam-Leroy
1988): left division and the Euclid loop of gcrd/lclm run there, on
conversions of n(n+1)/2 capped steps for degree n; products, right division
and every certificate stay in A.  Left division is right division through the
anti-isomorphism psi: F[y; sigma] -> F[y; sigma^-1] (gf.twist_row_i).  All
divisions are exact; gcrd/lclm come with Bezout certificates; evaluation,
conjugacy, two-sided/bound polynomials, similarity and brute-force
factorization follow the conventions of noncommutative coding theory.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import NamedTuple

from .errors import DomainError, capped, verify
from .gf import (Automorphism, FieldElement, FiniteField, InnerDerivation, element_str, literal_int,
                 parse_element, split_factors, split_terms)
from .linalg import Matrix, dot_i, kernel_i


# a dense polynomial holds degree + 1 coefficients, so a larger degree is
# refused before it is allocated
MAX_DEGREE = 1 << 16
# a brute-force search over more candidates is refused before it starts
MAX_SEARCH = 1 << 16


class OreRing:
    """F[x; phi^l, delta_w] with delta_w(z) = w*(sigma(z) - z)."""

    def __init__(self, field: FiniteField, sigma_power: int = 0, w=None):
        self.field = field
        self.sigma = Automorphism(field, sigma_power)
        if isinstance(w, int):
            w = field.from_int(w)
        self.delta = InnerDerivation(self.sigma, w)
        self._w = 0 if self.delta.is_zero else self.delta.w.idx  # index of w; 0 when delta = 0
        self.zero = _from_idx(self, [])
        self.one = _from_idx(self, [1])
        self.x = _from_idx(self, [0, 1])

    @property
    def is_auto_type(self) -> bool:
        return self.delta.is_zero

    @property
    def s(self) -> int:
        """Order of sigma; the center of F[x;sigma] is F^sigma[x^s]."""
        return self.sigma.order

    def poly(self, coeffs) -> "SkewPoly":
        return SkewPoly(self, coeffs)

    def monomial(self, degree: int, coeff=1) -> "SkewPoly":
        degree = capped(degree, MAX_DEGREE, "monomial of degree")
        return _from_idx(self, [0] * degree + [field_index(self.field, coeff)])

    def linear(self, z: FieldElement) -> "SkewPoly":
        """The polynomial x - z."""
        return _from_idx(self, [self.field.neg_i(field_index(self.field, z)), 1])

    def parse(self, text: str, var: str = "x") -> "SkewPoly":
        return parse_poly(self, text, var)

    def all_polys(self, degree: int):
        """Iterate monic polynomials of exactly the given degree in
        coefficient-lex order; more than MAX_SEARCH of them are refused."""
        q = self.field.size
        capped(q ** degree, MAX_SEARCH, f"monic search space |F|^d = {q}^{degree} =")
        for tail in itertools.product(range(q), repeat=degree):
            yield _from_idx(self, [*tail, 1])

    def __eq__(self, other):
        # the key of __hash__: _w is 0 exactly when delta is zero
        return (
            isinstance(other, OreRing)
            and self.field is other.field
            and self.sigma.l == other.sigma.l
            and self._w == other._w
        )

    def __hash__(self):
        return hash((id(self.field), self.sigma.l, self._w))

    def __repr__(self):
        d = "" if self.delta.is_zero else f",delta_w={self.delta.w!r}"
        return f"{self.field!r}[x;phi^{self.sigma.l}{d}]"


def field_index(field: FiniteField, c) -> int:
    """Index of c, an element of field or an integer (mapped into the prime subfield)."""
    if isinstance(c, FieldElement) and c.field is field:
        return c.idx
    if isinstance(c, int):
        return field.from_int(c).idx
    raise DomainError("element from a different field")


def _trimmed(idx: list) -> tuple:
    while idx and not idx[-1]:
        idx.pop()
    return tuple(idx)


def _from_idx(ring: OreRing, idx: list) -> "SkewPoly":
    """The polynomial with coefficient indices idx (a list, trimmed in place)."""
    p = SkewPoly.__new__(SkewPoly)
    p.ring = ring
    p.idx = _trimmed(idx)
    return p


class SkewPoly:
    __slots__ = ("ring", "idx")

    def __init__(self, ring: OreRing, coeffs=()):
        self.ring = ring
        self.idx = _trimmed([field_index(ring.field, c) for c in coeffs])

    @property
    def coeffs(self) -> tuple:
        field = self.ring.field
        return tuple(FieldElement(field, c) for c in self.idx)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg(0) = -1."""
        return len(self.idx) - 1

    def lc(self) -> FieldElement:
        if not self.idx:
            raise DomainError("leading coefficient of the zero polynomial")
        return FieldElement(self.ring.field, self.idx[-1])

    @property
    def is_monic(self) -> bool:
        return bool(self.idx) and self.idx[-1] == 1

    def monic(self) -> "SkewPoly":
        if not self.idx:
            raise DomainError("cannot normalize the zero polynomial")
        if self.is_monic:
            return self
        return self.lc().inverse() * self

    def __getitem__(self, i: int) -> FieldElement:
        return FieldElement(self.ring.field, self.idx[i] if 0 <= i < len(self.idx) else 0)

    def _check(self, other):
        if not isinstance(other, SkewPoly):
            raise DomainError("expected a skew polynomial")
        if other.ring != self.ring:
            raise DomainError("polynomials from different Ore rings")

    def _plus(self, other: "SkewPoly", k: int) -> "SkewPoly":
        """self + k*other for the field index k: one addmul_i on a copy of self."""
        out = list(self.idx) + [0] * (len(other.idx) - len(self.idx))
        self.ring.field.addmul_i(out, k, other.idx)
        return _from_idx(self.ring, out)

    def __add__(self, other):
        self._check(other)
        return self._plus(other, 1)

    def __neg__(self):
        return self.ring.zero._plus(self, self.ring.field.neg_i(1))

    def __sub__(self, other):
        self._check(other)
        return self._plus(other, self.ring.field.neg_i(1))

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = self.ring.poly([other])
        self._check(other)
        return _from_idx(self.ring, _mul_i(self.ring, self.idx, other.idx))

    def __rmul__(self, other):
        # left multiplication by a constant does not twist coefficients
        if isinstance(other, (int, FieldElement)):
            return self.ring.zero._plus(self, field_index(self.ring.field, other))
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative power of a polynomial")
        out = self.ring.one
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SkewPoly)
            and self.ring == other.ring
            and self.idx == other.idx
        )

    def __hash__(self):
        return hash((self.ring, self.idx))

    def __bool__(self):
        return bool(self.idx)

    def __repr__(self):
        return poly_str(self)

    # -- division ------------------------------------------------------------

    def right_divmod(self, d: "SkewPoly"):
        """q, r with self = q*d + r and deg r < deg d."""
        self._check(d)
        if not d:
            raise ZeroDivisionError("right division by zero")
        q, r = _right_divmod_i(self.ring, self.idx, d.idx)
        return _from_idx(self.ring, q), _from_idx(self.ring, r)

    def left_divmod(self, d: "SkewPoly"):
        """q, r with self = d*q + r and deg r < deg d.  With y = x + w (see _to_y_i) and
        psi = twist_row_i(., -l), the anti-isomorphism F[y;sigma] -> F[y;sigma^-1], this is
        psi(self) = psi(q)*psi(d) + psi(r): a right division in F[y;sigma^-1], mapped back by psi^-1."""
        self._check(d)
        if not d:
            raise ZeroDivisionError("left division by zero")
        ring, field, l = self.ring, self.ring.field, self.ring.sigma.l
        q, r = _right_divmod_i(_sigma_ring(field, -l), _to_y_i(ring, self.idx), _to_y_i(ring, d.idx))
        return tuple(_from_idx(ring, _from_y_i(ring, field.twist_row_i(p, l))) for p in (q, r))

    def right_divides(self, g: "SkewPoly") -> bool:
        return not g.right_divmod(self)[1]

    def left_divides(self, g: "SkewPoly") -> bool:
        return not g.left_divmod(self)[1]


# -- index-space kernels (lists of field indices, low degree first) ----------------

def _x_times_i(ring: OreRing, c) -> list:
    """x * sum c_j x^j = sum sigma(c_j) x^{j+1} + delta(c_j) x^j, delta(c) = w*sigma(c) - w*c."""
    field, w = ring.field, ring._w
    sc = field.frob_row_i(c, ring.sigma.l)
    out = [0] + sc
    if w:
        field.addmul_i(out, w, sc)
        field.addmul_i(out, field.neg_i(w), c)
    return out


MAX_DELTA_ROWS = 1 << 20


def _x_power_rows(ring: OreRing, d, count: int) -> list:
    """(off, row) for e = 0 .. count-1 with x^e * d = sum_j row[j] x^{off+j}.
    With delta = 0 the row is sigma^e(d) at offset e, and sigma^e depends only
    on e mod s; otherwise each row is x times the previous one, and the rows
    hold count*len(d) + count*(count-1)/2 coefficients, which is capped."""
    if ring._w:
        capped(count * len(d) + count * (count - 1) // 2, MAX_DELTA_ROWS,
               "x^e*d rows in a ring with delta: coefficient count")
        rows = [list(d)]
        for _ in range(count - 1):
            rows.append(_x_times_i(ring, rows[-1]))
        return [(0, row) for row in rows]
    field, l, s = ring.field, ring.sigma.l, ring.s
    twisted = [field.frob_row_i(d, l * e) for e in range(min(s, count))]
    return [(e, twisted[e % s]) for e in range(count)]


def _mul_i(ring: OreRing, a, b) -> list:
    """a * b = sum_i a_i (x^i * b)."""
    if not a or not b:
        return []
    acc = [0] * (len(a) + len(b) - 1)
    for ai, (off, row) in zip(a, _x_power_rows(ring, b, len(a))):
        if ai:
            ring.field.addmul_i(acc, ai, row, off)
    return acc


def _right_divmod_i(ring: OreRing, a, d) -> tuple:
    """q, r with a = q*d + r and deg r < deg d (d nonzero): the top coefficient
    of r at x^{e + deg d} is removed by qc * (x^e * d), each row x^e * d built once."""
    field = ring.field
    mul, inv, neg = field.mul_i, field.inv_i, field.neg_i
    dd = len(d) - 1
    r = list(a)
    count = len(r) - dd
    if count <= 0:
        return [], r
    q = [0] * count
    rows = _x_power_rows(ring, d, count)
    for e in range(count - 1, -1, -1):
        c = r[e + dd]
        if c:
            off, row = rows[e]
            q[e] = qc = mul(c, inv(row[-1]))
            field.addmul_i(r, neg(qc), row, off)
    return q, r[:dd]


# -- evaluation ---------------------------------------------------------------

def norms_i(ring: OreRing, z: int, r: int) -> list:
    """Indices of N_0(z), ..., N_r(z) for the point with index z:
    N_0(z) = 1, N_{i+1}(z) = sigma(N_i(z))*z + delta(N_i(z))."""
    field = ring.field
    add, sub, mul, frob = field.add_i, field.sub_i, field.mul_i, field.frob_i
    l, w = ring.sigma.l, ring._w
    out = [1]
    for _ in range(r):
        n = out[-1]
        sn = frob(n, l)
        nxt = mul(sn, z)
        if w:
            nxt = add(nxt, mul(w, sub(sn, n)))
        out.append(nxt)
    return out


def operator_powers_i(ring: OreRing, z: int, r: int) -> list:
    """Indices of D^0(z), ..., D^r(z) for the point with index z, where
    D = sigma when delta = 0 and D = delta otherwise."""
    field = ring.field
    frob, l, w = field.frob_i, ring.sigma.l, ring._w
    out = [z]
    for _ in range(r):
        v = frob(out[-1], l)
        if w:
            v = field.mul_i(w, field.sub_i(v, out[-1]))
        out.append(v)
    return out


def norm(ring: OreRing, i: int, z: FieldElement) -> FieldElement:
    """N_i(z) (see norms_i)."""
    if i < 0:
        raise DomainError("norm index must be >= 0")
    field = ring.field
    return FieldElement(field, norms_i(ring, field_index(field, z), i)[i])


def right_eval(g: SkewPoly, z: FieldElement) -> FieldElement:
    """g(z), the remainder of g by x - z, as the norm sum sum_i g_i N_i(z)
    (Lam-Leroy 1988)."""
    field = g.ring.field
    norms = norms_i(g.ring, field_index(field, z), g.degree)
    return FieldElement(field, dot_i(field, g.idx, norms))


def operator_eval(g: SkewPoly, z: FieldElement) -> FieldElement:
    """Sum g_i D^i(z) with D = sigma when delta = 0 and D = delta otherwise."""
    field = g.ring.field
    powers = operator_powers_i(g.ring, field_index(field, z), g.degree)
    return FieldElement(field, dot_i(field, g.idx, powers))


# -- gcrd / lclm --------------------------------------------------------------

class BezoutData(NamedTuple):
    d: SkewPoly  # monic gcrd
    u: SkewPoly  # d = u*g1 + v*g2
    v: SkewPoly


def _right_euclid(g1: SkewPoly, g2: SkewPoly):
    """Right Euclid on g1, g2 in F[y;sigma] (remove_derivation), with the left cofactors of g1
    only: the images (r, u, u_next) of r the last nonzero remainder (a gcrd up to a unit), u with
    r = u*g1 + v*g2 for some v, and u_next with u_next*g1 in A*g2 (the zero remainder's cofactor)."""
    (ring, r0), (_, r1) = remove_derivation(g1), remove_derivation(g2)
    u0, u1 = ring.one, ring.zero
    while r1:
        q, r2 = r0.right_divmod(r1)
        r0, r1 = r1, r2
        u0, u1 = u1, u0 - q * u1
    return r0, u0, u1


def gcrd_bezout(g1: SkewPoly, g2: SkewPoly) -> BezoutData:
    """Monic gcrd d with d = u*g1 + v*g2; v is the exact right quotient of
    d - u*g1 by g2, so the division's zero remainder certifies the identity."""
    if not g1 and not g2:
        raise DomainError("gcrd(0, 0) is undefined")
    r, u, _ = _right_euclid(g1, g2)
    lead = r.lc().inverse()
    d, u = (lead * _from_idx(g1.ring, _from_y_i(g1.ring, p.idx)) for p in (r, u))
    v, rem = (d - u * g1).right_divmod(g2) if g2 else (g2, d - u * g1)
    verify(not rem, "gcrd Bezout identity: d - u*g1 = v*g2 exactly")
    return BezoutData(d, u, v)


def gcrd(g1: SkewPoly, g2: SkewPoly) -> SkewPoly:
    return gcrd_bezout(g1, g2).d


def lclm(g1: SkewPoly, g2: SkewPoly) -> SkewPoly:
    """Monic generator of A*g1 n A*g2, c*u*g1 for the cofactor u of the zero
    remainder; it is a left multiple of g1 by construction."""
    if not g1 or not g2:
        raise DomainError("lclm requires nonzero polynomials")
    r, _, u = _right_euclid(g1, g2)
    m = (_from_idx(g1.ring, _from_y_i(g1.ring, u.idx)) * g1).monic()
    # eq (2.4a): deg gcrd + deg lclm = deg g1 + deg g2
    verify(m.degree + r.degree == g1.degree + g2.degree, "deg gcrd + deg lclm = deg g1 + deg g2")
    verify(g2.right_divides(m), "g2 right-divides lclm(g1, g2)")
    return m


def lclm_list(polys) -> SkewPoly:
    acc = None
    for p in polys:
        acc = p if acc is None else lclm(acc, p)
    if acc is None:
        raise DomainError("lclm of an empty list")
    return acc.monic()


# -- conjugacy ----------------------------------------------------------------

def conjugate_i(ring: OreRing, z: int, u: int) -> int:
    """Index of z^u = (sigma(u) z + delta(u)) u^-1 for the indices z and u != 0."""
    field = ring.field
    su = field.frob_i(u, ring.sigma.l)
    t = field.mul_i(su, z)
    if ring._w:  # delta(u) = w (sigma(u) - u)
        t = field.add_i(t, field.mul_i(ring._w, field.sub_i(su, u)))
    return field.mul_i(t, field.inv_i(u))


def conjugate(ring: OreRing, z: FieldElement, u: FieldElement) -> FieldElement:
    """z^u = sigma(u) z u^{-1} + delta(u) u^{-1}."""
    if not u:
        raise DomainError("conjugation requires u != 0")
    field = ring.field
    return FieldElement(field, conjugate_i(ring, field_index(field, z), field_index(field, u)))


def conjugacy_class(ring: OreRing, z: FieldElement):
    field = ring.field
    z = field_index(field, z)
    cls = {conjugate_i(ring, z, u) for u in range(1, field.size)}
    return [FieldElement(field, c) for c in sorted(cls)]


def centralizer(ring: OreRing, z: FieldElement):
    field = ring.field
    z = field_index(field, z)
    return [FieldElement(field, u) for u in range(field.size) if not u or conjugate_i(ring, z, u) == z]


def conjugacy_classes(ring: OreRing):
    """Partition of F into conjugacy classes, each sorted, reps in index order."""
    seen = set()
    classes = []
    for z in ring.field.elements():
        if z in seen:
            continue
        cls = conjugacy_class(ring, z)
        seen.update(cls)
        classes.append(cls)
    return classes


# -- two-sided / bound polynomials ---------------------------------------------

class TwoSidedWitness(NamedTuple):
    is_two_sided: bool
    c: FieldElement | None
    t: int | None
    h: SkewPoly | None  # central, monic


def two_sided_test(g: SkewPoly) -> TwoSidedWitness:
    """Decide A*g = g*A via the decomposition g = c x^t h with h in Z(A)."""
    ring = g.ring
    if not ring.is_auto_type:
        raise DomainError("two_sided_test requires delta = 0; change variable first")
    field, sigma = ring.field, ring.sigma
    if not g:
        return TwoSidedWitness(True, field.zero, 0, ring.one)
    t = next(i for i, c in enumerate(g.coeffs) if c)
    c = g.lc()
    h_coeffs = [sigma(ci / c, -t) if ci else ci for ci in g.coeffs[t:]]
    h = ring.poly(h_coeffs)
    verify(c * (ring.monomial(t) * h) == g, "two-sided decomposition g = c*x^t*h")
    if not is_central(h):
        return TwoSidedWitness(False, None, None, None)
    return TwoSidedWitness(True, c, t, h)


def is_central(g: SkewPoly) -> bool:
    """Membership in Z(A) = F^sigma[x^s] (delta = 0 rings)."""
    ring = g.ring
    if not ring.is_auto_type:
        raise DomainError("center description requires delta = 0")
    return all(
        not c or (i % ring.s == 0 and ring.sigma(c) == c) for i, c in enumerate(g.coeffs)
    )


def residue_rows_i(g: SkewPoly, f: SkewPoly):
    """Index rows of x^i * g mod f for i = 0, 1, 2, ..., each of length deg f."""
    ring, n = g.ring, f.degree
    cur = _right_divmod_i(ring, g.idx, f.idx)[1]
    while True:
        yield cur + [0] * (n - len(cur))
        cur = _right_divmod_i(ring, _x_times_i(ring, cur), f.idx)[1]


def annihilator_poly(a: SkewPoly, f: SkewPoly) -> SkewPoly:
    """Monic generator f_a of {h : h*a in A*f}: sum h_i (x^i a mod f) = 0.
    Of the deg f + 1 rows x^i a mod f, the first one that depends on the rows
    before it is row deg f_a, so f_a is the first kernel vector (1 there and 0
    after it)."""
    if not f.is_monic or f.degree < 1:
        raise DomainError("annihilator requires a monic modulus of degree >= 1")
    rows = list(itertools.islice(residue_rows_i(a, f), f.degree + 1))
    return _from_idx(a.ring, kernel_i(a.ring.field, list(zip(*rows)), len(rows))[0])


def bound_polynomial(f: SkewPoly) -> SkewPoly:
    """f* = lclm(f, f_{a_1}, ..., f_{a_r}) over the Z(A)-module generators
    {b_j x^i}, the largest two-sided ideal inside A*f."""
    ring = f.ring
    if not f.is_monic or not f:
        raise DomainError("bound polynomial requires a monic nonzero f")
    if not ring.is_auto_type:
        raise DomainError("bound polynomial requires delta = 0; change variable first")
    if f.degree == 0:
        return ring.one
    from .gf import basis_over_fixed_subfield

    basis = basis_over_fixed_subfield(ring.sigma)
    acc = f.monic()
    for b in basis:
        for i in range(ring.s):
            a = ring.monomial(i, b)
            acc = lclm(acc, annihilator_poly(a, f))
    verify(two_sided_test(acc).is_two_sided, "the bound polynomial is two-sided")
    verify(f.right_divides(acc), "f right-divides its bound polynomial")
    return acc


# -- similarity ---------------------------------------------------------------

def companion_matrix(g: SkewPoly) -> Matrix:
    if not g.is_monic or g.degree < 1:
        raise DomainError("companion matrix requires a monic polynomial of degree >= 1")
    field = g.ring.field
    m = g.degree
    rows = []
    for i in range(m - 1):
        rows.append([field.one if j == i + 1 else field.zero for j in range(m)])
    rows.append([-g[j] for j in range(m)])
    return Matrix.over_field(field, rows, m)


def similarity_test(g: SkewPoly, h: SkewPoly):
    """Decide g ~ h; on success return the invertible B with C_g B = sigma(B) C_h.

    The search enumerates module homomorphisms A/Ag -> A/Ah via the image p of
    1; B is the matrix of the resulting F-isomorphism in the canonical bases.
    """
    ring = g.ring
    if not ring.is_auto_type:
        raise DomainError("similarity test requires delta = 0; change variable first")
    if h.ring != ring:
        raise DomainError("polynomials from different rings")
    if not (g.is_monic and h.is_monic) or g.degree < 1:
        raise DomainError("similarity requires monic polynomials of degree >= 1")
    if g.degree != h.degree:
        raise DomainError("similarity requires equal degrees")
    m = g.degree
    field = ring.field
    if g == h:
        from .linalg import identity

        return True, identity(m, field.zero, field.one)
    capped(field.size ** m, MAX_SEARCH, f"similarity search space |F|^m = {field.size}^{m} =")
    for tail in itertools.product(range(field.size), repeat=m):
        p = _from_idx(ring, list(tail))
        if not p:
            continue
        if (g * p).right_divmod(h)[1]:
            continue
        if gcrd(p, h).degree != 0:
            continue
        rows = list(itertools.islice(residue_rows_i(p, h), m))
        B = Matrix.from_indices(field, rows, m)
        sB = Matrix.from_indices(field, [[field.frob_i(v, ring.sigma.l) for v in r] for r in rows], m)
        verify(companion_matrix(g) * B == sB * companion_matrix(h), "similarity C_g B = sigma(B) C_h")
        return True, B
    return False, None


# -- factorization ------------------------------------------------------------

# each candidate costs a right division of g, which the search cap does not count
FACTOR_MAX_DEGREE = 6


def _min_right_divisor(g: SkewPoly):
    """Lex-least monic right divisor of minimal degree 1..deg-1, or None."""
    capped(g.degree, FACTOR_MAX_DEGREE, "factorization guard: degree")
    ring = g.ring
    for dd in range(1, g.degree):
        for d in ring.all_polys(dd):
            if d.right_divides(g):
                return d
    return None


def is_irreducible(g: SkewPoly) -> bool:
    if not g or g.degree < 1:
        return False
    return _min_right_divisor(g) is None


def factor_irreducible(g: SkewPoly):
    """Factor g into irreducibles, extracting the lex-least minimal-degree
    monic right divisor at each step; the unit is absorbed by the left factor."""
    if not g:
        raise DomainError("cannot factor the zero polynomial")
    if g.degree == 0:
        raise DomainError("cannot factor a unit")
    unit = g.lc()
    cur = g.monic()
    factors: list[SkewPoly] = []
    while True:
        d = _min_right_divisor(cur)
        if d is None:
            factors.insert(0, cur)
            break
        q, r = cur.right_divmod(d)
        verify(not r, "a found right divisor divides exactly")
        factors.insert(0, d)
        cur = q
        if cur.degree == 0:
            break
    if unit != g.ring.field.one:
        factors[0] = unit * factors[0]
    prod = factors[0]
    for p in factors[1:]:
        prod = prod * p
    verify(prod == g, "the factors multiply back to g")
    return factors


# -- change of variable: F[x;sigma,delta_w] = F[y;sigma] with y = x + w -----------

def _to_y_i(ring: OreRing, g) -> list:
    """psi(g with x = y - w), psi = twist_row_i(., -l) the anti-isomorphism F[y;sigma] ->
    F[y;sigma^-1], which turns sum g_i (y - w)^i into sum (y - w)^i g_i: left Horner
    B <- (y - w)*B + g_i in F[y;sigma^-1], where y*B shifts B by one and applies sigma^-1."""
    w, field, l = ring._w, ring.field, ring.sigma.l
    if not w or not g:
        return field.twist_row_i(g, -l)
    capped(len(g) * (len(g) - 1) // 2, MAX_DELTA_ROWS, "change of variable y = x + w: step count")
    neg_w, b = field.neg_i(w), [g[-1]]
    for c in reversed(g[:-1]):
        nb = [c] + field.frob_row_i(b, -l)
        field.addmul_i(nb, neg_w, b)
        b = nb
    return b


def _from_y_i(ring: OreRing, h) -> list:
    """h with y = x + w, by left Horner on h = sum y^i sigma^-i(h_i), the accumulator read as
    sigma^-i(b): b <- b*x + sigma^i(w)*b + h_i, as y*(c x^j) = sigma(c) x^{j+1} + w*sigma(c) x^j."""
    out, w = list(h), ring._w
    if w:
        capped(len(out) * (len(out) - 1) // 2, MAX_DELTA_ROWS, "change of variable y = x + w: step count")
        for i in range(len(out) - 2, -1, -1):
            ring.field.addmul_i(out, ring.field.frob_i(w, ring.sigma.l * i), out[i + 1:], i)
    return out


@functools.lru_cache(maxsize=None)
def _sigma_ring(field: FiniteField, l: int) -> OreRing:
    """F[y; phi^l], built once: the target of remove_derivation and, with -l, of psi (left_divmod)."""
    return OreRing(field, l)


def remove_derivation(g: SkewPoly):
    """F[x;sigma,delta_w] -> F[y;sigma], x -> y - w (see _to_y_i): the target ring and the image of g."""
    ring = g.ring
    if ring.is_auto_type:
        return ring, g
    target = _sigma_ring(ring.field, ring.sigma.l)
    return target, _from_idx(target, ring.field.twist_row_i(_to_y_i(ring, g.idx), ring.sigma.l))


# -- text I/O -------------------------------------------------------------------

def poly_str(g: SkewPoly) -> str:
    if not g:
        return "0"
    parts = []
    for i in range(g.degree, -1, -1):
        c = g[i]
        if not c:
            continue
        cs = re.sub(r"^g", "w", element_str(c))
        if i == 0:
            parts.append(cs)
        else:
            xs = "x" if i == 1 else f"x^{i}"
            parts.append(xs if cs == "1" else f"{cs}*{xs}")
    return "+".join(parts)


def parse_poly(ring: OreRing, text: str, var: str = "x") -> SkewPoly:
    """A sum of terms, each the ring product of its factors in the order
    written: powers var^e and coefficients (element literals, optionally in
    parentheses), so x*w reads as sigma(w)*x + delta(w)."""
    power = re.compile(rf"{re.escape(var)}(?:\^(\d+))?")
    total = ring.zero
    for sign, term in split_terms(text, "polynomial"):
        prod, degree = ring.one, 0
        for factor in split_factors(term):
            m = power.fullmatch(factor)
            if m:
                e = literal_int(m.group(1) or "1", "polynomial")
                degree = capped(degree + e, MAX_DEGREE, "polynomial term of degree")
                prod = prod * ring.monomial(e)
            else:
                prod = prod * ring.poly([parse_element(ring.field, factor)])
        total = total + prod if sign == 1 else total - prod
    return total
