"""R-linear and skew cyclic codes.

A skew cyclic code is stored in canonical form as the monic right divisor g
of the modulus f; its generator matrix holds the coefficients of
g, xg, ..., x^{s-1}g reduced mod f.  The operations of the f = x^n - 1,
|sigma| = n setting (right-multiplication matrices, the anti-isomorphism
theta, generating idempotents, dual codes as skew reciprocals) live here too
and insist on that setting.
"""

from __future__ import annotations

import itertools

from .errors import DomainError, verify
from .linalg import Matrix
from .skewpoly import OreRing, SkewPoly, _from_idx, gcrd, gcrd_bezout, lclm, residue_rows_i, two_sided_test


class LinearCode:
    """An F-linear code given by a generator matrix with independent rows."""

    def __init__(self, field, G: Matrix):
        self.field = field
        self.n = G.ncols
        if G.nrows and G.rank() != G.nrows:
            raise DomainError("generator matrix rows are not independent")
        self.G = G

    @property
    def dim(self) -> int:
        return self.G.nrows

    def dual(self) -> "LinearCode":
        """Code generated by the kernel of G; its matrix is a parity check
        matrix of this code."""
        return LinearCode(self.field, self.G.kernel())

    def parity_check(self) -> Matrix:
        return self.dual().G

    def contains(self, word) -> bool:
        if len(word) != self.n:
            raise DomainError("word length mismatch")
        H = self.parity_check()
        return not any(H.mul_vec(list(word)))

    def words(self):
        """All codewords, zero first, in reflected Gray-code order of the
        messages (digits are element indices): each word is the previous one
        plus (new - old) * row_j for the one digit j that changes. The words at
        positions q^j .. 2q^j - 1 are exactly row_j + span(row_0 .. row_{j-1})
        (digit j is the index 1, the field's one, and every higher digit is 0),
        so together these blocks hold one word on each line of the code (line_words)."""
        F, rows = self.field, self.field.rows
        size = F.size
        elements = F.elements()
        generators = [rows.pack([v.idx for v in row]) for row in self.G.rows]
        # multiples[j][d] = d * row_j; each is a new row, never a generator itself
        multiples = [[rows.addmul(rows.pack([]), d, g) for d in range(size)] for g in generators]
        msg = [0] * self.dim
        word = rows.pack([])  # the accumulator: addmul may write into it
        # tuple of a list, not of an iterator: tuple(iterator) resizes each word,
        # which leaves thousands of dead tuples parked on CPython's free list
        yield tuple([elements[i] for i in rows.unpack(word, self.n)])
        for step in range(1, size ** self.dim):
            # digit j (the lowest nonzero base-|F| digit of step) changes; it
            # moves up while the digits above it form an even number
            j, rest = 0, step
            while rest % size == 0:
                rest //= size
                j += 1
            old = msg[j]
            msg[j] = old + 1 if (rest // size) % 2 == 0 else old - 1
            word = rows.addmul(word, 1, multiples[j][F.sub_i(msg[j], old)])
            yield tuple([elements[i] for i in rows.unpack(word, self.n)])

    def line_words(self):
        """One word on each line of the code: the blocks q^j .. 2q^j - 1 of one words() walk."""
        q, words, drawn = self.field.size, self.words(), 0  # drawn: the position of the next word
        for j in range(self.dim):
            yield from itertools.islice(words, q ** j - drawn, 2 * q ** j - drawn)
            drawn = 2 * q ** j

    def same_code(self, other: "LinearCode") -> bool:
        return self.n == other.n and self.G.row_space_equals(other.G)

    def __repr__(self):
        return f"LinearCode(n={self.n}, dim={self.dim})"


# -- the word map p_f -----------------------------------------------------------

def word_map(ring: OreRing, v, f: SkewPoly) -> SkewPoly:
    """p_f(v) = sum v_i x^i, the coset representative of a length-n word."""
    if len(v) != f.degree:
        raise DomainError("word length must equal deg f")
    return ring.poly(list(v))


def word_unmap(g: SkewPoly, f: SkewPoly):
    """Inverse of the word map: reduce mod f and read n coefficients."""
    r = g.right_divmod(f)[1]
    return tuple(r[i] for i in range(f.degree))


# -- skew cyclic codes ------------------------------------------------------------

class SkewCyclicCode:
    def __init__(self, ring: OreRing, f: SkewPoly, g: SkewPoly):
        if not f.is_monic or f.degree < 1:
            raise DomainError("modulus must be monic of degree >= 1")
        if not g.is_monic:
            raise DomainError("divisor must be monic")
        if f.right_divmod(g)[1]:
            raise DomainError("g must right-divide the modulus f")
        self.ring = ring
        self.f = f
        self.g = g
        self.n = f.degree
        self.dim = f.degree - g.degree

    def generator_matrix(self) -> Matrix:
        """Rows are the coefficients of x^i g mod f, i = 0..dim-1."""
        rows = itertools.islice(residue_rows_i(self.ring, self.g.row, self.f.row), self.dim)
        return Matrix.from_indices(self.ring.field, rows, self.n)

    def to_linear(self) -> LinearCode:
        return LinearCode(self.ring.field, self.generator_matrix())

    def __repr__(self):
        return f"SkewCyclicCode(n={self.n}, dim={self.dim}, g={self.g!r})"


def monic_right_divisors(ring: OreRing, f: SkewPoly):
    """All monic right divisors of f, by brute-force enumeration."""
    return [cand for d in range(f.degree + 1) for cand in ring.all_polys(d) if cand.right_divides(f)]


# -- the f = x^n - 1, |sigma| = n setting -------------------------------------------

def _check_cyclic_setting(ring: OreRing, n: int, f: SkewPoly | None = None) -> SkewPoly:
    """x^n - 1, certified two-sided.  Each public operation of this setting checks it once and
    hands the result down as the keyword f to the operations it calls; a handed-down f is compared
    with x^n - 1 (ring and coefficient row) instead of certified again, and any other modulus is refused.
    Nothing is cached, so every public call runs the certificate."""
    if not ring.is_auto_type:
        raise DomainError("the x^n - 1 setting requires delta = 0")
    if ring.s != n:
        raise DomainError(f"|sigma| = {ring.s} but the modulus needs |sigma| = n = {n}")
    modulus = ring.monomial(n) - ring.one
    if f is None:
        verify(two_sided_test(modulus).is_two_sided, "x^n - 1 is two-sided when |sigma| = n")
    elif f != modulus:  # SkewPoly equality: the same ring and coefficient row
        raise DomainError(f"the modulus {f!r} is not x^{n} - 1")
    return modulus


def right_mult_matrix(ring: OreRing, g: SkewPoly, n: int) -> Matrix:
    """M(g): row i holds the coefficients of x^i * g mod (x^n - 1), so that
    p_f(Z M(g)) = p_f(Z) g for every row vector Z."""
    f = _check_cyclic_setting(ring, n)
    return Matrix.from_indices(ring.field, itertools.islice(residue_rows_i(ring, g.row, f.row), n), n)


def theta(ring: OreRing, g: SkewPoly, n: int, *, f: SkewPoly | None = None) -> SkewPoly:
    """The anti-isomorphism of A/(x^n - 1), theta(sum g_i x^i) = sum sigma^{-i}(g_i) x^{-i}:
    psi = rows.twist(., -l) of g mod f with its degrees read mod n (sigma^n = id, x^n = 1)."""
    f = _check_cyclic_setting(ring, n, f)
    rows = ring.field.rows
    t = rows.unpack(rows.twist(g.right_divmod(f)[1].row, -ring.sigma.l), n)
    return _from_idx(ring, [t[-i % n] for i in range(n)])


def idempotent_to_generator(ring: OreRing, e: SkewPoly, n: int, *, f: SkewPoly | None = None) -> SkewPoly:
    """Minimal generator g = gcrd(e, x^n - 1) of the code A*ebar."""
    f = _check_cyclic_setting(ring, n, f)
    ebar = e.right_divmod(f)[1]
    if (ebar * ebar).right_divmod(f)[1] != ebar:
        raise DomainError("e is not idempotent mod x^n - 1")
    return gcrd(ebar, f)  # f itself when ebar = 0


def complement_divisor(ring: OreRing, g: SkewPoly, n: int, *, f: SkewPoly | None = None) -> SkewPoly:
    """Lex-least monic h with lclm(g, h) = x^n - 1 and deg g + deg h = n (so gcrd(g, h) = 1)."""
    f = _check_cyclic_setting(ring, n, f)
    if g.degree == 0:
        return f
    for h in ring.all_polys(n - g.degree):
        if h.right_divides(f) and lclm(g, h) == f:
            return h
    raise DomainError("no complementary divisor exists")  # pragma: no cover


def bezout_idempotent(ring: OreRing, g: SkewPoly, h: SkewPoly, n: int, *, f: SkewPoly | None = None) -> SkewPoly:
    """From 1 = u g + v h (gcrd Bezout data), e = u g is a generating
    idempotent of the code A*gbar."""
    f = _check_cyclic_setting(ring, n, f)
    if g.degree + h.degree != n or lclm(g, h) != f:
        raise DomainError("need lclm(g, h) = x^n - 1 and deg g + deg h = n")
    d, u, _ = gcrd_bezout(g, h)
    verify(d.degree == 0, "gcrd(g, h) = 1 when lclm(g, h) = x^n - 1 and deg g + deg h = n")
    e = (u * g).right_divmod(f)[1]
    verify((e * e).right_divmod(f)[1] == e, "e = u*g is idempotent mod x^n - 1")
    verify(idempotent_to_generator(ring, e, n, f=f) == g, "A*ebar = A*gbar")
    return e


def generating_idempotent(code: SkewCyclicCode) -> SkewPoly:
    """A generating idempotent of the code (zero code gives 0, full code 1)."""
    ring, n, g = code.ring, code.n, code.g
    f = _check_cyclic_setting(ring, n)
    if code.f != f:
        raise DomainError(f"the code's modulus is not x^{n} - 1")
    if g == f:
        return ring.zero
    if g.degree == 0:
        return ring.one
    return bezout_idempotent(ring, g, complement_divisor(ring, g, n, f=f), n, f=f)


def dual_skew_cyclic(code: SkewCyclicCode) -> SkewCyclicCode:
    """The dual (Boucher-Ulmer 2009): for x^n - 1 = h*g and k = deg h, the monic skew reciprocal
    sum_i sigma^i(h_{k-i}) x^i = x^k theta(h) mod x^n - 1 (x^n - 1 when g = 1); kernel-checked."""
    ring, n = code.ring, code.n
    f = _check_cyclic_setting(ring, n)
    if code.f != f:
        raise DomainError(f"the code's modulus is not x^{n} - 1")
    h = f.right_divmod(code.g)[0]  # exact: SkewCyclicCode makes g right-divide code.f
    gperp = f if h == f else (ring.monomial(h.degree) * theta(ring, h, n, f=f)).right_divmod(f)[1].monic()
    dual_code = SkewCyclicCode(ring, f, gperp)
    verify(dual_code.to_linear().same_code(code.to_linear().dual()), "skew-reciprocal dual = kernel dual")
    return dual_code
