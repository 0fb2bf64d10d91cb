"""Exact arithmetic in finite fields GF(q^k).

Elements are identified by an index: 0 is the zero element, and index e+1 is
z0^e for a fixed primitive element z0.  Multiplication works directly on
indices through the discrete log; addition uses a Zech logarithm table, so
every arithmetic operation is O(1) table lookups.  Fields are built once per
(q, k) and cached, with the modulus chosen deterministically as the
lexicographically least (highest coefficients compared first) monic
irreducible polynomial of degree k over GF(q).  z0 is the least element code
of order t = q^k - 1, found by testing z0^(t/p) != 1 for each prime p | t.

An element's code is sum(c_i * q^i) over its coefficients in the polynomial
basis.  Multiplication by z0 is F_q-linear, so the exp table z0^0, z0^1, ...
is built from the k images z0*x^j: z0*c is tabulated over the low and the
high half of a code's digits, and each step is one lookup per half plus one
digitwise addition mod q (see FiniteField._powers).  A Zech entry needs only
c + 1, which changes the lowest digit, and one code -> index list serves both
the Zech table and from_code.

Skew-polynomial kernels work on rows of coefficients through the operations
of FiniteField.rows.  A characteristic-2 field of at most 256 elements packs a
row into an int, one element code per byte (ByteRows), so that adding rows is
XOR and scaling a row or applying phi^p is one bytes.translate; every other
field keeps lists of indices and the Zech loop (ZechRows).
"""

from __future__ import annotations

import functools
import math
import operator
import re
import sys

from .errors import DomainError, GuardError, capped

MAX_FIELD_SIZE = 1 << 16
_from_bytes = int.from_bytes


def factorize(n: int) -> dict:
    """{p: e} with n = prod p^e, by trial division up to sqrt(n); {} for n < 2."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}


# --- build-time polynomial arithmetic over Z_q (coefficient lists, low degree first)

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, q):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _ptrim(out)


def _pmod(a, m, q):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for j, mj in enumerate(m):
                a[shift + j] = (a[shift + j] - c * mj) % q
        a.pop()
    return _ptrim(a)


def _irreducible(m, q):
    """Trial division of the monic polynomial m by every monic polynomial of
    degree 1..deg(m)//2 over GF(q)."""
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for code in range(q ** d):
            div = []
            c = code
            for _ in range(d):
                div.append(c % q)
                c //= q
            div.append(1)
            # remainder of m by div
            if not _pmod(m, div, q):
                return False
    return True


class FiniteField:
    """GF(q^k) with exp and Zech tables and a code -> index list; immutable
    after construction."""

    def __init__(self, q: int, k: int):
        # the size checks come first: is_prime is trial division up to sqrt(q)
        if not 1 <= k <= 16:
            raise DomainError(f"extension degree {k} out of range [1, 16]")
        if q ** k > MAX_FIELD_SIZE:
            raise GuardError(f"field size {q}^{k} exceeds table cap {MAX_FIELD_SIZE}")
        if not is_prime(q):
            raise DomainError(f"characteristic {q} is not prime")
        self.q = q
        self.k = k
        self.size = q ** k
        self.t = self.size - 1  # order of the multiplicative group
        self.modulus = self._least_irreducible()
        self._build_tables()
        # the row operations of every skew-polynomial kernel, packed where the field allows it;
        # a SkewPoly holds one row, which no operation writes into (see ZechRows)
        self.rows = (ByteRows if q == 2 and self.size <= 256 else ZechRows)(self)
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)
        self.gen = FieldElement(self, 2) if self.t >= 2 else self.one

    # -- construction helpers ----------------------------------------------

    def _least_irreducible(self):
        q, k = self.q, self.k
        if k == 1:
            return [0, 1]  # the polynomial x; arithmetic is plain Z_q
        # candidates ordered by (c_{k-1}, ..., c_0), i.e. high coefficients first:
        # the integer code's most significant base-q digit is c_{k-1}
        for code in range(q ** k):
            cand = [0] * k + [1]
            c = code
            for pos in range(k):
                cand[pos] = c % q
                c //= q
            if _irreducible(cand, q):
                return cand
        raise RuntimeError("no irreducible polynomial found")  # pragma: no cover

    def _code_digits(self, code):
        d = []
        for _ in range(self.k):
            d.append(code % self.q)
            code //= self.q
        return d

    def _digits_code(self, digits):
        c = 0
        for d in reversed(digits):
            c = c * self.q + d
        return c

    def _code_mul(self, a, b):
        pa = self._code_digits(a)
        pb = self._code_digits(b)
        prod = _pmul(_ptrim(pa), _ptrim(pb), self.q)
        prod = _pmod(prod, self.modulus, self.q)
        prod += [0] * (self.k - len(prod))
        return self._digits_code(prod)

    def _code_pow(self, code, e):
        acc = 1
        while e:
            if e & 1:
                acc = self._code_mul(acc, code)
            code = self._code_mul(code, code)
            e >>= 1
        return acc

    def _powers(self, z0):
        """[z0^0, ..., z0^(t-1)] as codes.  c -> z0*c is F_q-linear, so it is
        tabulated once on the low h = k//2 base-q digits of a code and once on
        the high k-h digits, from the k images z0*x^j; each power is then one
        lookup per half and one digitwise addition mod q.  For q = 2 that is
        XOR.  Otherwise the digits sit in b-bit slots of one int (a packed
        code), 2^(b-1) >= q, so the sum of two slots never carries into the
        next one, and q is subtracted from every slot that reached q."""
        q, k, h = self.q, self.k, self.k // 2
        exp = [1] * self.t
        if k == 1:  # codes are residues mod q
            for e in range(1, self.t):
                exp[e] = exp[e - 1] * z0 % q
            return exp
        if q == 2:
            b, add = 1, operator.xor
        else:
            b = (q - 1).bit_length() + 1
            ones = sum(1 << b * i for i in range(k))
            high = ones << (b - 1)  # the top bit of every slot
            offset = ((1 << (b - 1)) - q) * ones  # a slot holding v >= q gets its top bit set

            def add(x, y):
                s = x + y
                return s - (((s + offset) & high) >> (b - 1)) * q

        def pack(code):
            return sum(d << b * i for i, d in enumerate(self._code_digits(code)))

        def span(vectors):
            """table[c] = sum_j c_j * vectors[j] over the codes c < q^len(vectors)."""
            table = [0]
            for v in vectors:
                multiples = [0]
                for _ in range(q - 1):
                    multiples.append(add(multiples[-1], v))
                table = [add(x, m) for m in multiples for x in table]
            return table

        images = [pack(self._code_mul(q ** j, z0)) for j in range(k)]
        units = [1 << b * j for j in range(k)]  # x^j, packed
        shift, mask = b * h, (1 << b * h) - 1
        # indexed by the packed low digits (v & mask) and high digits (v >> shift)
        times_lo, code_lo = [0] * (mask + 1), [0] * (mask + 1)
        times_hi, code_hi = [0] * (1 << b * (k - h)), [0] * (1 << b * (k - h))
        for c, (key, image) in enumerate(zip(span(units[:h]), span(images[:h]))):
            times_lo[key], code_lo[key] = image, c
        for c, (key, image) in enumerate(zip(span(units[:k - h]), span(images[h:]))):
            times_hi[key], code_hi[key] = image, c * q ** h
        v = 1
        for e in range(self.t):
            lo, hi = v & mask, v >> shift
            exp[e] = code_lo[lo] + code_hi[hi]
            v = add(times_lo[lo], times_hi[hi])
        return exp

    def _build_tables(self):
        t = self.t
        # primitive element: least code g with g^(t/p) != 1 for each prime p | t
        primes = list(factorize(t))
        z0 = 1
        if t > 1:
            # for k > 1 the codes below q form the prime subfield, whose orders
            # divide q - 1 < t, so the search starts at q
            for code in range(2 if self.k == 1 else self.q, self.size):
                if all(self._code_pow(code, t // p) != 1 for p in primes):
                    z0 = code
                    break
        self.gen_code = z0
        exp = self._powers(z0)
        self._exp = exp
        # index <-> code maps (index 0 is zero, index e+1 is z0^e)
        self._idx_to_code = [0] + exp
        code_to_idx = [0] * self.size
        for i, c in enumerate(exp, 1):
            code_to_idx[c] = i
        self._code_to_idx = code_to_idx
        # Zech logarithms: zech[e] = log(z0^e + 1), None when z0^e = -1; adding 1
        # changes only the lowest base-q digit of a code
        q = self.q
        plus_one = [c ^ 1 for c in exp] if q == 2 else [c - c % q + (c + 1) % q for c in exp]
        self._zech = [code_to_idx[c] - 1 if c else None for c in plus_one]
        # index of -1: exponent offset for negation
        self._neg_shift = 0 if self.q == 2 else t // 2
        # phi^p multiplies the exponent by q^p mod t
        self._frob_mul = [pow(self.q, p, t) for p in range(self.k)]

    # -- fast index-space arithmetic ---------------------------------------

    def add_i(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        t = self.t
        z = self._zech[(a - b) % t]
        if z is None:
            return 0
        return (b - 1 + z) % t + 1

    def neg_i(self, a: int) -> int:
        if a == 0 or self.q == 2:
            return a
        return (a - 1 + self._neg_shift) % self.t + 1

    def sub_i(self, a: int, b: int) -> int:
        return self.add_i(a, b if self.q == 2 else self.neg_i(b))

    def mul_i(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return (a + b - 2) % self.t + 1

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return (-(a - 1)) % self.t + 1

    def pow_i(self, a: int, m: int) -> int:
        if a == 0:
            if m < 0:
                raise ZeroDivisionError("negative power of zero")
            return 1 if m == 0 else 0
        return ((a - 1) * m) % self.t + 1

    def frob_i(self, a: int, power: int = 1) -> int:
        """sigma^power(z) for sigma = Frobenius z -> z^q, on indices."""
        if a == 0:
            return 0
        return ((a - 1) * self._frob_mul[power % self.k]) % self.t + 1

    # -- the anti-isomorphism psi on a list of indices ------------------------

    def twist_row_i(self, row, power: int) -> list:
        """[frob_i(v, power * j) for j, v in enumerate(row)].  With power = -l it
        is the anti-isomorphism psi: F[x; phi^l] -> F[x; phi^-l],
        sum a_j x^j -> sum phi^(-l*j)(a_j) x^j (Ore 1933), and power = l inverts it."""
        t, step, m, out = self.t, self._frob_mul[power % self.k], 1, []
        for v in row:  # m = q^(power*j) mod t, the exponent multiplier of phi^(power*j)
            out.append((v - 1) * m % t + 1 if v else 0)
            m = m * step % t
        return out

    # -- element factories ---------------------------------------------------

    def element(self, idx: int) -> "FieldElement":
        if not 0 <= idx < self.size:
            raise DomainError(f"element index {idx} out of range for {self!r}")
        return FieldElement(self, idx)

    def from_code(self, code: int) -> "FieldElement":
        return FieldElement(self, self._code_to_idx[code])

    def from_int(self, m: int) -> "FieldElement":
        """Image of the integer m in the prime subfield."""
        return self.from_code(m % self.q)

    def elements(self):
        return [FieldElement(self, i) for i in range(self.size)]

    def parse(self, text: str) -> "FieldElement":
        return parse_element(self, text)

    def __repr__(self):
        return f"GF({self.size})"

    def __reduce__(self):
        return (GF, (self.q, self.k))


class ZechRows:
    """The row operations of FiniteField.rows on lists of field indices: the
    fallback of every field ByteRows does not take (odd characteristic, or
    more than 256 elements).  Each operation is one loop with the log multiply
    and the Zech add inlined.

    Both row kinds share these operations, and every skew-polynomial kernel
    is written against them: pack(idx) and unpack(row, n), the first n entries
    as a list of indices (the row has no nonzero entry past them); coeff(row,
    j), the index of entry j >= 0; length(row), the number of entries up to
    the last nonzero one (a list loses its zero tail); shift(row, e), x^e *
    row without twisting (e < 0 drops the lowest -e entries); frob(row, p),
    phi^p on every entry; twist(row, p), phi^(p*j) on entry j (twist_row_i);
    and addmul(acc, k, row, off) = acc + k * x^off * row for the index k,
    which may reuse acc, so a caller keeps only its result.  Only addmul
    writes into a row, so a row held by a SkewPoly is never an accumulator: a
    kernel starting from one accumulates into shift(row, 0), a new list."""

    __slots__ = ("field",)

    def __init__(self, field: FiniteField):
        self.field = field

    def pack(self, idx) -> list:
        return list(idx)

    def unpack(self, row: list, n: int) -> list:
        return row[:n] + [0] * (n - len(row))

    def coeff(self, row: list, j: int) -> int:
        return row[j] if j < len(row) else 0

    def length(self, row: list) -> int:
        # drops the zero tail that addmul leaves where the top entries cancel
        while row and not row[-1]:
            row.pop()
        return len(row)

    def shift(self, row: list, e: int) -> list:
        return [0] * e + row if e >= 0 else row[-e:]

    def frob(self, row: list, p: int) -> list:
        t, m = self.field.t, self.field._frob_mul[p % self.field.k]
        return [(v - 1) * m % t + 1 if v else 0 for v in row]

    def twist(self, row: list, p: int) -> list:
        return self.field.twist_row_i(row, p)

    def addmul(self, acc: list, k: int, row: list, off: int = 0) -> list:
        if not k:
            return acc
        if len(acc) < off + len(row):
            acc += [0] * (off + len(row) - len(acc))
        t, zech = self.field.t, self.field._zech
        k -= 2
        for j, v in enumerate(row, off):
            if v:
                v = (v + k) % t + 1
                a = acc[j]
                if a:
                    z = zech[(a - v) % t]
                    v = 0 if z is None else (v - 1 + z) % t + 1
                acc[j] = v
        return acc


class ByteRows:
    """The row operations of ZechRows for a characteristic-2 field of at most
    256 elements, on packed rows: a row is an int holding the code of entry j
    in byte j.  Adding two rows is XOR of their codes; multiplying by a
    constant and applying phi^p each map every code through a 256-byte table,
    one bytes.translate.  A table is built on first use, by translating the
    code -> index table through a rotation of the exp table, and kept."""

    __slots__ = ("field", "_code_bytes", "_idx_bytes", "_scale_tables", "_frob_tables")

    def __init__(self, field: FiniteField):
        self.field = field
        self._code_bytes = bytes(field._idx_to_code).ljust(256, b"\0")  # index -> code
        self._idx_bytes = bytes(field._code_to_idx).ljust(256, b"\0")  # code -> index
        self._scale_tables = [None] * field.size  # code -> code of k*z, by the index k
        self._frob_tables = [None] * field.k  # code -> code of phi^p(z), by p

    def _table(self, images: list) -> bytes:
        """code -> images[index(code) - 1], the code of the image of z0^e at position e."""
        return self._idx_bytes.translate((b"\0" + bytes(images)).ljust(256, b"\0"))

    def pack(self, idx) -> int:
        return _from_bytes(bytes(idx).translate(self._code_bytes), "little")

    def unpack(self, row: int, n: int) -> list:
        return list(row.to_bytes(n, "little").translate(self._idx_bytes))

    def coeff(self, row: int, j: int) -> int:
        return self._idx_bytes[row >> 8 * j & 255]

    def length(self, row: int) -> int:
        return (row.bit_length() + 7) >> 3

    def shift(self, row: int, e: int) -> int:
        return row << 8 * e if e >= 0 else row >> -8 * e

    def frob(self, row: int, p: int) -> int:
        p %= self.field.k
        if not p:
            return row
        table = self._frob_tables[p]
        if table is None:
            field = self.field
            exp, t, m = field._exp, field.t, field._frob_mul[p]
            table = self._frob_tables[p] = self._table([exp[e * m % t] for e in range(t)])
        return _from_bytes(row.to_bytes((row.bit_length() + 7) >> 3, "little").translate(table), "little")

    def twist(self, row: int, p: int) -> int:
        return self.pack(self.field.twist_row_i(self.unpack(row, self.length(row)), p))

    def addmul(self, acc: int, k: int, row: int, off: int = 0) -> int:
        if k != 1:
            if not k:
                return acc
            table = self._scale_tables[k]
            if table is None:
                exp = self.field._exp
                table = self._scale_tables[k] = self._table(exp[k - 1:] + exp[:k - 1])
            row = _from_bytes(row.to_bytes((row.bit_length() + 7) >> 3, "little").translate(table), "little")
        return acc ^ row << 8 * off


class FieldElement:
    """An element of a FiniteField, identified by its index."""

    __slots__ = ("field", "idx")

    def __init__(self, field: FiniteField, idx: int):
        self.field = field
        self.idx = idx

    # -- helpers

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise DomainError("elements of different fields")
            return other.idx
        if isinstance(other, int):
            return self.field.from_int(other).idx
        return NotImplemented

    @property
    def code(self) -> int:
        """Polynomial-basis code sum(c_i * q^i)."""
        return self.field._idx_to_code[self.idx]

    # -- arithmetic

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add_i(self.idx, o))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_i(self.idx))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_i(self.idx, o))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_i(self.idx, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_i(self.idx, self.field.inv_i(o)))

    def __rtruediv__(self, other):
        return self.field.from_int(other) / self

    def __pow__(self, m: int):
        return FieldElement(self.field, self.field.pow_i(self.idx, m))

    def inverse(self):
        return FieldElement(self.field, self.field.inv_i(self.idx))

    # -- comparisons / hashing

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.idx == other.idx
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.idx))

    def __bool__(self):
        return self.idx != 0

    def __lt__(self, other):
        o = self._coerce(other)
        return self.idx < o

    def __repr__(self):
        return element_str(self)


class Automorphism:
    """sigma = phi^l where phi is the Frobenius z -> z^q."""

    __slots__ = ("field", "l")

    def __init__(self, field: FiniteField, l: int):
        self.field = field
        self.l = l % field.k

    @property
    def order(self) -> int:
        return self.field.k // math.gcd(self.l, self.field.k)

    @property
    def is_identity(self) -> bool:
        return self.l == 0

    def __call__(self, z: FieldElement, power: int = 1) -> FieldElement:
        return FieldElement(self.field, self.field.frob_i(z.idx, self.l * (power % self.order)))

    def fixed_subfield_i(self):
        """Indices of F^sigma in index order: 0 and the 1 + j*t/(q^r - 1), r = gcd(l, k)."""
        step = self.field.t // (self.field.q ** math.gcd(self.l, self.field.k) - 1)
        return [0, *range(1, self.field.size, step)]

    def fixed_subfield(self):
        """F^sigma together with 0, in index order; a subfield of size q^gcd(l, k)."""
        return [FieldElement(self.field, i) for i in self.fixed_subfield_i()]

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.field is other.field
            and self.l == other.l
        )

    def __hash__(self):
        return hash((id(self.field), self.l))

    def __repr__(self):
        return f"phi^{self.l} on {self.field!r}"


class InnerDerivation:
    """delta(z) = w * (sigma(z) - z); the only sigma-derivations of a finite field."""

    __slots__ = ("sigma", "w")

    def __init__(self, sigma: Automorphism, w: FieldElement | None = None):
        self.sigma = sigma
        self.w = sigma.field.zero if w is None else w
        if self.w.field is not sigma.field:
            raise DomainError("inner element from a different field")

    @property
    def is_zero(self) -> bool:
        return (not self.w) or self.sigma.is_identity

    def __call__(self, z: FieldElement) -> FieldElement:
        return self.w * (self.sigma(z) - z)

    def __repr__(self):
        return f"delta[w={self.w!r}]"


@functools.lru_cache(maxsize=None)
def GF(q: int, k: int = 1) -> FiniteField:
    """Build (or fetch the cached) field GF(q^k); q prime, 1 <= k <= 16."""
    return FiniteField(q, k)


_FIELD_RE = re.compile(r"^GF\(\s*(\d+)\s*(?:\^\s*(\d+)\s*)?\)$")


def parse_field(text: str) -> FiniteField:
    """Parse a field literal: GF(q^k) or GF(n) with n a prime power."""
    m = _FIELD_RE.match(text.strip())
    if not m:
        raise DomainError(f"bad field literal {text!r}")
    base = literal_int(m.group(1), "field")
    if m.group(2) is not None:
        return GF(base, literal_int(m.group(2), "field"))
    if base > MAX_FIELD_SIZE:  # before the trial division below
        raise GuardError(f"field size {base} exceeds table cap {MAX_FIELD_SIZE}")
    factors = factorize(base)
    if not factors:
        raise DomainError(f"bad field literal {text!r}")
    if len(factors) > 1:
        raise DomainError(f"{base} is not a prime power")
    return GF(*factors.popitem())


def element_str(z: FieldElement) -> str:
    """Canonical form: 0, 1, or g^e as a power of the primitive element;
    prime-field elements print as integers."""
    if z.field.k == 1:
        return str(z.code)
    if z.idx == 0:
        return "0"
    if z.idx == 1:
        return "1"
    e = z.idx - 1
    return "g" if e == 1 else f"g^{e}"


def subfield_coordinates(field: FiniteField, sub, candidates):
    """Greedy basis of F over a subfield, whose element indices are sub: scan
    the candidate element indices in order and keep each one outside the span
    so far.  Returns (basis, table), table[i] being the coordinate tuple (as
    element indices of the subfield) of the element with index i, or None when
    the candidates do not span F."""
    table = {0: ()}
    basis = []
    for z in candidates:
        if z in table:
            continue
        multiples = [(c, field.mul_i(c, z)) for c in sub]
        table = {field.add_i(s, m): coords + (c,) for s, coords in table.items() for c, m in multiples}
        basis.append(z)
    if len(table) != field.size:
        return None
    return basis, [table[i] for i in range(field.size)]


@functools.lru_cache(maxsize=None)
def fixed_field_coordinates(sigma: Automorphism):
    """(basis, table): the greedy basis of F over the fixed subfield F^sigma,
    scanning elements in index order, and table[i] the coordinate tuple of the
    element with index i, as element indices of F^sigma."""
    field = sigma.field
    basis, table = subfield_coordinates(field, sigma.fixed_subfield_i(), range(field.size))
    return tuple(FieldElement(field, b) for b in basis), table


@functools.lru_cache(maxsize=None)
def basis_over_fixed_subfield(sigma: Automorphism):
    """The greedy F^sigma-basis of F (see fixed_field_coordinates)."""
    return fixed_field_coordinates(sigma)[0]


# -- literals: a sum of signed terms, each a product of factors ----------------

def split_terms(text: str, what: str):
    """(sign, term) pairs of a sum, spaces dropped: split at every + or -
    outside parentheses that does not follow ^.  An empty literal, an empty
    term or unbalanced parentheses raise DomainError quoting the literal."""
    literal = "".join(text.split())
    pairs, depth, start, sign = [], 0, 0, 1
    for pos, ch in enumerate(literal):
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
        if ch in "+-" and depth == 0 and literal[pos - 1:pos] != "^":
            if pos:
                pairs.append((sign, literal[start:pos]))
            sign, start = (-1 if ch == "-" else 1), pos + 1
    pairs.append((sign, literal[start:]))
    if depth or not all(term for _, term in pairs):
        raise DomainError(f"bad {what} literal {literal!r}")
    return pairs


def split_factors(term: str):
    """The factors of a term: split at every * outside parentheses; a factor
    written in parentheses, (1+2*a), is unwrapped."""
    parts, depth, start = [], 0, 0
    for pos, ch in enumerate(term):
        depth += (ch == "(") - (ch == ")")
        if ch == "*" and depth == 0:
            parts.append(term[start:pos])
            start = pos + 1
    parts.append(term[start:])
    if not all(parts):
        raise DomainError(f"empty factor in term {term!r}")
    return [f[1:-1] if f[0] == "(" and f[-1] == ")" else f for f in parts]


def read_sum(text: str, zero, one, power, power_of, coefficient, cap: int):
    """The ring element a sum literal spells: each term is the ring product of
    its factors in the order written.  A factor that the regex power matches,
    with groups (name, exponent digits or None), is power_of(name, e); any
    other factor is coefficient(factor).  A term whose exponents add up past
    cap is refused (errors.capped)."""
    total = zero
    for sign, term in split_terms(text, "polynomial"):
        prod, degree = one, 0
        for factor in split_factors(term):
            m = power.fullmatch(factor)
            if m:
                e = literal_int(m.group(2) or "1", "polynomial")
                degree = capped(degree + e, cap, "polynomial term of degree")
                prod = prod * power_of(m.group(1), e)
            else:
                prod = prod * coefficient(factor)
        total = total + prod if sign == 1 else total - prod
    return total


def power_str(name: str, e: int) -> str:
    """name^e as a factor of a monomial: empty at e = 0, the bare name at e = 1."""
    return "" if e == 0 else name if e == 1 else f"{name}^{e}"


def sum_str(pairs) -> str:
    """The sum of (coefficient text, monomial text) terms in the order given,
    as read_sum reads it back: a coefficient 1 is left out before a monomial,
    a leading - becomes the term's sign, a coefficient that is itself a sum
    is parenthesized, and no terms print as 0.  The sign is taken out before
    the sum test, so -1+2*i prints as -(1+2*i), which reads back as -1-2*i
    (ROADMAP item 1)."""
    parts = []
    for cs, mono in pairs:
        sign, cs = ("-", cs[1:]) if cs.startswith("-") else ("+", cs)
        if any(s in cs[1:] for s in "+-"):
            cs = f"({cs})"
        parts.append(sign + (cs if not mono else mono if cs == "1" else f"{cs}*{mono}"))
    return "".join(parts).removeprefix("+") or "0"


def literal_int(digits: str, what: str) -> int:
    """The integer a literal's digit run spells; a run longer than the
    interpreter's integer-conversion limit raises DomainError."""
    try:
        return int(digits)
    except ValueError:
        raise DomainError(
            f"bad {what} literal: an integer of {len(digits)} digits "
            f"exceeds the {sys.get_int_max_str_digits()}-digit limit"
        ) from None


def split_list(text: str, sep: str = ","):
    """The items of a sep-separated list, stripped; an empty item raises
    DomainError quoting the list."""
    items = [t.strip() for t in text.split(sep)]
    if not all(items):
        raise DomainError(f"empty item in list {text!r}")
    return items


# an integer, or [c*]s[^e] with s the generator g (alias w) or the residue a
_ELEMENT_TERM = re.compile(r"(\d+)|(?:(\d+)\*?)?([gwa])(?:\^(\d+))?")


def parse_element(field: FiniteField, text: str) -> FieldElement:
    """Parse a sum of terms, each an integer, g^e (w accepted as an alias of
    g) or a power of the residue a of the modulus, optionally with an integer
    coefficient: 0, 1, g^3, -w, 2, 1+2*a+a^2."""
    a = field.from_code(field.q) if field.k > 1 else field.one
    total = field.zero
    for sign, term in split_terms(text, "element"):
        m = _ELEMENT_TERM.fullmatch(term)
        if not m:
            raise DomainError(f"bad element literal {''.join(text.split())!r}")
        if m.group(1):
            val = field.from_int(literal_int(m.group(1), "element"))
        else:
            base = a if m.group(3) == "a" else field.gen
            coeff, e = (literal_int(m.group(g) or "1", "element") for g in (2, 4))
            val = field.from_int(coeff) * base ** e
        total = total + val if sign == 1 else total - val
    return total
