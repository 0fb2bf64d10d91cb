"""q-linearized polynomials over GF(q^k): the coefficient-transport
isomorphism with F[x;phi], composition, Moore and Dickson matrices, and the
matrix-algebra realization of A/(x^k - 1).

Throughout, sigma is fixed to the Frobenius phi.  The matrix M_g of the
evaluation map holds the coordinates of g(z_j) in column j, so that
D_g = M(X) M_g M(X)^{-1} holds on the nose.
"""

from __future__ import annotations

import itertools
import random

from .algset import wronskian
from .errors import DomainError, capped
from .gf import FieldElement, FiniteField, power_str, subfield_coordinates, sum_str
from .linalg import Matrix, dot_i, identity, matmul_i, rank_i
from .skewpoly import OreRing, SkewPoly, _mul_i, operator_eval, operator_powers_i

MAX_ALGEBRA_FIELD = 64


class LinearizedPoly:
    """sum g_i y^{q^i}, a Z_q-linear map on F."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    def __call__(self, z: FieldElement) -> FieldElement:
        """g(z) = sum g_i phi^i(z), the operator evaluation in F[x;phi]."""
        return operator_eval(OreRing(self.field, 1).poly(self.coeffs), z)

    def __eq__(self, other):
        return (
            isinstance(other, LinearizedPoly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        get = lambda cs, i: cs[i] if i < len(cs) else self.field.zero
        return LinearizedPoly(
            self.field, [get(self.coeffs, i) + get(other.coeffs, i) for i in range(n)]
        )

    def compose(self, other: "LinearizedPoly") -> "LinearizedPoly":
        """(z y^{q^i}) o (z' y^{q^j}) = z z'^{q^i} y^{q^{i+j}}."""
        if other.field is not self.field:
            raise DomainError("linearized polynomials over different fields")
        F = self.field
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs))
        for i, z in enumerate(self.coeffs):
            if not z:
                continue
            for j, zp in enumerate(other.coeffs):
                if zp:
                    out[i + j] = out[i + j] + z * FieldElement(F, F.frob_i(zp.idx, i))
        return LinearizedPoly(F, out)

    def __repr__(self):
        q = self.field.q
        return sum_str((repr(c), power_str("y", q ** i)) for i, c in reversed(list(enumerate(self.coeffs))) if c)


def _require_frobenius_ring(ring: OreRing):
    # sigma.l is reduced mod k, so phi itself is l = 1 % k (0 on a prime field)
    if ring.sigma.l != 1 % ring.field.k or not ring.is_auto_type:
        raise DomainError("linearized correspondence requires the ring F[x;phi]")


def to_linearized(g: SkewPoly) -> LinearizedPoly:
    """Coefficient transport F[x;phi] -> L; requires sigma = phi."""
    _require_frobenius_ring(g.ring)
    return LinearizedPoly(g.ring.field, g.coeffs)


def from_linearized(ring: OreRing, g: LinearizedPoly) -> SkewPoly:
    _require_frobenius_ring(ring)
    if g.field is not ring.field:
        raise DomainError("field mismatch")
    return ring.poly(list(g.coeffs))


# -- bases and matrices -----------------------------------------------------------

def canonical_basis(field: FiniteField):
    """{1, a, ..., a^{k-1}} with a the residue of the modulus variable."""
    if field.k == 1:
        return [field.one]
    a = field.from_code(field.q)
    return [a ** i for i in range(field.k)]


def _zq_coordinates(field: FiniteField, X):
    """Z_q coordinates over X of every element of F, as a list indexed by
    element index holding tuples of prime-subfield element indices, or None
    when X is not a Z_q-basis."""
    X = [z.idx for z in X]
    if len(X) != field.k:
        return None
    found = subfield_coordinates(field, [field.from_int(c).idx for c in range(field.q)], X)
    return found and found[1]


def is_zq_basis(field: FiniteField, X) -> bool:
    return _zq_coordinates(field, X) is not None


def moore_matrix(field: FiniteField, X) -> Matrix:
    """Rows z_j^{q^i}, the Wronskian of X in F[x;phi]; invertible exactly
    when X is a Z_q-basis."""
    return wronskian(OreRing(field, 1), X)


def eval_matrix(g: LinearizedPoly, X=None) -> Matrix:
    """Matrix M_g of the evaluation map in the Z_q-basis X: column j holds
    the coordinates of g(z_j)."""
    field = g.field
    X = canonical_basis(field) if X is None else list(X)
    table = _zq_coordinates(field, X)
    if table is None:
        raise DomainError("X is not a Z_q-basis")
    return Matrix.from_indices(field, _m_rows(field, X, table)([c.idx for c in g.coeffs]), len(X))


def _m_rows(field: FiniteField, X, table):
    """The builder g -> index rows of M_g, for coefficient indices g of any
    length: g is folded mod x^k - 1 (x^k is central because phi^k = id), and
    column j holds the Z_q coordinates table[g(z_j)], g(z_j) being the dot
    product of g with phi^0(z_j), ..., phi^(k-1)(z_j)."""
    k, ring = field.k, OreRing(field, 1)
    powers = [operator_powers_i(ring, z.idx, k - 1) for z in X]

    def rows(g):
        folded = [0] * k
        for i, c in enumerate(g):
            if c:
                folded[i % k] = field.add_i(folded[i % k], c)
        return [list(r) for r in zip(*(table[dot_i(field, folded, p)] for p in powers))]

    return rows


def dickson_matrix(g: LinearizedPoly) -> Matrix:
    """The q-circulant matrix: entry (i, j) = g_{(j-i) mod k}^{q^i}."""
    field = g.field
    k = field.k
    gs = list(g.coeffs) + [field.zero] * (k - len(g.coeffs))
    if len(gs) > k:
        raise DomainError("linearized polynomial does not fit k coefficients")
    rows = [[field.frob_i(gs[(j - i) % k].idx, i) for j in range(k)] for i in range(k)]
    return Matrix.from_indices(field, rows, k)


def dickson_identity_holds(g: LinearizedPoly, X=None) -> bool:
    """D_g = M(X) M_g M(X)^{-1}."""
    field = g.field
    X = canonical_basis(field) if X is None else list(X)
    M = moore_matrix(field, X)
    return (dickson_matrix(g) * M).rows == (M * eval_matrix(g, X)).rows


# -- the matrix algebra A/(x^k - 1) = M_k(Z_q) --------------------------------------

def matrix_algebra_check(field: FiniteField) -> dict:
    """Verify that gbar -> M_g realizes A/(x^k - 1) as all of M_k(Z_q):
    additive, multiplicative (on all pairs at tiny sizes, sampled otherwise),
    injective and surjective by Z_q-rank, and sending 1 to the identity.
    Cosets are index lists of length k."""
    capped(field.size, MAX_ALGEBRA_FIELD, "matrix algebra check: |F| =")
    k = field.k
    ring = OreRing(field, 1)
    X = canonical_basis(field)
    mat = _m_rows(field, X, _zq_coordinates(field, X))

    # images of an F-basis b x^i of A/(x^k-1), expanded over Z_q, must span k^2 dims
    rows = [[v for row in mat([0] * i + [b.idx]) for v in row] for b in X for i in range(k)]
    surjective = rank_i(field, rows) == k * k
    report = {
        "k": k,
        "q": field.q,
        "surjective": surjective,
        "injective": surjective,  # equal finite cardinalities q^{k^2}
        "identity_ok": eval_matrix(to_linearized(ring.one), X) == identity(k, field.zero, field.one),
        "multiplicative_ok": True,
        "additive_ok": True,
    }
    if field.size ** k <= 256:
        cosets = [list(t) for t in itertools.product(range(field.size), repeat=k)]
    else:
        rng = random.Random(0)
        cosets = [[rng.randrange(field.size) for _ in range(k)] for _ in range(16)]
    add = field.add_i
    mats, packed = [mat(a) for a in cosets], [field.rows.pack(a) for a in cosets]
    for (a, pa, ma), (b, pb, mb) in itertools.product(zip(cosets, packed, mats), repeat=2):
        if mat(field.rows.unpack(_mul_i(ring, pa, pb), 2 * k - 1)) != matmul_i(field, ma, mb):
            report["multiplicative_ok"] = False
        if mat([add(x, y) for x, y in zip(a, b)]) != [
            [add(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(ma, mb)
        ]:
            report["additive_ok"] = False
    report["pairs_checked"] = len(cosets) ** 2
    report["all_ok"] = all(
        report[key] for key in ("surjective", "injective", "identity_ok", "multiplicative_ok", "additive_ok")
    )
    return report
