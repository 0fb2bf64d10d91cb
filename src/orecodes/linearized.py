"""q-linearized polynomials over GF(q^k): the coefficient-transport
isomorphism with F[x;phi], composition, Moore and Dickson matrices, and the
matrix-algebra realization of A/(x^k - 1).

Throughout, sigma is fixed to the Frobenius phi.  The matrix M_g of the
evaluation map holds the coordinates of g(z_j) in column j, so that
D_g = M(X) M_g M(X)^{-1} holds on the nose.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DomainError, GuardError
from .gf import FieldElement, FiniteField
from .linalg import Matrix
from .skewpoly import OreRing, SkewPoly

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
        acc = self.field.zero
        cur = z
        for i, c in enumerate(self.coeffs):
            if i:
                cur = FieldElement(self.field, self.field.frob_i(cur.idx, 1))
            if c:
                acc = acc + c * cur
        return acc

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
        if not self.coeffs:
            return "0"
        q = self.field.q
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            mono = "y" if i == 0 else f"y^{q ** i}"
            parts.append(mono if c == self.field.one else f"{c!r}*{mono}")
        return "+".join(parts)


def to_linearized(g: SkewPoly) -> LinearizedPoly:
    """Coefficient transport F[x;phi] -> L; requires sigma = phi."""
    ring = g.ring
    if ring.sigma.l != 1 or not ring.is_auto_type:
        raise DomainError("linearized correspondence requires the ring F[x;phi]")
    return LinearizedPoly(ring.field, g.coeffs)


def from_linearized(ring: OreRing, g: LinearizedPoly) -> SkewPoly:
    if ring.sigma.l != 1 or not ring.is_auto_type:
        raise DomainError("linearized correspondence requires the ring F[x;phi]")
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
    element index, or None when X is not a Z_q-basis (the map from
    coordinate tuples to elements must be a bijection)."""
    X = list(X)
    if len(X) != field.k:
        return None
    table = {0: ()}
    for z in X:
        multiples = [field.mul_i(field.from_int(c).idx, z.idx) for c in range(field.q)]
        grown = {
            field.add_i(s, m): coords + (c,)
            for s, coords in table.items()
            for c, m in enumerate(multiples)
        }
        if len(grown) != len(table) * field.q:
            return None
        table = grown
    return [table[i] for i in range(field.size)]


def is_zq_basis(field: FiniteField, X) -> bool:
    return _zq_coordinates(field, X) is not None


def moore_matrix(field: FiniteField, X) -> Matrix:
    """Rows z_j^{q^i}; invertible exactly when X is a Z_q-basis."""
    X = list(X)
    rows = []
    cur = list(X)
    for i in range(len(X)):
        if i:
            cur = [FieldElement(field, field.frob_i(z.idx, 1)) for z in cur]
        rows.append(list(cur))
    return Matrix.over_field(field, rows, len(X))


def eval_matrix(g: LinearizedPoly, X=None) -> Matrix:
    """Matrix M_g of the evaluation map in the Z_q-basis X: column j holds
    the coordinates of g(z_j)."""
    field = g.field
    X = canonical_basis(field) if X is None else list(X)
    table = _zq_coordinates(field, X)
    if table is None:
        raise DomainError("X is not a Z_q-basis")
    return _coordinate_matrix(g, X, table)


def _coordinate_matrix(g: LinearizedPoly, X, table) -> Matrix:
    """M_g from the Z_q coordinate table of the basis X."""
    field = g.field
    prime = [field.from_int(c) for c in range(field.q)]
    cols = [table[g(z).idx] for z in X]
    return Matrix.over_field(field, [[prime[col[i]] for col in cols] for i in range(len(X))], len(X))


def dickson_matrix(g: LinearizedPoly) -> Matrix:
    """The q-circulant matrix: entry (i, j) = g_{(j-i) mod k}^{q^i}."""
    field = g.field
    k = field.k
    gs = list(g.coeffs) + [field.zero] * (k - len(g.coeffs))
    if len(gs) > k:
        raise DomainError("linearized polynomial does not fit k coefficients")
    rows = []
    for i in range(k):
        rows.append(
            [FieldElement(field, field.frob_i(gs[(j - i) % k].idx, i)) for j in range(k)]
        )
    return Matrix.over_field(field, rows, k)


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
    injective and surjective by Z_q-rank."""
    if field.size > MAX_ALGEBRA_FIELD:
        raise GuardError(f"matrix algebra check: |F| = {field.size} (cap {MAX_ALGEBRA_FIELD})")
    k = field.k
    ring = OreRing(field, 1)
    f = ring.monomial(k) - ring.one
    X = canonical_basis(field)
    table = _zq_coordinates(field, X)

    def mat(poly):
        return _coordinate_matrix(to_linearized(poly.right_divmod(f)[1]), X, table)

    # images of an F-basis of A/(x^k-1), expanded over Z_q, must span k^2 dims
    rows = []
    basis_polys = []
    for b in X:
        for i in range(k):
            basis_polys.append(ring.monomial(i, b))
    for p in basis_polys:
        m = mat(p)
        rows.append([v for row in m.rows for v in row])
    rank = Matrix.over_field(field, rows, k * k).rank()
    surjective = rank == k * k
    injective = surjective  # equal finite cardinalities q^{k^2}

    # identity and homomorphism properties
    report = {
        "k": k,
        "q": field.q,
        "surjective": surjective,
        "injective": injective,
        "identity_ok": mat(ring.monomial(k)).rows
        == _coordinate_matrix(LinearizedPoly(field, [field.one]), X, table).rows,
        "multiplicative_ok": True,
        "additive_ok": True,
        "pairs_checked": 0,
    }
    small = field.size ** k <= 256
    if small:
        cosets = [
            ring.poly(list(t)) for t in itertools.product(field.elements(), repeat=k)
        ]
    else:
        import random

        rng = random.Random(0)
        cosets = [
            ring.poly([field.element(rng.randrange(field.size)) for _ in range(k)])
            for _ in range(16)
        ]
    mats = [mat(a) for a in cosets]
    for (a, ma), (b, mb) in itertools.product(zip(cosets, mats), repeat=2):
        if mat((a * b).right_divmod(f)[1]).rows != (ma * mb).rows:
            report["multiplicative_ok"] = False
        if mat(a + b).rows != [
            [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(ma.rows, mb.rows)
        ]:
            report["additive_ok"] = False
        report["pairs_checked"] += 1
    report["all_ok"] = all(
        report[key] for key in ("surjective", "injective", "identity_ok", "multiplicative_ok", "additive_ok")
    )
    return report
