"""Single-variable algebraic sets over F[x;sigma,delta]: vanishing sets,
minimal polynomials, ranks, W-polynomials, Vandermonde/Wronskian matrices and
left ideals of points.

Point sets are handled as lists sorted by element index.  Vanishing sets and
minimal polynomials come from the structure of the conjugacy classes (Lam, "A
general theory of Vandermonde matrices", 1986; Lam-Leroy, "Vandermonde and
Wronskian matrices over division rings", 1988), and each result is checked by
evaluating it with the norm sum.
"""

from __future__ import annotations

from .errors import DomainError, verify
from .linalg import Matrix, dot_i, kernel_i
from .gf import FieldElement, fixed_field_coordinates, parse_element, split_list
from .skewpoly import (OreRing, SkewPoly, _from_idx, _x_times_i, conjugate_i, field_index, norms_i,
                       operator_powers_i, remove_derivation)


def _sorted_points(points):
    return sorted(set(points), key=lambda z: z.idx)


def _roots_i(ring: OreRing, g) -> set:
    """Indices of the roots in F[x;sigma], sigma = phi^l on GF(q^k), of the
    nonzero polynomial with coefficient indices g.  0 is a root iff g_0 = 0.
    The nonzero conjugacy classes are the cosets of the (q^r - 1)-th powers,
    r = gcd(l, k), with representatives a = z0^j, j < q^r - 1.  Since
    N_i(sigma(y) a y^-1) = sigma^i(y) N_i(a) y^-1, the roots in the class of a
    are the sigma(y) a y^-1 for the nonzero y in the kernel of the
    F^sigma-linear map y -> sum_i g_i N_i(a) sigma^i(y), a (k/r) x (k/r)
    matrix over F^sigma."""
    field = ring.field
    add, mul, frob = field.add_i, field.mul_i, field.frob_i
    l = ring.sigma.l
    scalars = ring.sigma.fixed_subfield_i()  # F^sigma, as indices
    basis, coords = fixed_field_coordinates(ring.sigma)
    basis = [b.idx for b in basis]
    d = len(g) - 1
    # g_i sigma^i(b) for each basis element b: column b is its dot product with the N_i(a)
    twisted = [[mul(gi, frob(b, l * i)) for i, gi in enumerate(g)] for b in basis]
    roots = set() if g[0] else {0}
    for a in range(1, len(scalars)):
        norms = norms_i(ring, a, d)
        cols = [coords[dot_i(field, t, norms)] for t in twisted]
        span = {0}
        for v in kernel_i(field, list(zip(*cols)), len(basis)):
            y = dot_i(field, v, basis)
            span = {add(s, mul(c, y)) for s in span for c in scalars}
        roots.update(conjugate_i(ring, a, y) for y in span if y)
    return roots


def vanishing_set(g: SkewPoly):
    """V(g) = {z in F : g(z) = 0}, one F^sigma-kernel per conjugacy class (see
    _roots_i).  With delta_w, z is a root of g iff z + w is a root of g(y - w)
    in F[y;sigma] (remove_derivation)."""
    ring = g.ring
    field = ring.field
    if not g:
        return field.elements()
    target, h = remove_derivation(g)
    roots = sorted(field.sub_i(u, ring._w) for u in _roots_i(target, h.idx))
    verify(all(not dot_i(field, g.idx, norms_i(ring, z, g.degree)) for z in roots),
           "every point of V(g) is a root of g")
    return [FieldElement(field, z) for z in roots]


def minimal_polynomial(ring: OreRing, points) -> SkewPoly:
    """m_X, the monic generator of the left ideal of polynomials vanishing on X
    (m_emptyset = 1), one point at a time: if c = m(z) != 0, then
    m_{X u {z}} = (x - z^c)*m with z^c = (sigma(c) z + delta(c)) c^-1, and
    c = 0 means z is already a root."""
    field = ring.field
    pts = [field_index(field, z) for z in _sorted_points(points)]
    m = [1]
    for z in pts:
        c = dot_i(field, m, norms_i(ring, z, len(m) - 1))
        if c:
            out = _x_times_i(ring, m)
            field.addmul_i(out, field.neg_i(conjugate_i(ring, z, c)), m)
            m = out
    verify(m[-1] == 1 and len(m) <= len(pts) + 1, "m_X is monic of degree <= |X|")
    verify(all(not dot_i(field, m, norms_i(ring, z, len(m) - 1)) for z in pts), "m_X vanishes on X")
    return _from_idx(ring, m)


def rank_of_set(ring: OreRing, points) -> int:
    """rank(X) = deg m_X, which equals the rank of the Vandermonde matrix V(X)."""
    return minimal_polynomial(ring, points).degree


def _point_matrix(ring: OreRing, points, column) -> Matrix:
    """Column j holds column(ring, z_j, r - 1): r = |Z| entries for the point z_j."""
    pts = list(points)
    r, field = len(pts), ring.field
    cols = [column(ring, field_index(field, z), r - 1) for z in pts]
    return Matrix.from_indices(field, [[col[i] for col in cols] for i in range(r)], r)


def vandermonde(ring: OreRing, points) -> Matrix:
    """V_r(Z): row i holds N_i(z_j)."""
    return _point_matrix(ring, points, norms_i)


def wronskian(ring: OreRing, points) -> Matrix:
    """Wr_r(Z): row i holds D^i(z_j), D = sigma if delta = 0 else delta."""
    return _point_matrix(ring, points, operator_powers_i)


def is_w_polynomial(g: SkewPoly) -> bool:
    """g is the minimal polynomial of some point set, i.e. g = m_{V(g)}."""
    if not g.is_monic or g.degree < 1:
        raise DomainError("W-polynomial test requires a monic polynomial of degree >= 1")
    return g == minimal_polynomial(g.ring, vanishing_set(g))


def ideal_of_points(ring: OreRing, points) -> SkewPoly:
    """Monic generator of the left ideal I(X); I(emptyset) = A = A*1."""
    return minimal_polynomial(ring, points)


def points_str(points) -> str:
    from .gf import element_str

    return ",".join(element_str(z) for z in _sorted_points(points))


def parse_points(field, text: str):
    return _sorted_points(parse_element(field, t) for t in split_list(text))
