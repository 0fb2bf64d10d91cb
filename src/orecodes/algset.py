"""Single-variable algebraic sets over F[x;sigma,delta]: vanishing sets,
minimal polynomials, ranks, W-polynomials, Vandermonde/Wronskian matrices and
left ideals of points.

Point sets are handled as lists sorted by element index; lclm folds run
left-to-right in that order so every output is deterministic.
"""

from __future__ import annotations

from .errors import DomainError
from .linalg import Matrix
from .gf import parse_element, split_list
from .skewpoly import OreRing, SkewPoly, field_index, lclm_list, norms_i, operator_powers_i, right_eval


def _sorted_points(points):
    return sorted(set(points), key=lambda z: z.idx)


def vanishing_set(g: SkewPoly):
    """V(g) = {z in F : g(z) = 0} by full enumeration of the field."""
    ring = g.ring
    if not g:
        return ring.field.elements()
    return [z for z in ring.field.elements() if not right_eval(g, z)]


def minimal_polynomial(ring: OreRing, points) -> SkewPoly:
    """m_X = lclm(x - z | z in X), with m_emptyset = 1."""
    pts = _sorted_points(points)
    if not pts:
        return ring.one
    m = lclm_list(ring.linear(z) for z in pts)
    assert m.degree <= len(pts)
    return m


def rank_of_set(ring: OreRing, points) -> int:
    """rank(X) = deg m_X; cross-checked against the Vandermonde rank."""
    pts = _sorted_points(points)
    r = minimal_polynomial(ring, pts).degree
    if pts:
        assert r == vandermonde(ring, pts).rank()
    return r


def _point_matrix(ring: OreRing, points, nrows, column) -> Matrix:
    """Column j holds column(ring, z_j, r - 1): r entries for the point z_j."""
    pts = list(points)
    r = len(pts) if nrows is None else nrows
    field = ring.field
    cols = [column(ring, field_index(field, z), r - 1) for z in pts]
    return Matrix.from_indices(field, [[col[i] for col in cols] for i in range(r)], len(pts))


def vandermonde(ring: OreRing, points, nrows: int | None = None) -> Matrix:
    """V_r(Z): row i holds N_i(z_j)."""
    return _point_matrix(ring, points, nrows, norms_i)


def wronskian(ring: OreRing, points, nrows: int | None = None) -> Matrix:
    """Wr_r(Z): row i holds D^i(z_j), D = sigma if delta = 0 else delta."""
    return _point_matrix(ring, points, nrows, operator_powers_i)


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
