"""Remainder and operator evaluation codes, Hamming/rank metrics, exhaustive
minimum distances and MDS/MRD certification."""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import MAX_SEARCH, DomainError, capped, verify
from .gf import fixed_field_coordinates
from .linalg import Matrix, dot_i, rank_i
from .skewpoly import OreRing
from .algset import vandermonde, wronskian
from .codes import LinearCode

MAX_MESSAGES = 1 << 20


def remainder_code(ring: OreRing, points, k: int) -> LinearCode:
    """C_k(Z): generator matrix is the first k rows of V_r(Z)."""
    return _eval_code(vandermonde, ring, points, k)


def operator_code(ring: OreRing, points, k: int) -> LinearCode:
    """C_{k,L}(Z): generator matrix is the first k rows of Wr_r(Z)."""
    return _eval_code(wronskian, ring, points, k)


def _eval_code(support_matrix, ring: OreRing, points, k: int) -> LinearCode:
    """The code generated by the first k rows of support_matrix(ring, points)."""
    points = tuple(points)
    if not 1 <= k <= len(points):
        raise DomainError("need 1 <= k <= r")
    full = support_matrix(ring, points)
    G = Matrix(full.rows[:k], full.ncols, full.zero, full.one)
    # the row relations of V_r(Z) and Wr_r(Z) are the left ideal of the polynomials vanishing on Z,
    # whose least degree is the full rank: so the first k rows are independent exactly when k is at
    # most that rank, and otherwise they already reach it, which the refusal reports
    try:
        return LinearCode(ring.field, G)
    except DomainError:
        raise DomainError(f"support matrix rank {G.rank()} < k = {k}") from None


# -- metrics -----------------------------------------------------------------------

def hamming_distance(z1, z2) -> int:
    if len(z1) != len(z2):
        raise DomainError("length mismatch")
    return sum(1 for a, b in zip(z1, z2) if a != b)


def hamming_weight(z) -> int:
    return sum(1 for a in z if a)


def rank_of_word(ring: OreRing, z) -> int:
    """Dimension over F^sigma of the span of the coordinates, by expanding
    each coordinate over a fixed F^sigma-basis of F."""
    _, table = fixed_field_coordinates(ring.sigma)
    return rank_i(ring.field, [table[c.idx] for c in z])


def rank_distance(ring: OreRing, z1, z2) -> int:
    if len(z1) != len(z2):
        raise DomainError("length mismatch")
    return rank_of_word(ring, [a - b for a, b in zip(z1, z2)])


def min_distance(code: LinearCode, metric: str, ring: OreRing | None = None) -> int:
    """Minimum weight over nonzero codewords (equal to the minimum pairwise
    distance by linearity). Both weights are unchanged by scaling a word with
    any nonzero scalar, so one word per line of the code suffices: the
    (q^k - 1)/(q - 1) words of LinearCode.line_words."""
    if code.dim == 0:
        raise DomainError("minimum distance of the zero code is undefined")
    capped(code.field.size ** code.dim, MAX_MESSAGES, "message space q^k =")
    if metric == "hamming":
        weigh = hamming_weight
    elif metric == "rank":
        if ring is None:
            raise DomainError("rank metric needs the Ore ring for F^sigma")
        weigh = lambda word: rank_of_word(ring, word)
    else:
        raise DomainError(f"unknown metric {metric!r}")
    return min(map(weigh, code.line_words()))


# -- certification ------------------------------------------------------------------

class Certificate(NamedTuple):
    kind: str  # "MDS" or "MRD"
    holds: bool
    distance: int
    bound: int  # r - k + 1
    cross_checked: bool


def certify(code: LinearCode, kind: str, ring: OreRing | None = None) -> Certificate:
    """MDS: d_H = r - k + 1 (cross-checked by the parity-check column
    criterion); MRD: d_rank = r - k + 1 (Gabidulin matrix criterion as an
    optional cross-check at small sizes)."""
    r, k = code.n, code.dim
    bound = r - k + 1
    if kind == "MDS":
        d = min_distance(code, "hamming")
        holds = d == bound
        verify(_mds_column_check(code) == holds, "the parity-check column criterion agrees with d_H")
        return Certificate(kind, holds, d, bound, True)
    if kind == "MRD":
        if ring is None:
            raise DomainError("MRD certification needs the Ore ring")
        d = min_distance(code, "rank", ring)
        holds = d == bound
        gab = _gabidulin_check(code, ring)  # None when the Y-space is too large
        verify(gab in (None, holds), "the Gabidulin criterion agrees with d_rank")
        return Certificate(kind, holds, d, bound, gab is not None)
    raise DomainError(f"unknown certificate kind {kind!r}")


def _mds_column_check(code: LinearCode) -> bool:
    """Any r-k columns of the parity check matrix are linearly independent."""
    H = _index_rows(code.parity_check())
    m = code.n - code.dim
    if m == 0:
        return True
    for cols in itertools.combinations(range(code.n), m):
        if rank_i(code.field, [[row[c] for c in cols] for row in H]) < m:
            return False
    return True


def _gabidulin_check(code: LinearCode, ring: OreRing):
    """MRD iff rank(Y H^T) = r - k for every (r-k) x r matrix Y over F^sigma
    of rank r - k; enumerated only when the Y-space holds at most MAX_SEARCH
    matrices, None otherwise. The rank depends only on the row space of Y, so
    Y runs over the reduced row-echelon forms, one per (r-k)-dimensional
    subspace of (F^sigma)^r."""
    sub = ring.sigma.fixed_subfield_i()
    n, m = code.n, code.n - code.dim
    if m == 0:
        return True
    if len(sub) ** (m * n) > MAX_SEARCH:
        return None
    F = code.field
    H = _index_rows(code.parity_check())
    # the rows of Y H^T are the images y H^T of the rows of Y
    image = {y: [dot_i(F, y, h) for h in H] for y in itertools.product(sub, repeat=n)}
    for pivots in itertools.combinations(range(n), m):
        # row i has the field's one at pivots[i], zeros at the other pivots and
        # left of pivots[i], and free entries from F^sigma elsewhere
        free = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]
        for values in itertools.product(sub, repeat=len(free)):
            Y = [[0] * n for _ in pivots]
            for i, p in enumerate(pivots):
                Y[i][p] = 1
            for (i, c), v in zip(free, values):
                Y[i][c] = v
            if rank_i(F, [image[tuple(y)] for y in Y]) < m:
                return False
    return True


def _index_rows(M: Matrix):
    return [[v.idx for v in row] for row in M.rows]
