"""Remainder and operator evaluation codes, Hamming/rank metrics, exhaustive
minimum distances and MDS/MRD certification."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DomainError, GuardError
from .gf import fixed_field_coordinates
from .linalg import Matrix, dot_i, rank_i
from .skewpoly import OreRing
from .algset import vandermonde, wronskian
from .codes import LinearCode

MAX_MESSAGES = 1 << 20


@dataclass(frozen=True)
class Support:
    """An evaluation support: points Z and the code kind."""

    ring: OreRing
    points: tuple
    kind: str  # "remainder" or "operator"

    def __post_init__(self):
        if self.kind not in ("remainder", "operator"):
            raise DomainError(f"unknown code kind {self.kind!r}")

    def matrix(self) -> Matrix:
        if self.kind == "remainder":
            return vandermonde(self.ring, self.points)
        return wronskian(self.ring, self.points)


def remainder_code(ring: OreRing, points, k: int) -> LinearCode:
    """C_k(Z): generator matrix is the first k rows of V_r(Z)."""
    return _eval_code(Support(ring, tuple(points), "remainder"), k)


def operator_code(ring: OreRing, points, k: int) -> LinearCode:
    """C_{k,L}(Z): generator matrix is the first k rows of Wr_r(Z)."""
    return _eval_code(Support(ring, tuple(points), "operator"), k)


def _eval_code(support: Support, k: int) -> LinearCode:
    r = len(support.points)
    if not 1 <= k <= r:
        raise DomainError("need 1 <= k <= r")
    full = support.matrix()
    rank = full.rank()
    if rank < k:
        raise DomainError(f"support matrix rank {rank} < k = {k}")
    G = Matrix(full.rows[:k], full.ncols, full.zero, full.one)
    code = LinearCode(support.ring.field, G)
    assert code.dim == k
    return code


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
    distance by linearity); exhaustive over the message space."""
    if code.dim == 0:
        raise DomainError("minimum distance of the zero code is undefined")
    messages = code.field.size ** code.dim
    if messages > MAX_MESSAGES:
        raise GuardError(f"message space q^k = {messages} exceeds the cap {MAX_MESSAGES}")
    if metric == "hamming":
        weigh = hamming_weight
    elif metric == "rank":
        if ring is None:
            raise DomainError("rank metric needs the Ore ring for F^sigma")
        weigh = lambda word: rank_of_word(ring, word)
    else:
        raise DomainError(f"unknown metric {metric!r}")
    best = None
    for word in code.words():
        if any(word):
            d = weigh(word)
            if best is None or d < best:
                best = d
    return best


# -- certification ------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
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
        crossed = _mds_column_check(code) == holds
        if not crossed:  # pragma: no cover
            raise AssertionError("parity-check column criterion disagrees with distance")
        return Certificate(kind, holds, d, bound, True)
    if kind == "MRD":
        if ring is None:
            raise DomainError("MRD certification needs the Ore ring")
        d = min_distance(code, "rank", ring)
        holds = d == bound
        crossed = False
        gab = _gabidulin_check(code, ring)
        if gab is not None:
            if gab != holds:  # pragma: no cover
                raise AssertionError("Gabidulin criterion disagrees with rank distance")
            crossed = True
        return Certificate(kind, holds, d, bound, crossed)
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


def _gabidulin_check(code: LinearCode, ring: OreRing, cap: int = 1 << 16):
    """MRD iff rank(Y H^T) = r - k for every (r-k) x r matrix Y over F^sigma
    of rank r - k; enumerated only when the Y-space is small."""
    if code.dim > 4:
        return None
    sub = [z.idx for z in ring.sigma.fixed_subfield()]
    n, m = code.n, code.n - code.dim
    if m == 0:
        return True
    if len(sub) ** (m * n) > cap:
        return None
    F = code.field
    H = _index_rows(code.parity_check())
    # the rows of Y H^T are the images y H^T of the rows of Y
    image = {y: [dot_i(F, y, h) for h in H] for y in itertools.product(sub, repeat=n)}
    for Y in itertools.product(image, repeat=m):
        if rank_i(F, Y) < m:
            continue
        if rank_i(F, [image[y] for y in Y]) < m:
            return False
    return True


def _index_rows(M: Matrix):
    return [[v.idx for v in row] for row in M.rows]
