"""The one Gaussian elimination behind Matrix and rank_i/kernel_i against
references that share no code with it: ranks and kernels by enumerating row
spans and solution sets over GF(4), GF(8) and GF(9), determinants by the
Leibniz expansion over Q, Q(i) and GF(5), inverses by their defining product,
and the reduced row echelon form by its defining properties."""

import itertools
import random

import pytest

from orecodes.errors import DomainError
from orecodes.gf import GF
from orecodes.linalg import Matrix, identity, kernel_i, rank_i
from orecodes.scalars import QQ, QQI, GaussianRational

SMALL_FIELDS = [(2, 2), (2, 3), (3, 2)]
SHAPES = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4)]


def random_index_rows(F, rng, nrows, ncols):
    """Index rows with many zeros and, now and then, a repeated or combined
    row, so rank-deficient matrices are common."""
    rows = [[rng.randrange(F.size) if rng.random() < 0.7 else 0 for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.4:
        c = rng.randrange(F.size)
        rows[-1] = [F.add_i(a, F.mul_i(c, b)) for a, b in zip(rows[0], rows[-1])]
    return rows


def index_matrices(q, k, count=6):
    F = GF(q, k)
    rng = random.Random(f"{q}^{k}")
    for nrows, ncols in SHAPES:
        for _ in range(count):
            yield F, random_index_rows(F, rng, nrows, ncols), ncols


def span(F, rows, ncols):
    """Every combination sum m_j * rows[j], as a set of index tuples."""
    out = set()
    for msg in itertools.product(range(F.size), repeat=len(rows)):
        word = [0] * ncols
        for m, row in zip(msg, rows):
            word = [F.add_i(w, F.mul_i(m, v)) for w, v in zip(word, row)]
        out.add(tuple(word))
    return out


def solutions(F, rows, ncols, rhs=None):
    """The enumerated set {v : A v = rhs} (rhs zero by default)."""
    rhs = rhs or [0] * len(rows)
    out = []
    for v in itertools.product(range(F.size), repeat=ncols):
        image = []
        for row in rows:
            acc = 0
            for a, x in zip(row, v):
                acc = F.add_i(acc, F.mul_i(a, x))
            image.append(acc)
        if image == rhs:
            out.append(list(v))
    return out


def log_size(F, n):
    d = 0
    while F.size ** d < n:
        d += 1
    assert F.size ** d == n
    return d


def free_columns(F, rows, ncols):
    """Columns in the span of the columns before them, by enumeration."""
    cols = [list(c) for c in zip(*rows)] if rows else [[] for _ in range(ncols)]
    return [j for j in range(ncols) if len(span(F, cols[:j + 1], len(rows))) == len(span(F, cols[:j], len(rows)))]


def unboxed(m):
    return [[v.idx for v in row] for row in m.rows]


@pytest.mark.parametrize("q,k", SMALL_FIELDS)
def test_rank_is_the_dimension_of_the_enumerated_row_span(q, k):
    for F, rows, ncols in index_matrices(q, k):
        dim = log_size(F, len(span(F, rows, ncols)))
        assert rank_i(F, rows) == dim
        assert Matrix.from_indices(F, rows, ncols).rank() == dim
        assert Matrix.from_indices(F, rows, ncols).is_invertible() == (len(rows) == ncols == dim)


@pytest.mark.parametrize("q,k", SMALL_FIELDS)
def test_kernel_is_the_enumerated_solution_set_in_free_column_form(q, k):
    for F, rows, ncols in index_matrices(q, k):
        kernel = solutions(F, rows, ncols)
        free = free_columns(F, rows, ncols)
        # per free column, the one solution with 1 there and 0 at the other free columns
        expected = [next(v for v in kernel if [v[j] for j in free] == [int(j == fc) for j in free]) for fc in free]
        assert kernel_i(F, rows, ncols) == expected
        assert unboxed(Matrix.from_indices(F, rows, ncols).kernel()) == expected
        assert span(F, expected, ncols) == {tuple(v) for v in kernel}


@pytest.mark.parametrize("q,k", SMALL_FIELDS)
def test_solve_gives_the_solution_with_free_variables_zero_or_none(q, k):
    rng = random.Random(q * k)
    for F, rows, ncols in index_matrices(q, k, count=3):
        rhs = [rng.randrange(F.size) for _ in rows]
        sols = solutions(F, rows, ncols, rhs)
        free = free_columns(F, rows, ncols)
        x = Matrix.from_indices(F, rows, ncols).solve([F.element(v) for v in rhs])
        if not sols:
            assert x is None
        else:
            assert [v.idx for v in x] == next(v for v in sols if not any(v[j] for j in free))


def test_solve_of_an_inconsistent_system_is_none():
    F = GF(5, 1)
    e = F.from_int
    A = Matrix.over_field(F, [[e(1), e(2)], [e(2), e(4)]])
    assert A.solve([e(1), e(3)]) is None
    assert A.solve([e(1), e(2)]) == [e(1), e(0)]
    Z = Matrix.over_field(F, [[e(0), e(0)]])
    assert Z.solve([e(1)]) is None
    assert Z.solve([e(0)]) == [e(0), e(0)]
    with pytest.raises(DomainError, match="rhs length mismatch"):
        A.solve([e(1)])


@pytest.mark.parametrize("q,k", SMALL_FIELDS)
def test_rref_has_the_defining_properties(q, k):
    for F, rows, ncols in index_matrices(q, k):
        red, pivots = Matrix.from_indices(F, rows, ncols).rref()
        R = unboxed(red)
        assert span(F, R, ncols) == span(F, rows, ncols)
        assert len(R) == len(pivots) and pivots == sorted(set(pivots))
        free = free_columns(F, rows, ncols)
        assert pivots == [j for j in range(ncols) if j not in free]
        for i, (row, c) in enumerate(zip(R, pivots)):
            assert not any(row[:c]) and row[c] == 1
            assert all(other[c] == 0 for o, other in enumerate(R) if o != i)


def leibniz(rows, zero, one):
    n = len(rows)
    total = zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -one if inversions % 2 else one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


F5 = GF(5, 1)
SCALARS = [  # (zero, one, a random scalar with the given rng)
    pytest.param(QQ.zero, QQ.one, lambda rng: GaussianRational(rng.randrange(-3, 4)), id="Q"),
    pytest.param(QQI.zero, QQI.one, lambda rng: GaussianRational(rng.randrange(-3, 4), rng.randrange(-2, 3)), id="Q(i)"),
    pytest.param(F5.zero, F5.one, lambda rng: F5.element(rng.randrange(5)), id="GF(5)"),
]


@pytest.mark.parametrize("zero,one,draw", SCALARS)
def test_det_matches_the_leibniz_expansion(zero, one, draw):
    rng = random.Random(7)
    nonzero = 0
    for n in range(0, 6):
        for _ in range(30 if n < 5 else 8):
            rows = [[draw(rng) if rng.random() < 0.8 else zero for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
            det = Matrix(rows, n, zero, one).det()
            assert det == leibniz(rows, zero, one)
            nonzero += bool(det)
    assert nonzero > 100


def test_det_sign_of_permutation_matrices_over_q():
    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            rows = [[QQ.one if j == perm[i] else QQ.zero for j in range(n)] for i in range(n)]
            assert Matrix(rows, n, QQ.zero, QQ.one).det() == leibniz(rows, QQ.zero, QQ.one)


@pytest.mark.parametrize("zero,one,draw", SCALARS)
def test_inverse_times_matrix_is_the_identity_and_singular_is_refused(zero, one, draw):
    rng = random.Random(11)
    inverted = singular = 0
    for n in range(0, 5):
        for _ in range(25):
            rows = [[draw(rng) if rng.random() < 0.8 else zero for _ in range(n)] for _ in range(n)]
            M = Matrix(rows, n, zero, one)
            if leibniz(rows, zero, one):
                inv = M.inverse()
                assert M * inv == identity(n, zero, one) == inv * M
                inverted += 1
            else:
                with pytest.raises(DomainError, match="matrix is singular"):
                    M.inverse()
                singular += 1
    assert inverted > 50 and singular > 5
    with pytest.raises(DomainError, match="inverse of a non-square matrix"):
        Matrix([[one, zero]], 2, zero, one).inverse()
