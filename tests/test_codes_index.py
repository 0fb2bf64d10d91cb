"""The index-space code layer against naive boxed references written here:
Gray-code codeword enumeration, the finite-field rank kernel, rank weights
over non-prime fixed fields, minimum distances and the Gabidulin criterion,
and Z_q coordinates in odd characteristic and over non-canonical bases."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from orecodes import evalcodes
from orecodes.codes import LinearCode
from orecodes.errors import DomainError
from orecodes.gf import GF, fixed_field_coordinates
from orecodes.linalg import Matrix, kernel_i, rank_i
from orecodes.linearized import LinearizedPoly, eval_matrix, is_zq_basis
from orecodes.skewpoly import OreRing

# (q, k, largest code dimension enumerated)
WORD_FIELDS = [(3, 2, 3), (5, 2, 2), (3, 3, 2), (2, 4, 3)]
# (q, k, l): sigma = phi^l; phi^2 fixes GF(4) inside GF(16) and GF(64)
RANK_RINGS = [(2, 4, 1), (2, 4, 2), (2, 6, 1), (2, 6, 2)]

draws = st.lists(st.integers(0, 10 ** 6), min_size=64, max_size=64)


def boxed_rows(field, raw, nrows, ncols):
    return [[field.element(raw[i * ncols + j] % field.size) for j in range(ncols)] for i in range(nrows)]


def naive_span(F, rows, n):
    """sum m_j * rows[j] over every message, on boxed elements."""
    out = []
    for msg in itertools.product(F.elements(), repeat=len(rows)):
        word = [F.zero] * n
        for m, row in zip(msg, rows):
            word = [w + m * v for w, v in zip(word, row)]
        out.append(tuple(word))
    return out


def naive_words(code):
    return naive_span(code.field, code.G.rows, code.n)


def span_rank(sub, z):
    """Dimension over the subfield sub of the span of z, by closing the span."""
    span = {sub[0]}  # the zero element: fixed_subfield lists elements in index order
    for c in z:
        span = {s + a * c for s in span for a in sub}
    dim = 0
    while len(sub) ** dim < len(span):
        dim += 1
    assert len(sub) ** dim == len(span)
    return dim


def multiple_of_a_row(G, diff):
    """True when diff = c * row for some row of G and nonzero scalar c."""
    for row in G.rows:
        p = next(i for i, v in enumerate(row) if v)
        c = diff[p] / row[p]
        if c and [c * v for v in row] == diff:
            return True
    return False


# -- words() -----------------------------------------------------------------------

@pytest.mark.parametrize("q,k,kmax", WORD_FIELDS, ids=lambda v: str(v))
@settings(max_examples=8)
@given(raw=draws, shape=st.tuples(st.integers(1, 3), st.integers(0, 2)))
def test_words_gray_order_matches_message_enumeration(q, k, kmax, raw, shape):
    F = GF(q, k)
    dim = min(shape[0], kmax)
    G = Matrix.over_field(F, boxed_rows(F, raw, dim, dim + shape[1]), dim + shape[1])
    assume(G.rank() == dim)
    code = LinearCode(F, G)
    words = list(code.words())
    assert len(words) == F.size ** dim == len(set(words))
    assert not any(words[0])
    assert set(words) == set(naive_words(code))
    # Gray order: consecutive words differ by a multiple of a single row
    for a, b in zip(words, words[1:]):
        assert multiple_of_a_row(G, [y - x for x, y in zip(a, b)])


@pytest.mark.parametrize("q,k,kmax", WORD_FIELDS, ids=lambda v: str(v))
@settings(max_examples=8)
@given(raw=draws, shape=st.tuples(st.integers(1, 3), st.integers(0, 2)))
def test_words_blocks_hold_one_word_per_line(q, k, kmax, raw, shape):
    """Positions q^j .. 2q^j - 1 of words() are row_j + span(row_0 .. row_{j-1}),
    and every nonzero codeword is c * w for exactly one such w and c != 0:
    the blocks min_distance weighs."""
    F = GF(q, k)
    dim = min(shape[0], kmax)
    G = Matrix.over_field(F, boxed_rows(F, raw, dim, dim + shape[1]), dim + shape[1])
    assume(G.rank() == dim)
    code = LinearCode(F, G)
    words = list(code.words())
    reps = []
    for j, row in enumerate(G.rows):
        block = words[F.size ** j : 2 * F.size ** j]
        expected = {tuple(r + v for r, v in zip(row, s)) for s in naive_span(F, G.rows[:j], code.n)}
        assert len(block) == len(set(block)) == len(expected) and set(block) == expected
        reps += block
    nonzero = [w for w in words if any(w)]
    scaled = Counter(tuple(c * v for v in w) for w in reps for c in F.elements()[1:])
    assert scaled == Counter(nonzero)
    assert len(reps) == (F.size ** dim - 1) // (F.size - 1)


def zech_gray_walk(code):
    """The walk words() ran before rows: index lists, d * row_j by mul_i, one add_i per coordinate."""
    F, size = code.field, code.field.size
    elements = F.elements()
    multiples = [[[F.mul_i(d, v.idx) for v in row] for d in range(size)] for row in code.G.rows]
    msg, word = [0] * code.dim, [0] * code.n
    yield tuple(elements[i] for i in word)
    for step in range(1, size ** code.dim):
        j, rest = 0, step
        while rest % size == 0:
            rest //= size
            j += 1
        old = msg[j]
        msg[j] = old + 1 if (rest // size) % 2 == 0 else old - 1
        delta = multiples[j][F.sub_i(msg[j], old)]
        word = [F.add_i(w, m) for w, m in zip(word, delta)]
        yield tuple(elements[i] for i in word)


# GF(4), GF(16) and GF(256) walk packed rows, GF(9), GF(25) and GF(2^9) the Zech loop
@pytest.mark.parametrize("q,k", [(2, 2), (2, 4), (2, 8), (3, 2), (5, 2), (2, 9)])
@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_words_walk_rows_like_the_zech_loop(q, k, dim):
    """words() equals the index-list walk: the whole walk up to 2^14 words, else through the
    first change of the top digit and 2|F| steps past it; the walk leaves G as it was."""
    F, rng = GF(q, k), random.Random(q * k + dim)
    n = dim + 2
    while True:
        rows = [[F.element(rng.randrange(F.size)) for _ in range(n)] for _ in range(dim)]
        if Matrix(rows, n, F.zero, F.one).rank() == dim:
            break
    code = LinearCode(F, Matrix(rows, n, F.zero, F.one))
    held = [list(row) for row in code.G.rows]
    count = F.size ** dim if F.size ** dim <= 1 << 14 else F.size ** (dim - 1) + 2 * F.size
    assert list(itertools.islice(code.words(), count)) == list(itertools.islice(zech_gray_walk(code), count))
    assert code.G.rows == held


# -- rank_i, kernel_i and rank_of_word ---------------------------------------------------

@pytest.mark.parametrize("q,k", [(2, 4), (2, 6), (3, 2), (3, 3), (5, 2)])
@settings(max_examples=25)
@given(raw=draws, shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4)))
def test_rank_i_matches_boxed_rank(q, k, raw, shape):
    F = GF(q, k)
    nrows, ncols, inner = shape
    # a product through an inner dimension makes rank-deficient matrices common
    A = Matrix.over_field(F, boxed_rows(F, raw, nrows, inner), inner)
    B = Matrix.over_field(F, boxed_rows(F, raw[32:], inner, ncols), ncols)
    M = A * B
    idx = lambda m: [[v.idx for v in row] for row in m.rows]
    assert rank_i(F, idx(M)) == M.rank()
    # the same kernel basis: one vector per free column, 1 there and 0 at the other free columns
    assert kernel_i(F, idx(M), ncols) == idx(M.kernel())


@pytest.mark.parametrize("q,k,l", RANK_RINGS, ids=lambda v: str(v))
@settings(max_examples=25)
@given(raw=draws, n=st.integers(0, 6))
def test_rank_of_word_matches_span_dimension(q, k, l, raw, n):
    ring = OreRing(GF(q, k), l)
    F = ring.field
    sub = ring.sigma.fixed_subfield()
    # draw some coordinates from the fixed subfield, so spans are often small
    z = [F.element(raw[i] % F.size) if raw[32 + i] % 3 else sub[raw[i] % len(sub)] for i in range(n)]
    assert evalcodes.rank_of_word(ring, z) == span_rank(sub, z)
    _, table = fixed_field_coordinates(ring.sigma)
    if z:
        M = Matrix.over_field(F, [[F.element(i) for i in table[c.idx]] for c in z])
        assert M.rank() == span_rank(sub, z)


# -- distances and the Gabidulin criterion -------------------------------------------------

# (q, k, l, kind, r, k_code)
CODES = [
    (3, 2, 1, "remainder", 3, 2),
    (3, 2, 1, "operator", 2, 1),
    (3, 2, 1, "remainder", 4, 2),
    (2, 4, 2, "operator", 2, 1),
    (2, 4, 2, "remainder", 3, 2),
    (2, 3, 1, "operator", 3, 2),
    (2, 4, 1, "operator", 3, 1),
    (5, 2, 1, "operator", 2, 1),
]


def gabidulin_reference(code, ring):
    """The criterion on boxed matrices: every full-rank Y over F^sigma has
    rank(Y H^T) = r - k."""
    sub = ring.sigma.fixed_subfield()
    m = code.n - code.dim
    Ht = code.parity_check().transpose()
    for entries in itertools.product(sub, repeat=m * code.n):
        Y = Matrix.over_field(code.field, [list(entries[i * code.n : (i + 1) * code.n]) for i in range(m)], code.n)
        if Y.rank() == m and (Y * Ht).rank() < m:
            return False
    return True


@pytest.mark.parametrize("params", CODES, ids=lambda v: "-".join(map(str, v)))
@settings(max_examples=6)
@given(raw=draws)
def test_min_distance_and_gabidulin_match_boxed_reference(params, raw):
    compare_with_boxed_reference(params, raw)


@settings(max_examples=2)
@given(raw=draws)
@example(raw=[1, 2, 3, 4] + [0] * 60)  # the support 1, g, g^2, g^3: an MRD code
def test_min_distance_and_gabidulin_match_boxed_reference_gf16_m3(raw):
    """m = r - k = 3 over F_2: the echelon Y enumeration visits 15 row spaces
    where the ordered triples of rows number 4096."""
    compare_with_boxed_reference((2, 4, 1, "operator", 4, 1), raw)


def compare_with_boxed_reference(params, raw):
    q, k, l, kind, r, kk = params
    ring = OreRing(GF(q, k), l)
    F = ring.field
    points = [F.element(c % F.size) for c in raw[:r]]
    build = evalcodes.remainder_code if kind == "remainder" else evalcodes.operator_code
    try:
        code = build(ring, points, kk)
    except DomainError:
        assume(False)
    nonzero = [w for w in naive_words(code) if any(w)]
    sub = ring.sigma.fixed_subfield()
    assert evalcodes.min_distance(code, "hamming") == min(sum(1 for v in w if v) for w in nonzero)
    assert evalcodes.min_distance(code, "rank", ring) == min(span_rank(sub, w) for w in nonzero)
    gab = evalcodes._gabidulin_check(code, ring)
    if gab is not None:
        assert gab == gabidulin_reference(code, ring)
    columns = code.parity_check().transpose().rows
    m = code.n - code.dim
    mds = all(
        Matrix.over_field(F, [columns[c] for c in cols]).rank() == m
        for cols in itertools.combinations(range(code.n), m)
    )
    assert evalcodes._mds_column_check(code) == mds


def test_min_distance_draws_words_and_ranks_through_public_names(monkeypatch):
    """min_distance enumerates through LinearCode.words and weighs through
    evalcodes.rank_of_word, the names the benchmark's tracer wraps."""
    ring = OreRing(GF(2, 4), 1)
    F = ring.field
    code = evalcodes.operator_code(ring, (F.one, F.gen, F.gen ** 2), 2)
    calls = {"words": 0, "drawn": 0, "rank": 0}
    words, rank_of_word = LinearCode.words, evalcodes.rank_of_word

    def counting_words(self):
        calls["words"] += 1
        for w in words(self):
            calls["drawn"] += 1
            yield w

    def counting_rank(ring, z):
        calls["rank"] += 1
        return rank_of_word(ring, z)

    monkeypatch.setattr(LinearCode, "words", counting_words)
    monkeypatch.setattr(evalcodes, "rank_of_word", counting_rank)
    assert evalcodes.min_distance(code, "rank", ring) == 2
    # one word per line, (16^2 - 1)/15 = 17 of them, from the first 2 * 16 drawn
    assert calls == {"words": 1, "drawn": 32, "rank": 17}


@pytest.mark.parametrize("k,spaces", [(1, 15), (2, 35)])
def test_gabidulin_check_ranks_one_y_per_row_space(monkeypatch, k, spaces):
    """An MRD code costs one rank per (r - k)-dimensional subspace of F_2^4:
    the Gaussian binomials [4 choose 3]_2 = 15 and [4 choose 2]_2 = 35."""
    ring = OreRing(GF(2, 4), 1)
    g = ring.field.gen
    code = evalcodes.operator_code(ring, (ring.field.one, g, g ** 2, g ** 3), k)
    calls = []
    rank_i = evalcodes.rank_i
    monkeypatch.setattr(evalcodes, "rank_i", lambda F, rows: calls.append(1) or rank_i(F, rows))
    assert evalcodes._gabidulin_check(code, ring) is True
    assert len(calls) == spaces


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gabidulin_check_runs_at_dimension_five(seed):
    """A 5 x 6 code over GF(8) with sigma = phi has a Y-space of 2^6 matrices,
    well inside MAX_SEARCH, so the criterion runs and agrees with d_rank."""
    ring = OreRing(GF(2, 3), 1)
    F, rng = ring.field, random.Random(seed)
    G = Matrix.from_indices(F, [], 6)
    while G.rank() < 5:
        G = Matrix.from_indices(F, [[rng.randrange(F.size) for _ in range(6)] for _ in range(5)], 6)
    code = LinearCode(F, G)
    assert evalcodes._gabidulin_check(code, ring) is (evalcodes.min_distance(code, "rank", ring) == 2)


# -- Z_q coordinates ---------------------------------------------------------------

def brute_coords(field, X, z):
    """Z_q coordinates of z over X by trying every coefficient tuple."""
    for combo in itertools.product(range(field.q), repeat=len(X)):
        acc = field.zero
        for c, b in zip(combo, X):
            acc = acc + field.from_int(c) * b
        if acc == z:
            return [field.from_int(c) for c in combo]
    raise AssertionError("not in the span")


@pytest.mark.parametrize("q,k", [(3, 2), (5, 2), (2, 3), (3, 3)])
@settings(max_examples=10)
@given(raw=draws)
def test_eval_matrix_matches_brute_force_coordinates(q, k, raw):
    F = GF(q, k)
    X = [F.element(c % F.size) for c in raw[:k]]
    assume(is_zq_basis(F, X))
    # 3k coefficients: eval_matrix folds g mod x^k - 1, while g(z) evaluates it unfolded
    g = LinearizedPoly(F, [F.element(c % F.size) for c in raw[k : 4 * k]])
    cols = [brute_coords(F, X, g(z)) for z in X]
    assert eval_matrix(g, X).rows == [[col[i] for col in cols] for i in range(k)]


@pytest.mark.parametrize("q,k", [(3, 2), (5, 2), (2, 4)])
def test_is_zq_basis_rejects_dependent_and_wrong_length(q, k):
    F = GF(q, k)
    a = F.gen
    assert is_zq_basis(F, [a ** i for i in range(k)])
    assert not is_zq_basis(F, [a ** i for i in range(k - 1)])
    assert not is_zq_basis(F, [a ** i for i in range(k)] + [F.one])
    dependent = [a ** i for i in range(k - 1)] + [-(a ** (k - 2))]
    assert not is_zq_basis(F, dependent)
    with pytest.raises(DomainError):
        eval_matrix(LinearizedPoly(F, [F.one]), dependent)
