import functools
import itertools
import random

import pytest

from orecodes import linearized
from orecodes.errors import DomainError, GuardError
from orecodes.gf import GF, parse_field
from orecodes.linalg import Matrix, identity
from orecodes.skewpoly import OreRing, operator_eval
from orecodes.linearized import (
    LinearizedPoly,
    canonical_basis,
    dickson_identity_holds,
    dickson_matrix,
    eval_matrix,
    from_linearized,
    is_zq_basis,
    matrix_algebra_check,
    moore_matrix,
    to_linearized,
)


@pytest.fixture(scope="module")
def R4():
    return OreRing(GF(2, 2), 1)


def test_coefficient_transport(R4):
    F = R4.field
    g = to_linearized(R4.x)
    # x maps to y^q, i.e. the Frobenius map
    for z in F.elements():
        assert g(z) == z ** 2
    lifted = from_linearized(R4, g)
    assert lifted == R4.x
    g2 = to_linearized(R4.parse("x^2+1"))
    for z in F.elements():
        assert g2(z) == z ** 4 + z


def test_requires_frobenius_ring():
    R = OreRing(GF(2, 2), 0)
    with pytest.raises(DomainError):
        to_linearized(R.one)
    with pytest.raises(DomainError):
        from_linearized(R, LinearizedPoly(R.field, [R.field.one]))


@pytest.mark.parametrize("p", [3, 5])
def test_prime_field_is_a_frobenius_ring(p):
    # phi is the identity on GF(p), so F[x;phi] is F[x] and x + 1 is y^p + y
    R = OreRing(GF(p, 1), 1)
    g = to_linearized(R.parse("x+1"))
    assert repr(g) == f"y^{p}+y"
    assert from_linearized(R, g) == R.parse("x+1")
    assert matrix_algebra_check(R.field)["all_ok"]


def test_prime_field_cli(capsys):
    from orecodes.cli import main

    assert main(["linearized", "map", "--field", "GF(3)", "--poly", "x+1", "--format", "json"]) == 0
    assert '"linearized": "y^3+y"' in capsys.readouterr().out


def test_evaluation_is_additive_and_zq_linear(R4):
    F = R4.field
    rng = random.Random(0)
    for _ in range(25):
        g = LinearizedPoly(F, [F.element(rng.randrange(4)) for _ in range(3)])
        for z1, z2 in itertools.product(F.elements(), repeat=2):
            assert g(z1 + z2) == g(z1) + g(z2)


def test_transport_is_ring_isomorphism(R4):
    F = R4.field
    rng = random.Random(1)
    for _ in range(40):
        a = R4.poly([F.element(rng.randrange(4)) for _ in range(rng.randrange(1, 4))])
        b = R4.poly([F.element(rng.randrange(4)) for _ in range(rng.randrange(1, 4))])
        assert to_linearized(a * b) == to_linearized(a).compose(to_linearized(b))
        assert to_linearized(a + b) == to_linearized(a) + to_linearized(b)


def test_composition_rule_example(R4):
    F = R4.field
    w = F.gen
    g = to_linearized(R4.x)
    h = to_linearized(w * R4.x)
    # z y^{q^i} o z' y^{q^j} = z z'^{q^i} y^{q^{i+j}}
    assert g.compose(h) == LinearizedPoly(F, [F.zero, F.zero, w ** 2])


def test_moore_matrix_examples():
    F = GF(2, 2)
    w = F.gen
    M = moore_matrix(F, [F.one, w])
    assert M.rows == [[F.one, w], [F.one, w ** 2]]
    assert M.det() == F.one  # w^2 + w = 1
    assert moore_matrix(GF(2, 1), [GF(2, 1).one]).rows == [[GF(2, 1).one]]


def test_moore_invertibility_iff_basis():
    F = GF(2, 3)
    for pair in itertools.combinations(F.elements(), 3):
        M = moore_matrix(F, list(pair))
        assert M.is_invertible() == is_zq_basis(F, list(pair))


def test_dickson_identity_and_frobenius_example():
    F = GF(2, 2)
    w = F.gen
    g = LinearizedPoly(F, [F.zero, F.one])  # y^2, the Frobenius
    D = dickson_matrix(g)
    assert D.rows == [[F.zero, F.one], [F.one, F.zero]]
    Mg = eval_matrix(g)
    # columns hold the coordinates of g(1) = 1 and g(w) = w^2 = 1 + w
    assert Mg.rows == [[F.one, F.one], [F.zero, F.one]]
    assert dickson_identity_holds(g)
    ident = LinearizedPoly(F, [F.one])
    assert dickson_matrix(ident).rows == [[F.one, F.zero], [F.zero, F.one]]


def test_dickson_identity_all_g_small_fields():
    for q, k in [(2, 1), (2, 2), (2, 3)]:
        F = GF(q, k)
        for coeffs in itertools.product(F.elements(), repeat=k):
            g = LinearizedPoly(F, list(coeffs))
            assert dickson_identity_holds(g)


def test_dickson_conjugation_by_random_bases():
    F = GF(2, 2)
    rng = random.Random(3)
    bases = [b for b in itertools.permutations(F.elements(), 2) if is_zq_basis(F, b)]
    for _ in range(20):
        g = LinearizedPoly(F, [F.element(rng.randrange(4)) for _ in range(2)])
        X = list(rng.choice(bases))
        M = moore_matrix(F, X)
        assert (dickson_matrix(g) * M).rows == (M * eval_matrix(g, X)).rows


def test_matrix_algebra_q2_k2():
    report = matrix_algebra_check(GF(2, 2))
    assert report["all_ok"]
    assert report["surjective"] and report["injective"]
    assert report["pairs_checked"] == 16 * 16


def test_matrix_algebra_q2_k3():
    report = matrix_algebra_check(GF(2, 3))
    assert report["all_ok"]


def test_matrix_algebra_guard_reports_size_and_cap():
    with pytest.raises(GuardError, match=r"^matrix algebra check: \|F\| = 128 exceeds the cap 64$"):
        matrix_algebra_check(GF(2, 7))


# -- matrix_algebra_check against a boxed reference -----------------------------------

PRIME_POWERS_TO_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47,
                      49, 53, 59, 61, 64]


def zq_coords(field, X):
    """Every element of F -> its Z_q coordinates over X, by summing every
    coefficient tuple."""
    out = {}
    for combo in itertools.product(range(field.q), repeat=len(X)):
        cs = [field.from_int(c) for c in combo]
        out[sum((c * b for c, b in zip(cs, X)), field.zero)] = cs
    return out


def boxed_algebra_check(field):
    """The check on boxed objects: cosets are SkewPolys reduced with
    right_divmod by x^k - 1, M_g comes from operator_eval, products are
    Matrix products; the same report, keys and coset draws."""
    k = field.k
    ring = OreRing(field, 1)
    f = ring.monomial(k) - ring.one
    X = canonical_basis(field)
    coords = zq_coords(field, X)

    def mat(poly):
        r = poly.right_divmod(f)[1]
        return Matrix.over_field(field, zip(*[coords[operator_eval(r, z)] for z in X]), k)

    rows = [[v for row in mat(ring.monomial(i, b)).rows for v in row] for b in X for i in range(k)]
    surjective = Matrix.over_field(field, rows, k * k).rank() == k * k
    report = {"k": k, "q": field.q, "surjective": surjective, "injective": surjective,
              "identity_ok": mat(ring.one) == identity(k, field.zero, field.one),
              "multiplicative_ok": True, "additive_ok": True, "pairs_checked": 0}
    if field.size ** k <= 256:
        cosets = [ring.poly(list(t)) for t in itertools.product(field.elements(), repeat=k)]
    else:
        rng = random.Random(0)
        cosets = [ring.poly([field.element(rng.randrange(field.size)) for _ in range(k)]) for _ in range(16)]
    mats = [mat(a) for a in cosets]
    for (a, ma), (b, mb) in itertools.product(zip(cosets, mats), repeat=2):
        if mat(a * b) != ma * mb:
            report["multiplicative_ok"] = False
        if mat(a + b).rows != [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(ma.rows, mb.rows)]:
            report["additive_ok"] = False
        report["pairs_checked"] += 1
    report["all_ok"] = all(
        report[key] for key in ("surjective", "injective", "identity_ok", "multiplicative_ok", "additive_ok")
    )
    return report


@pytest.mark.parametrize("n", PRIME_POWERS_TO_64)
def test_matrix_algebra_check_matches_boxed_reference(n):
    F = parse_field(f"GF({n})")
    report = matrix_algebra_check(F)
    assert list(report.items()) == list(boxed_algebra_check(F).items())
    assert report["all_ok"]


def test_identity_ok_sees_a_corrupted_zq_table(monkeypatch):
    good = linearized._zq_coordinates

    def swapped(field, X):
        table = list(good(field, X))
        a, b = X[0].idx, X[1].idx
        table[a], table[b] = table[b], table[a]
        return table

    monkeypatch.setattr(linearized, "_zq_coordinates", swapped)
    report = matrix_algebra_check(GF(2, 2))
    assert report["identity_ok"] is False and report["all_ok"] is False


# -- the row product and sum of matrix_algebra_check -------------------------------------
# A matrix is one row of field.rows with column j at offset k*j (linearized._m_rows).

def matmul_idx(field, a, b):
    """The product of the k x k matrices with index rows a and b, one dot product per entry."""
    add, mul = field.add_i, field.mul_i
    return [[functools.reduce(add, (mul(x, y) for x, y in zip(r, c)), 0) for c in zip(*b)] for r in a]


def to_row(field, m):
    return field.rows.pack([v for col in zip(*m) for v in col])


def from_row(field, row, k):
    flat = field.rows.unpack(row, k * k)
    return [flat[i::k] for i in range(k)]


@pytest.mark.parametrize("q,k", [(2, 2), (2, 4), (3, 2), (5, 2)])
def test_matrix_product_matches_index_matmul(q, k):
    F, rng = GF(q, k), random.Random(q * k)
    for _ in range(20):
        a, b = ([[rng.randrange(F.size) for _ in range(k)] for _ in range(k)] for _ in range(2))
        a_cols, b_entries = [F.rows.pack(col) for col in zip(*a)], [v for col in zip(*b) for v in col]
        product = linearized._matrix_product(F.rows, k, a_cols, b_entries)
        assert from_row(F, product, k) == matmul_idx(F, a, b)
        ma, mb = to_row(F, a), to_row(F, b)
        total = linearized._matrix_sum(F.rows, ma, mb)
        assert from_row(F, total, k) == [[F.add_i(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)]
        # held rows unchanged
        assert [from_row(F, ma, k), from_row(F, mb, k)] == [a, b]
        assert [F.rows.unpack(c, k) for c in a_cols] == [list(col) for col in zip(*a)]


def test_multiplicative_ok_sees_a_transposed_product(monkeypatch):
    good = linearized._matrix_product

    def transposed(rows, k, a_cols, b):
        field = rows.field
        return to_row(field, [list(r) for r in zip(*from_row(field, good(rows, k, a_cols, b), k))])

    monkeypatch.setattr(linearized, "_matrix_product", transposed)
    report = matrix_algebra_check(GF(2, 2))
    assert report["multiplicative_ok"] is False and report["all_ok"] is False
    assert report["additive_ok"] is True


def test_additive_ok_sees_a_sum_without_a_column(monkeypatch):
    good = linearized._matrix_sum

    def dropped(rows, ma, mb):  # the last column (offset k*(k-1) = 2 over GF(4)) left out
        return rows.pack(rows.unpack(good(rows, ma, mb), 4)[:2])

    monkeypatch.setattr(linearized, "_matrix_sum", dropped)
    report = matrix_algebra_check(GF(2, 2))
    assert report["additive_ok"] is False and report["all_ok"] is False
    assert report["multiplicative_ok"] is True
