import itertools
import random

import pytest

from orecodes.errors import DomainError, GuardError
from orecodes.gf import GF, parse_element
from orecodes.skewpoly import OreRing
from orecodes.algset import vandermonde, wronskian
from orecodes.linalg import Matrix
from orecodes.evalcodes import (
    certify,
    hamming_distance,
    min_distance,
    operator_code,
    rank_distance,
    rank_of_word,
    remainder_code,
)


@pytest.fixture(scope="module")
def R4():
    return OreRing(GF(2, 2), 1)


@pytest.fixture(scope="module")
def R8():
    return OreRing(GF(2, 3), 1)


def test_remainder_code_example(R4):
    F = R4.field
    w = F.gen
    code = remainder_code(R4, (F.one, w, w ** 2), 2)
    assert code.dim == 2
    assert code.G.rows == [[F.one, F.one, F.one], [F.one, w, w ** 2]]


# the support matrix V_r(Z) or Wr_r(Z) of points that are not P-independent (not F^sigma-independent
# for the operator code) has rank below r, and a k past that rank is refused
@pytest.mark.parametrize("build", [remainder_code, operator_code])
@pytest.mark.parametrize("q, k, support, dim, rank", [
    (2, 2, "1,w,w^2", 3, 2),
    (2, 4, "1,g^5,g^10,g", 4, 3),
])
def test_support_matrix_rank_below_k_is_refused(build, q, k, support, dim, rank):
    ring = OreRing(GF(q, k), 1)
    points = [parse_element(ring.field, z) for z in support.split(",")]
    with pytest.raises(DomainError, match=f"^support matrix rank {rank} < k = {dim}$"):
        build(ring, points, dim)
    assert build(ring, points, rank).dim == rank


@pytest.mark.parametrize("build, support_matrix", [(remainder_code, vandermonde), (operator_code, wronskian)])
def test_a_built_code_ranks_its_generator_once(build, support_matrix, monkeypatch):
    ring = OreRing(GF(2, 4), 1)
    points = [ring.field.element(i) for i in (1, 2, 3, 5, 8, 9, 12, 14)]
    k = min(4, support_matrix(ring, points).rank())
    calls = []
    rank = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda self: calls.append(self.nrows) or rank(self))
    assert build(ring, points, k).dim == k
    assert calls == [k]


def test_repetition_code(R4):
    F = R4.field
    w = F.gen
    code = remainder_code(R4, (F.one, w, w ** 2), 1)
    assert code.G.rows == [[F.one, F.one, F.one]]
    assert min_distance(code, "hamming") == 3


def test_remainder_code_dimension_always_k(R4):
    for r in range(1, 4):
        for Z in itertools.product(R4.field.elements(), repeat=r):
            V = vandermonde(R4, Z)
            for k in range(1, r + 1):
                if V.rank() >= k:
                    assert remainder_code(R4, Z, k).dim == k
                else:
                    with pytest.raises(DomainError):
                        remainder_code(R4, Z, k)


def test_operator_code_examples(R4):
    F = R4.field
    w = F.gen
    code = operator_code(R4, (F.one, w), 1)
    assert code.G.rows == [[F.one, w]]
    full = operator_code(R4, (F.one, w), 2)
    assert full.dim == 2
    assert full.G.is_invertible()  # Moore-matrix invertibility for independent support


def test_hamming_and_rank_distances(R4):
    F = R4.field
    w = F.gen
    assert hamming_distance((F.one, w, F.zero), (F.one, F.zero, F.zero)) == 1
    assert rank_of_word(R4, (F.one, w)) == 2  # 1, w independent over GF(2)
    assert rank_of_word(R4, (F.one, F.one)) == 1
    assert rank_of_word(R4, ()) == 0


def test_rank_metric_axioms(R4):
    rng = random.Random(0)
    els = R4.field.elements()
    for _ in range(60):
        z1 = tuple(rng.choice(els) for _ in range(3))
        z2 = tuple(rng.choice(els) for _ in range(3))
        z3 = tuple(rng.choice(els) for _ in range(3))
        assert rank_distance(R4, z1, z1) == 0
        d12 = rank_distance(R4, z1, z2)
        assert d12 == rank_distance(R4, z2, z1)
        assert (d12 == 0) == (z1 == z2)
        assert d12 <= rank_distance(R4, z1, z3) + rank_distance(R4, z3, z2)
        assert d12 <= hamming_distance(z1, z2)


def test_min_distance_full_code(R4):
    code = remainder_code(R4, tuple(z for z in R4.field.elements() if z), 1)
    # full-length repetition over the 3 nonzero points
    assert min_distance(code, "hamming") == 3


def test_min_distance_of_full_space_is_one(R4):
    from orecodes.codes import LinearCode
    from orecodes.linalg import identity

    F = R4.field
    code = LinearCode(F, identity(3, F.zero, F.one))
    assert min_distance(code, "hamming") == 1


def test_singleton_bound_and_mds(R4, R8):
    for ring, rmax in ((R4, 3), (R8, 3)):
        els = [z for z in ring.field.elements()]
        rng = random.Random(1)
        for _ in range(25):
            r = rng.randrange(1, rmax + 1)
            Z = tuple(rng.choice(els) for _ in range(r))
            V = vandermonde(ring, Z)
            for k in range(1, V.rank() + 1):
                code = remainder_code(ring, Z, k)
                d = min_distance(code, "hamming")
                assert d <= r - k + 1
                if V.rank() == r:
                    assert certify(code, "MDS").holds


def test_mrd_for_independent_support(R4):
    F = R4.field
    w = F.gen
    for k in (1, 2):
        code = operator_code(R4, (F.one, w), k)
        cert = certify(code, "MRD", R4)
        assert cert.holds
        assert cert.cross_checked


def test_mds_duality(R4):
    F = R4.field
    w = F.gen
    code = remainder_code(R4, (F.one, w, w ** 2), 2)
    cert = certify(code, "MDS")
    dual = code.dual()
    assert cert.holds == certify(dual, "MDS").holds


def test_certify_reports_distance(R4):
    F = R4.field
    code = remainder_code(R4, (F.one, F.one), 1)  # repeated support point
    cert = certify(code, "MDS")
    assert cert.distance == 2 and cert.bound == 2 and cert.holds


def test_mrd_duality(R4):
    F = R4.field
    w = F.gen
    code = operator_code(R4, (F.one, w), 1)
    assert certify(code, "MRD", R4).holds == certify(code.dual(), "MRD", R4).holds


def test_message_space_guard_reports_size_and_cap():
    from orecodes.codes import LinearCode
    from orecodes.linalg import identity

    F = GF(2, 4)
    code = LinearCode(F, identity(6, F.zero, F.one))
    with pytest.raises(GuardError, match=r"message space q\^k = 16777216 exceeds the cap 1048576"):
        min_distance(code, "hamming")
