"""Points as evaluation homomorphisms, against the Groebner closure.

spbwsets decides f in <Z> by an admissibility check and evaluation; the
reference is spbw.two_sided_closure of x_i - z_i and reduce_full modulo it.
Every point of the finite presentations and 343 Gaussian points of qspace3
are compared term for term, and a derandomized Hypothesis test compares
root_test with reduction for random f.  The two twisted presentations have a
nontrivial sigma, whose condition z_i r = sigma_i(r) z_i forces z_i = 0."""

import itertools
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from orecodes.cli import main
from orecodes.errors import DomainError
from orecodes.spbw import load_presentation, reduce_full, two_sided_closure
from orecodes.spbwsets import admissible, all_points, point_closure, point_poly, root_test

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SHIPPED = ["qplane4", "qplane9", "qspace3"]
TWISTED = {
    "gf4-twisted": {"schema_version": 1, "vars": ["x", "y"], "field": "GF(4)", "sigma": [1, None],
                    "relations": [{"i": 1, "j": 2, "c": "w"}]},
    "gf9-twisted": {"schema_version": 1, "vars": ["x", "y"], "field": "GF(9)", "sigma": [1, 1],
                    "relations": [{"i": 1, "j": 2, "c": "g"}]},
}
GAUSSIAN = ["0", "1", "-1", "i", "-i", "2", "1+i"]
# admissible points of each presentation; the sigma condition leaves z_1 = 0
# in gf4-twisted and the origin alone in gf9-twisted
ADMISSIBLE = {"qplane4": 7, "qplane9": 17, "qspace3": 19, "gf4-twisted": 4, "gf9-twisted": 1}


def _path(name):
    return os.path.join(ROOT, "presentations", f"{name}.json")


@pytest.fixture(scope="module", params=SHIPPED + list(TWISTED))
def case(request):
    name = request.param
    A = load_presentation(TWISTED.get(name) or _path(name))
    if A.domain.is_finite:
        points = all_points(A)
    else:
        points = list(itertools.product([A.domain.parse(c) for c in GAUSSIAN], repeat=A.n))
    # the reference closure of every point, and the admissible points
    reference = {Z: two_sided_closure(point_poly(A, Z)) for Z in points}
    return name, A, reference, [Z for Z in points if admissible(A, Z)]


def test_point_closure_is_the_two_sided_closure(case):
    name, A, reference, good = case
    for Z, G in reference.items():
        assert [g.terms for g in point_closure(A, Z)] == [g.terms for g in G], Z
    assert len(good) == ADMISSIBLE[name]


def scalars(A):
    if A.domain.is_finite:
        return [z for z in A.domain.elements() if z]
    return [A.domain.parse(c) for c in GAUSSIAN[1:]]


def polys(A):
    """Up to four terms of total degree at most 3."""
    alpha = st.tuples(*[st.integers(0, 3)] * A.n).filter(lambda a: sum(a) <= 3)
    return st.dictionaries(alpha, st.sampled_from(scalars(A)), max_size=4).map(A.poly)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_root_test_is_reduction_modulo_the_closure(case, data):
    _, A, reference, good = case
    # an admissible point half of the time, since those are the few where f(Z) decides
    Z = data.draw(st.one_of(st.sampled_from(good), st.sampled_from(list(reference))))
    for f in data.draw(st.lists(polys(A), min_size=1, max_size=3)):
        assert root_test(f, Z) == (not reduce_full(f, reference[Z])), (Z, f)


def test_int_and_str_coordinates_are_parsed():
    A = load_presentation(_path("qplane9"))
    assert admissible(A, (0, "g")) and not admissible(A, ("1", "g"))
    assert root_test(A.parse("y-g"), (0, "g")) and not root_test(A.parse("y"), (0, "g"))


@pytest.mark.parametrize("name", ["witten", "weyl1z"])
def test_points_refused_outside_quasi_commutative(name, capsys):
    A = load_presentation(_path(name))
    with pytest.raises(DomainError, match="quasi-commutative presentations only"):
        admissible(A, (0, 0, 0))
    argv = ["spbwsets", "roots", "--presentation", _path(name), "--f", "x", "--point", "0,0,0", "--format", "json"]
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().out) == {"error": {"code": 3, "message": (
        "two-sided closure implemented for quasi-commutative presentations only")}}
