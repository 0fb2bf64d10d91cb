"""Points as evaluation homomorphisms, against the Groebner closure.

spbwsets decides f in <Z> by an admissibility check and evaluation; the
reference is spbw.two_sided_closure of x_i - z_i and reduce_full modulo it.
Every point of the finite presentations, 343 Gaussian points of qspace3 and
125 rational points of witten and weyl1z are compared term for term, and a
derandomized Hypothesis test compares root_test and vanishing_set with
reduction for random f.
The two twisted presentations have a nontrivial sigma, whose condition
z_i r = sigma_i(r) z_i forces z_i = 0; the two derivation presentations add
delta_i(r) to it, and gf4-delta also a linear part and a constant to its
relation."""

import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

from orecodes.spbw import load_presentation, reduce_full, two_sided_closure
from orecodes.spbwsets import admissible, all_points, point_closure, point_poly, root_test, vanishing_set

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SHIPPED = ["qplane4", "qplane9", "qspace3", "witten", "weyl1z"]
TWISTED = {
    "gf4-twisted": {"schema_version": 1, "vars": ["x", "y"], "field": "GF(4)", "sigma": [1, None],
                    "relations": [{"i": 1, "j": 2, "c": "w"}]},
    "gf9-twisted": {"schema_version": 1, "vars": ["x", "y"], "field": "GF(9)", "sigma": [1, 1],
                    "relations": [{"i": 1, "j": 2, "c": "g"}]},
    "gf9-delta": {"schema_version": 1, "vars": ["x", "y"], "field": "GF(9)", "sigma": [1, 1],
                  "delta": [2, None]},
    "gf4-delta": {"schema_version": 1, "vars": ["x", "y"], "field": "GF(4)", "sigma": [1, None],
                  "delta": ["w", None], "relations": [{"i": 1, "j": 2, "c": "1", "a": ["1", "0"], "d": "w"}]},
}
# the coordinates of the points tried over each infinite field
GRID = {"Q(i)": ["0", "1", "-1", "i", "-i", "2", "1+i"], "Q": ["0", "1", "-1", "2", "1/2"]}
# admissible points of each presentation; the sigma condition leaves z_1 = 0
# in gf4-twisted and the origin alone in gf9-twisted, witten's relations
# leave the line (0, 0, c), weyl1z's y x = x y - 1 leaves none, and the
# delta condition leaves (1, 0) in gf9-delta
ADMISSIBLE = {"qplane4": 7, "qplane9": 17, "qspace3": 19, "witten": 5, "weyl1z": 0,
              "gf4-twisted": 4, "gf9-twisted": 1, "gf9-delta": 1, "gf4-delta": 4}


def _path(name):
    return os.path.join(ROOT, "presentations", f"{name}.json")


@pytest.fixture(scope="module", params=SHIPPED + list(TWISTED))
def case(request):
    name = request.param
    A = load_presentation(TWISTED.get(name) or _path(name))
    if A.domain.is_finite:
        points = all_points(A)
    else:
        points = list(itertools.product([A.domain.parse(c) for c in GRID[A.domain.name]], repeat=A.n))
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
    return [A.domain.parse(c) for c in GRID[A.domain.name][1:]]


def polys(A):
    """Up to four terms of total degree at most 3."""
    alpha = st.tuples(*[st.integers(0, 3)] * A.n).filter(lambda a: sum(a) <= 3)
    return st.dictionaries(alpha, st.sampled_from(scalars(A)), max_size=4).map(A.poly)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_root_test_is_reduction_modulo_the_closure(case, data):
    _, A, reference, good = case
    # an admissible point half of the time, since those are the few where f(Z)
    # decides (weyl1z has none)
    Z = data.draw(st.one_of(st.sampled_from(good or list(reference)), st.sampled_from(list(reference))))
    fs = data.draw(st.lists(polys(A), min_size=1, max_size=3))
    for f in fs:
        assert root_test(f, Z) == (not reduce_full(f, reference[Z])), (Z, f)
    # vanishing_set decides all generators at once
    assert vanishing_set(fs, [Z]) == ([Z] if all(root_test(f, Z) for f in fs) else []), (Z, fs)


def test_int_and_str_coordinates_are_parsed():
    A = load_presentation(_path("qplane9"))
    assert admissible(A, (0, "g")) and not admissible(A, ("1", "g"))
    assert root_test(A.parse("y-g"), (0, "g")) and not root_test(A.parse("y"), (0, "g"))
