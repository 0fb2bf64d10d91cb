"""Pinned outputs of the skew PBW layer where no shipped presentation or CLI
call reaches: the truncated ideal of points, GF(4) with sigma = [1, 0]
(a twisted coefficient map on one variable only), and GF(9) with
sigma = [1, 1] and delta = [2, null] (an inner derivation)."""

import os

import pytest

from orecodes.gf import GF
from orecodes.scalars import GFDomain
from orecodes.spbw import PBWPresentation, divide, groebner_left, load_presentation, pbw_str, two_sided_closure
from orecodes.spbwsets import center_basis, normality_test, truncated_ideal_of_points

PRESENTATIONS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "presentations")


def strs(polys):
    return [pbw_str(f) for f in polys]


@pytest.mark.parametrize(
    "name, X, degree, want",
    [
        ("qplane9", [("1", "0")], 2, ["y", "x+g^4", "y^2", "x*y", "x^2+g^4"]),
        (
            "qplane9",
            [("1", "0"), ("0", "w")],
            3,
            ["x+g^7*y+g^4", "y^2+g^5*y", "x*y", "x^2+g^7*y+g^4", "y^3+g^6*y", "x*y^2", "x^2*y", "x^3+g^7*y+g^4"],
        ),
        ("qplane4", [("0", "0"), ("w", "0")], 2, ["y", "y^2", "x*y", "x^2+g*x"]),
        ("qplane4", [], 1, ["1", "y", "x"]),
    ],
)
def test_truncated_ideal_of_points_pinned(name, X, degree, want):
    A = load_presentation(os.path.join(PRESENTATIONS, f"{name}.json"))
    X = [tuple(A.domain.parse(c) for c in Z) for Z in X]
    assert strs(truncated_ideal_of_points(A, X, degree)) == want


def test_gf4_sigma_on_one_variable_pinned():
    A = PBWPresentation(["x", "y"], GFDomain(GF(2, 2)), {}, sigma=[1, 0])
    assert strs(two_sided_closure([A.parse("x^2+y")])) == ["x^2+y"]
    assert strs(two_sided_closure([A.parse("x*y+w*y")])) == ["y"]
    for f, movers, scalar in [("x^2+y", ["x", "y"], ("g", "g", "g")), ("x*y", ["x", "y"], ("g", "g^2", "g^2"))]:
        res = normality_test(A.parse(f))  # the brute multiplier search: sigma is not the identity
        assert res.is_normal
        assert strs(res.left_movers) == movers and strs(res.right_movers) == movers
        assert [tuple(str(v) for v in m) for m in res.scalar_movers] == [scalar]
    assert not normality_test(A.parse("x+y")).is_normal
    assert strs(center_basis(A, 3)) == ["1", "y", "y^2", "x^2", "y^3", "x^2*y"]


def test_gf9_inner_derivation_pinned():
    A = PBWPresentation(["x", "y"], GFDomain(GF(3, 2)), {}, sigma=[1, 1], delta=[2, None])
    assert pbw_str(A.parse("x*w+y") * A.parse("w*y*x+1")) == "g^6*x^2*y+g^3*x*y^2+g^6*x*y+g^3*x+y+g^2"
    assert pbw_str(A.parse("x^2") * A.parse("w")) == "g*x^2+g^2*x+g^6"
    res = divide(A.parse("x^2*y+w*x*y+y^2"), [A.parse("x+w"), A.parse("y-1")])
    assert strs(res.quotients) == ["x*y+g^5*y", "g^4"]
    assert pbw_str(res.remainder) == "g*x*y+y^2+g^2*y+g^4"
    res = groebner_left([A.parse("x*y+w"), A.parse("y^2+x")])
    assert res.complete and strs(res.basis) == ["y+g", "x+g^4"]
    res = groebner_left([A.parse("x^2+w*y"), A.parse("x*y")])
    assert res.complete and strs(res.basis) == ["y^2", "x*y", "x^2+g*y"]
