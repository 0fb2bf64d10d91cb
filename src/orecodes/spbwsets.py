"""Geometry of skew PBW extensions: multivariate roots, vanishing sets,
ideals of points, normality, centers, and the executable consequences of the
noncommutative Nullstellensatz.

A point Z is a root of f when f lies in the two-sided ideal <Z> generated by
x_1 - z_1, ..., x_n - z_n.  A/<Z> is spanned by the image of the field R, so
it is R or 0: it is R exactly when x_i -> z_i respects every defining
relation (Z is admissible), and then f lies in <Z> iff f(Z) = 0.  Membership
is therefore decided by an admissibility check and plain evaluation; the
Groebner closure spbw.two_sided_closure of <Z> is kept as the independent
reference the tests compare against.  Every oracle here takes any bijective
presentation; only the center is read from its central monomials, which span
it for quasi-commutative presentations with trivial coefficient maps."""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from .errors import DomainError, capped, verify
from .gf import Automorphism, FieldElement, fixed_field_coordinates
from .linalg import Matrix
from .spbw import (
    PBWPoly,
    PBWPresentation,
    _deglex_key,
    reduce_full,
    two_sided_closure,
)


def _coords(pres: PBWPresentation, Z) -> tuple:
    """Z with int/str coordinates parsed into the domain."""
    Z = tuple(Z)
    if len(Z) != pres.n:
        raise DomainError("point arity mismatch")
    return tuple(pres.domain.parse(str(z)) if isinstance(z, (int, str)) else z for z in Z)


def point_poly(pres: PBWPresentation, Z) -> list:
    """The generators x_i - z_i of <Z>."""
    return [pres.var(i) - pres.constant(z) for i, z in enumerate(_coords(pres, Z))]


def admissible(pres: PBWPresentation, Z) -> bool:
    """Whether x_i -> z_i respects the defining relations, i.e. <Z> != A:
    z_j z_i = c z_i z_j + sum_k a_k z_k + d for every relation, and z_i r =
    sigma_i(r) z_i + delta_i(r) for the field generators in twisting_scalars
    (the scalars satisfying it form a subfield)."""
    Z = _coords(pres, Z)
    affine = Z + (pres.domain.one,)  # d is the coefficient of 1; zero terms cost no field operation
    return all(
        Z[j] * Z[i] == sum((ak * z for ak, z in zip(a + [d], affine) if ak), c * Z[i] * Z[j])
        for (i, j), (c, a, d) in pres.relations.items()
    ) and all(
        z * r == sum([delta(r)] if delta else [], sigma(r) * z)
        for r in pres.twisting_scalars for z, sigma, delta in zip(Z, pres._sigmas, pres._deltas)
    )


def point_closure(pres: PBWPresentation, Z) -> list:
    """The reduced left Groebner basis of <Z> in closed form: the x_i - z_i by
    deglex leading monomial when Z is admissible, otherwise [1].  No oracle
    here needs it; it is the form the tests check against
    spbw.two_sided_closure(point_poly(pres, Z))."""
    if not admissible(pres, Z):
        return [pres.one]
    return sorted(point_poly(pres, Z), key=lambda g: _deglex_key(g.lm()))


def _mono_value(alpha, Z, one):
    """prod_i z_i^alpha_i, by repeated multiplication (Q(i) scalars have no pow)."""
    val = one
    for a, z in zip(alpha, Z):
        for _ in range(a):
            val = val * z
    return val


def evaluate(f: PBWPoly, Z):
    """f(Z) = sum_alpha c_alpha prod_i z_i^alpha_i."""
    dom = f.pres.domain
    Z = _coords(f.pres, Z)
    return sum((c * _mono_value(alpha, Z, dom.one) for alpha, c in f.terms.items()), dom.zero)


def root_test(f: PBWPoly, Z) -> bool:
    """f(Z) = 0 iff f lies in the two-sided ideal <Z>: always when <Z> = A,
    otherwise iff f evaluates to 0 at Z."""
    return not admissible(f.pres, Z) or not evaluate(f, Z)


def all_points(pres: PBWPresentation):
    if not pres.domain.is_finite:
        raise DomainError("full point enumeration needs a finite base field")
    return [tuple(p) for p in itertools.product(pres.domain.elements(), repeat=pres.n)]


def vanishing_set(gens, points=None):
    """V(S) over an explicit candidate list, or all of F^n when omitted."""
    gens = list(gens)
    if not gens:
        raise DomainError("vanishing set needs at least one polynomial")
    pres = gens[0].pres
    candidates = all_points(pres) if points is None else [tuple(p) for p in points]
    return _variety(pres, gens, candidates)[0]


def _variety(pres: PBWPresentation, gens, candidates):
    """(V, P): V the candidates at which every generator is a root (root_test
    for all of them at once), and P the admissible points of V, the only ones
    that impose a condition on I(V).  One admissibility check per candidate."""
    variety, points = [], []
    for Z in candidates:
        if not admissible(pres, Z):
            variety.append(Z)
        elif not any(evaluate(g, Z) for g in gens):
            variety.append(Z)
            points.append(Z)
    return variety, points


def _vanishes_at(f: PBWPoly, points) -> bool:
    """f(Z) = 0 at every point, all of them admissible: f in I(points)."""
    return not any(evaluate(f, Z) for Z in points)


def ideal_of_points_membership(f: PBWPoly, X) -> bool:
    """f in I(X) iff f vanishes at every point of X; I(emptyset) = A."""
    return all(root_test(f, Z) for Z in X)


def standard_monomials(pres: PBWPresentation, degree: int):
    monos = []
    for alpha in itertools.product(range(degree + 1), repeat=pres.n):
        if sum(alpha) <= degree:
            monos.append(alpha)
    return sorted(monos, key=_deglex_key)


def _coefficient_rows(polys):
    """The joint support of polys in increasing deglex order, and the
    coefficient row of each polynomial over it."""
    zero = polys[0].pres.domain.zero
    support = sorted({m for f in polys for m in f.terms}, key=_deglex_key)
    return support, [[f.terms.get(m, zero) for m in support] for f in polys]


def truncated_ideal_of_points(pres: PBWPresentation, X, degree: int):
    """Basis of {f : deg f <= degree, f in I(X)} by linear algebra on the
    evaluation maps of the points.  The basis is truncated: no finite
    generation procedure is attempted beyond the degree bound."""
    points = [Z for Z in (_coords(pres, Z) for Z in X) if admissible(pres, Z)]
    return _ideal_basis(pres, points, degree)


def _ideal_basis(pres: PBWPresentation, points, degree: int):
    """truncated_ideal_of_points for the admissible points of X: sum c_m m lies
    in I(X) iff sum c_m m(Z) = 0 at every admissible Z, one equation per point
    (<Z> = A imposes none)."""
    alphas = standard_monomials(pres, degree)
    monos = [pres.monomial(a) for a in alphas]
    if not points:
        return monos
    dom = pres.domain
    rows = [[_mono_value(a, Z, dom.one) for a in alphas] for Z in points]
    kernel = Matrix(rows, len(monos), dom.zero, dom.one).kernel()
    out = []
    for coeffs in kernel.rows:
        f = pres.combination(coeffs, monos)
        verify(_vanishes_at(f, points), "a truncated ideal-of-points element vanishes on X")
        out.append(f)
    return out


# -- normality -------------------------------------------------------------------

class NormalityWitness(NamedTuple):
    is_normal: bool
    left_movers: list | None = None  # u_i with x_i f = f u_i
    right_movers: list | None = None  # v_i with f x_i = v_i f
    scalar_movers: list | None = None  # (r, w, w') with r f = f w, f r = w' f


def _solve_multiplier(f: PBWPoly, target: PBWPoly, side: str):
    """The degree-<=1 u with f*u = target ("right") or u*f = target ("left"),
    or None.  A skew PBW extension of a field is a domain, so u is unique.
    Written u = sum c_{m,b} b*m over m in 1, x_1..x_n and b in a basis of F
    over a subfield K that every coefficient map fixes, f*u is K-linear in
    the c_{m,b}: with trivial maps K = F and b = 1; otherwise K = F_p, and
    each equation is split into its F_p coordinates."""
    pres = f.pres
    dom = pres.domain
    trivial = pres.has_trivial_coefficient_maps
    basis = [pres.one] + pres.gens
    if not trivial:
        scalars, table = fixed_field_coordinates(Automorphism(dom.field, 1))
        basis = [m.scale(b) for m in basis for b in scalars]
    cols = [(f * b if side == "right" else b * f) for b in basis]
    support, rows = _coefficient_rows(cols + [target])
    if not trivial:
        rows = [[FieldElement(dom.field, x) for c in row for x in table[c.idx]] for row in rows]
    sol = Matrix(rows[:-1], len(rows[-1]), dom.zero, dom.one).transpose().solve(rows[-1])
    return None if sol is None else pres.combination(sol, basis)


def normality_test(f: PBWPoly) -> NormalityWitness:
    """Decide A f = f A by exhibiting degree-one multipliers for every
    variable and scalar movers for the field generators: r f = f w and
    f r = w' f force deg w = deg w' = 0, so they are the constant solutions."""
    pres = f.pres
    if not f:
        return NormalityWitness(True, [], [], [])
    left_movers, right_movers = [], []
    for i in range(pres.n):
        xi = pres.var(i)
        u = _solve_multiplier(f, xi * f, "right")
        v = _solve_multiplier(f, f * xi, "left")
        if u is None or v is None:
            return NormalityWitness(False)
        verify(f * u == xi * f and v * f == f * xi, "normality multipliers f*u = x_i*f and v*f = f*x_i")
        left_movers.append(u)
        right_movers.append(v)
    scalar_movers = []
    for r in pres.twisting_scalars:
        w = _solve_multiplier(f, pres.constant(r) * f, "right")
        wp = _solve_multiplier(f, f * pres.constant(r), "left")
        if w is None or wp is None:
            return NormalityWitness(False)
        scalar_movers.append((r, w.lc(), wp.lc()))
    return NormalityWitness(True, left_movers, right_movers, scalar_movers)


# -- center ----------------------------------------------------------------------

# the slowest shipped presentation, witten, takes 4.3 s for its center at
# degree 32 (0.35 s at 16) in a fresh CLI process on a 2-core Xeon host
MAX_CENTER_DEGREE = 32


def center_basis(pres: PBWPresentation, degree: int):
    """All standard monomials of degree <= degree commuting with every
    variable and with the field (for nontrivial coefficient automorphisms).
    They span the center up to that degree only for quasi-commutative
    presentations with trivial coefficient maps: otherwise a central element
    need not be a combination of central monomials."""
    if degree < 0:
        raise DomainError(f"center degree {degree} is negative")
    capped(degree, MAX_CENTER_DEGREE, "center degree")
    out = []
    tests = pres.gens + [pres.constant(r) for r in pres.twisting_scalars]
    for alpha in standard_monomials(pres, degree):
        m = pres.monomial(alpha)
        if all(t * m == m * t for t in tests):
            out.append(m)
    return out


# -- Nullstellensatz consequences ----------------------------------------------------

POWER_BOUND = 4
# on qplane9 with I = <x^2-1, y> a sample costs about 0.05 ms x max(degree, 1)^2
# (0.06 / 0.84 / 4.8 / 16 ms at degree 1 / 4 / 10 / 16, in-process on a 2-core
# Xeon host), while the central monomials alone are cheap (0.2 s at degree 32
# with no samples), so the work samples x max(degree, 1)^2 is capped: 800
# samples at degree 10 sit on the cap and take 3-4 s there
MAX_NULLSTELLENSATZ_WORK = 80_000


def nullstellensatz_check(gens, degree: int = 4, sample_budget: int = 50, seed: int = 0) -> dict:
    """Exercise the two checkable inclusions of the Nullstellensatz statement
    over a finite base field and report exactly what was (not) verified."""
    if degree < 0:
        raise DomainError(f"Nullstellensatz degree {degree} is negative")
    if sample_budget < 0:
        raise DomainError(f"Nullstellensatz sample budget {sample_budget} is negative")
    capped(sample_budget * max(degree, 1) ** 2, MAX_NULLSTELLENSATZ_WORK,
           f"Nullstellensatz work {sample_budget} samples x max(degree {degree}, 1)^2 =")
    gens = [g for g in gens if g]
    if not gens:
        raise DomainError("need nonzero generators")
    pres = gens[0].pres
    if not pres.domain.is_finite:
        raise DomainError("the executable check needs a finite base field")
    cmonos = center_basis(pres, degree)  # refuses a degree past its cap before the closure is built
    G2 = two_sided_closure(gens)
    variety, points = _variety(pres, gens, all_points(pres))
    report = {
        "variety_size": len(variety),
        "exercised": [],
        "not_exercised": [
            "sqrt(I) itself (no noncommutative radical algorithm is computed)",
            "equality of the inclusions (needs an algebraically closed field)",
        ],
    }

    # (a) radical side: central f with f^m in I must land in I(V(I)).  The
    # candidates combine central monomials with the scalars every coefficient
    # map fixes (sigma_i(b) = b, delta_i(b) = 0), so each one is central: with
    # trivial maps that is all of F.  I is two-sided, so f^m - r*f =
    # (f^(m-1) - r)*f lies in I for r = NF(f^(m-1)), and NF(f^m) = NF(r*f).
    rng = random.Random(seed)
    candidates = list(cmonos)
    els = [
        b for b in pres.domain.elements()
        if all(s(b) == b for s in pres._sigmas) and all(d is None or not d(b) for d in pres._deltas)
    ]
    for _ in range(sample_budget):
        f = pres.combination([rng.choice(els) for _ in cmonos], cmonos)
        if f:
            candidates.append(f)
    checked = confirmed = 0
    for f in candidates:
        r = reduce_full(f, G2)
        for _ in range(POWER_BOUND - 1):
            if not r:
                break
            r = reduce_full(r * f, G2)
        if not r:
            checked += 1
            confirmed += _vanishes_at(f, points)
    report["radical_side"] = {
        "candidates": len(candidates),
        "nilpotent_mod_I": checked,
        "landed_in_I_of_V": confirmed,
        "holds": checked == confirmed,
    }
    report["exercised"].append("central f with f^m in I implies f in I(V(I))")

    # (b) center side: generators of <I_Z(A)(V_Z(A)(J))> land in I(V(I))
    center_report = _center_side(pres, G2, points, degree, cmonos)
    report["center_side"] = center_report
    if center_report.get("holds") is not None:
        report["exercised"].append(
            "generators of <I_Z(A)(V_Z(A)(I n Z(A)))> lie in I(V(I))"
        )
    report["holds"] = report["radical_side"]["holds"] and center_report.get("holds", True)
    return report


def _center_side(pres, G2, points, degree, cmonos):
    if not (pres.is_quasi_commutative and pres.has_trivial_coefficient_maps):
        return {"holds": None, "note": (
            "the center is spanned by central monomials only for quasi-commutative "
            "presentations with trivial coefficient maps")}
    # center generators w_i = x_i^{L_i}
    alphas = [next(iter(m.terms)) for m in cmonos]
    central = set(alphas)
    L = []
    for i in range(pres.n):
        Li = next((e for e in range(1, degree + 1)
                   if tuple(e if v == i else 0 for v in range(pres.n)) in central), None)
        if Li is None:
            return {"holds": None, "note": f"no central power of {pres.names[i]} up to degree {degree}"}
        L.append(Li)
    if any(a % l for alpha in alphas for a, l in zip(alpha, L)):
        return {"holds": None, "note": "center is not the expected polynomial ring at this degree"}

    # Z(A) = F[w] is the commutative presentation on the same names, and J =
    # I n Z(A) up to the degree bound comes from linear algebra over the field
    dom = pres.domain
    W = PBWPresentation(pres.names, dom)
    support, rows = _coefficient_rows([reduce_full(m, G2) for m in cmonos])
    kernel = Matrix(rows, len(support), dom.zero, dom.one).transpose().kernel()
    images = [W.monomial(tuple(a // l for a, l in zip(alpha, L))) for alpha in alphas]
    J = [W.combination(coeffs, images) for coeffs in kernel.rows]
    wpoints, wadmissible = _variety(W, J, all_points(W))  # V_{Z(A)}(J); all of F^n for J = 0
    # I_{Z(A)}(V_{Z(A)}(J)) up to the w-degree bound, mapped back by w^a -> x^{aL}
    generators = [
        pres.poly({tuple(a * l for a, l in zip(alpha, L)): c for alpha, c in g.terms.items()})
        for g in _ideal_basis(W, wadmissible, max(degree // max(L), 1))
    ]
    holds = all(_vanishes_at(g, points) for g in generators)
    return {
        "holds": holds,
        "J_basis_size": len(J),
        "center_variety_size": len(wpoints),
        "generators_checked": len(generators),
        "center_generators": [f"{n}^{l}" for n, l in zip(pres.names, L)],
    }
