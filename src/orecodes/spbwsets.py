"""Geometry of skew PBW extensions: multivariate roots, vanishing sets,
ideals of points, normality, centers, and the executable consequences of the
noncommutative Nullstellensatz.

A point Z is a root of f when f lies in the two-sided ideal <Z> generated by
x_1 - z_1, ..., x_n - z_n; membership is decided through the two-sided
closure, so every oracle here is restricted to quasi-commutative
presentations (the closure refuses anything else)."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import DomainError, GuardError
from .linalg import Matrix
from .spbw import (
    PBWPoly,
    PBWPresentation,
    _deglex_key,
    in_left_ideal,
    reduce_full,
    two_sided_closure,
)


def point_poly(pres: PBWPresentation, Z) -> list:
    """The generators x_i - z_i of <Z>."""
    Z = tuple(Z)
    if len(Z) != pres.n:
        raise DomainError("point arity mismatch")
    gens = []
    for i, z in enumerate(Z):
        if isinstance(z, (int, str)):
            z = pres.domain.parse(str(z))
        gens.append(pres.var(i) - pres.constant(z))
    return gens


def point_closure(pres: PBWPresentation, Z) -> list:
    """Two-sided closure of <Z>, cached on the presentation."""
    Z = tuple(Z)
    cache = pres._closure_cache
    if Z not in cache:
        cache[Z] = two_sided_closure(point_poly(pres, Z))
    return cache[Z]


def root_test(f: PBWPoly, Z) -> bool:
    """f(Z) = 0 iff f lies in the two-sided ideal <Z>."""
    return not reduce_full(f, point_closure(f.pres, Z))


def all_points(pres: PBWPresentation):
    if not pres.domain.is_finite:
        raise DomainError("full point enumeration needs a finite base field")
    return [tuple(p) for p in itertools.product(pres.domain.elements(), repeat=pres.n)]


def vanishing_set(gens, points=None):
    """V(S) over an explicit candidate list, or all of F^n when omitted."""
    gens = [g for g in gens]
    if not gens:
        raise DomainError("vanishing set needs at least one polynomial")
    pres = gens[0].pres
    candidates = all_points(pres) if points is None else [tuple(p) for p in points]
    out = []
    for Z in candidates:
        if all((not g) or root_test(g, Z) for g in gens):
            out.append(Z)
    return out


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
    reduction maps of the point closures.  The basis is truncated: no finite
    generation procedure is attempted beyond the degree bound."""
    X = [tuple(Z) for Z in X]
    monos = [pres.monomial(a) for a in standard_monomials(pres, degree)]
    dom = pres.domain
    if not X:
        return monos
    # sum c_m m lies in I(X) iff sum c_m reduce(m) = 0 modulo every point
    # closure: one equation per closure and monomial of the reductions' support
    rows = []
    for Z in X:
        G = point_closure(pres, Z)
        _, coeffs = _coefficient_rows([reduce_full(m, G) for m in monos])
        rows.extend(zip(*coeffs))
    kernel = Matrix(rows, len(monos), dom.zero, dom.one).kernel()
    out = []
    for coeffs in kernel.rows:
        f = pres.combination(coeffs, monos)
        assert ideal_of_points_membership(f, X)
        out.append(f)
    return out


# -- normality -------------------------------------------------------------------

@dataclass
class NormalityWitness:
    is_normal: bool
    left_movers: list | None = None  # u_i with x_i f = f u_i
    right_movers: list | None = None  # v_i with f x_i = v_i f
    scalar_movers: list | None = None  # (r, w, w') with r f = f w, f r = w' f


def _solve_multiplier(f: PBWPoly, target: PBWPoly, side: str):
    """Degree-<=1 multiplier u with f*u = target ("right") or u*f = target
    ("left"), by linear algebra; needs trivial coefficient maps so that the
    unknown coefficients enter linearly."""
    pres = f.pres
    dom = pres.domain
    basis = [pres.one] + pres.gens
    cols = [(f * b if side == "right" else b * f) for b in basis]
    support, rows = _coefficient_rows(cols + [target])
    sol = Matrix(rows[:-1], len(support), dom.zero, dom.one).transpose().solve(rows[-1])
    return None if sol is None else pres.combination(sol, basis)


MAX_MULTIPLIER_SEARCH = 1 << 16


def _brute_multiplier(f: PBWPoly, target: PBWPoly, side: str):
    pres = f.pres
    dom = pres.domain
    if not dom.is_finite:
        raise GuardError("brute multiplier search needs a finite field")
    els = dom.elements()
    size = len(els) ** (pres.n + 1)
    if size > MAX_MULTIPLIER_SEARCH:
        raise GuardError(
            f"multiplier search space |F|^(n+1) = {len(els)}^{pres.n + 1} = {size} "
            f"exceeds the cap {MAX_MULTIPLIER_SEARCH}"
        )
    basis = [pres.one] + pres.gens
    for combo in itertools.product(els, repeat=pres.n + 1):
        u = pres.combination(combo, basis)
        if (f * u if side == "right" else u * f) == target:
            return u
    return None


def normality_test(f: PBWPoly) -> NormalityWitness:
    """Decide A f = f A by exhibiting degree-one multipliers for every
    variable and scalar movers for the field generators."""
    pres = f.pres
    if not pres.is_quasi_commutative:
        raise DomainError("normality test implemented for quasi-commutative presentations")
    if not f:
        return NormalityWitness(True, [], [], [])
    trivial = pres.has_trivial_coefficient_maps
    left_movers, right_movers = [], []
    for i in range(pres.n):
        xi = pres.var(i)
        if trivial:
            u = _solve_multiplier(f, xi * f, "right")
            v = _solve_multiplier(f, f * xi, "left")
        else:
            u = _brute_multiplier(f, xi * f, "right")
            v = _brute_multiplier(f, f * xi, "left")
        if u is None or v is None:
            return NormalityWitness(False)
        assert f * u == xi * f and v * f == f * xi
        left_movers.append(u)
        right_movers.append(v)
    scalar_movers = []
    for r in pres.twisting_scalars:
        w = _scalar_mover(f, r, left=True)
        wp = _scalar_mover(f, r, left=False)
        if w is None or wp is None:
            return NormalityWitness(False)
        scalar_movers.append((r, w, wp))
    return NormalityWitness(True, left_movers, right_movers, scalar_movers)


def _scalar_mover(f: PBWPoly, r, left: bool):
    """w with r f = f w (left=True) or f r = w f (left=False), if consistent.

    Termwise, x^alpha * s = sigma^alpha(s) x^alpha, so the left case needs
    sigma^alpha(w) = r for every exponent of f, and the right case needs
    w = sigma^alpha(r)."""
    pres = f.pres
    w = None
    for alpha in f.terms:
        if left:
            cand = _untwist(pres, alpha, r)
        else:
            cand = pres._mono_times(alpha, {(0,) * pres.n: r})[alpha]
        if w is None:
            w = cand
        elif w != cand:
            return None
    return w


def _untwist(pres: PBWPresentation, alpha, value):
    """sigma^{-alpha}(value) for finite-field coefficient automorphisms."""
    total = sum(s.l * e for s, e in zip(pres._sigmas, alpha))
    field = pres.domain.field
    k = field.k
    from .gf import FieldElement

    return FieldElement(field, field.frob_i(value.idx, (-total) % k))


# -- center ----------------------------------------------------------------------

def center_basis(pres: PBWPresentation, degree: int):
    """All standard monomials of degree <= degree commuting with every
    variable and with the field (for nontrivial coefficient automorphisms)."""
    if not pres.is_quasi_commutative:
        raise DomainError("center computation implemented for quasi-commutative presentations")
    out = []
    tests = pres.gens + [pres.constant(r) for r in pres.twisting_scalars]
    for alpha in standard_monomials(pres, degree):
        m = pres.monomial(alpha)
        if all(t * m == m * t for t in tests):
            out.append(m)
    return out


# -- Nullstellensatz consequences ----------------------------------------------------

def nullstellensatz_check(
    gens,
    degree: int = 4,
    sample_budget: int = 50,
    power_bound: int = 4,
    seed: int = 0,
) -> dict:
    """Exercise the two checkable inclusions of the Nullstellensatz statement
    over a finite base field and report exactly what was (not) verified."""
    gens = [g for g in gens if g]
    if not gens:
        raise DomainError("need nonzero generators")
    pres = gens[0].pres
    if not pres.domain.is_finite:
        raise DomainError("the executable check needs a finite base field")
    G2 = two_sided_closure(gens)
    variety = vanishing_set(gens)
    report = {
        "variety_size": len(variety),
        "exercised": [],
        "not_exercised": [
            "sqrt(I) itself (no noncommutative radical algorithm is computed)",
            "equality of the inclusions (needs an algebraically closed field)",
        ],
    }

    # (a) radical side: central f with f^m in I must land in I(V(I))
    rng = random.Random(seed)
    cmonos = center_basis(pres, degree)
    candidates = list(cmonos)
    els = pres.domain.elements()
    for _ in range(sample_budget):
        f = pres.combination([rng.choice(els) for _ in cmonos], cmonos)
        if f:
            candidates.append(f)
    checked = confirmed = 0
    for f in candidates:
        power = f
        for m in range(1, power_bound + 1):
            if in_left_ideal(power, G2):
                checked += 1
                if ideal_of_points_membership(f, variety):
                    confirmed += 1
                break
            power = power * f
    report["radical_side"] = {
        "candidates": len(candidates),
        "nilpotent_mod_I": checked,
        "landed_in_I_of_V": confirmed,
        "holds": checked == confirmed,
    }
    report["exercised"].append("central f with f^m in I implies f in I(V(I))")

    # (b) center side: generators of <I_Z(A)(V_Z(A)(J))> land in I(V(I))
    center_report = _center_side(pres, G2, variety, degree, cmonos)
    report["center_side"] = center_report
    if center_report.get("holds") is not None:
        report["exercised"].append(
            "generators of <I_Z(A)(V_Z(A)(I n Z(A)))> lie in I(V(I))"
        )
    report["holds"] = report["radical_side"]["holds"] and center_report.get("holds", True)
    return report


def _center_side(pres, G2, variety, degree, cmonos):
    dom = pres.domain
    # center generators x_i^{L_i}
    L = []
    for i in range(pres.n):
        Li = next(
            (e for e in range(1, degree + 1) if pres.monomial(tuple(e if v == i else 0 for v in range(pres.n))) in cmonos),
            None,
        )
        if Li is None:
            return {"holds": None, "note": f"no central power of {pres.names[i]} up to degree {degree}"}
        L.append(Li)
    for m in cmonos:
        alpha = next(iter(m.terms))
        if any(a % l for a, l in zip(alpha, L)):
            return {"holds": None, "note": "center is not the expected polynomial ring at this degree"}

    # J = I n Z(A) up to the degree bound, by linear algebra over the field
    support, rows = _coefficient_rows([reduce_full(m, G2) for m in cmonos])
    kernel = Matrix(rows, len(support), dom.zero, dom.one).transpose().kernel()
    J_basis = [pres.combination(coeffs, cmonos) for coeffs in kernel.rows]

    # V_{Z(A)}(J) in the w-affine space, w_i = x_i^{L_i}
    def w_value(f, w):
        return sum(
            (c * _eval_wmono([a // l for a, l in zip(alpha, L)], w, dom) for alpha, c in f.terms.items()),
            dom.zero,
        )

    wpoints = [
        w for w in itertools.product(dom.elements(), repeat=pres.n)
        if not any(w_value(f, w) for f in J_basis)
    ]

    # I_{Z(A)}(V_{Z(A)}(J)) up to w-degree bound, then map w_i -> x_i^{L_i}
    wdeg = max(degree // max(L), 1)
    wmonos = [a for a in itertools.product(range(wdeg + 1), repeat=pres.n) if sum(a) <= wdeg]
    if wpoints:
        ev = Matrix(
            [[_eval_wmono(a, p, dom) for a in wmonos] for p in wpoints],
            len(wmonos),
            dom.zero,
            dom.one,
        )
        ker = ev.kernel().rows
    else:
        ker = [[dom.one if i == j else dom.zero for i in range(len(wmonos))] for j in range(len(wmonos))]
    xmonos = [pres.monomial(tuple(ai * li for ai, li in zip(a, L))) for a in wmonos]
    generators = [pres.combination(coeffs, xmonos) for coeffs in ker]
    holds = all(ideal_of_points_membership(g, variety) for g in generators)
    return {
        "holds": holds,
        "J_basis_size": len(J_basis),
        "center_variety_size": len(wpoints),
        "generators_checked": len(generators),
        "center_generators": [f"{n}^{l}" for n, l in zip(pres.names, L)],
    }


def _eval_wmono(alpha, point, dom):
    val = dom.one
    for a, p in zip(alpha, point):
        val = val * p ** a
    return val
