"""Skew PBW extensions sigma(R)<x_1..x_n>: presentations, normal-form
arithmetic, deglex leading data, the division algorithm, and left Groebner
bases with a two-sided closure for quasi-commutative presentations.

Relations are stored for i < j as x_j x_i = c x_i x_j + sum_k a_k x_k + d,
and coefficients commute past variables through x_i r = sigma_i(r) x_i +
delta_i(r).  Standard monomials are exponent tuples; the monomial order is
deglex with x_1 > x_2 > ... > x_n.

Two reduction styles coexist (deliberately):

* ``divide`` follows the leading-term cascade only: at every step the
  non-leading terms of the working polynomial move to the remainder and the
  reduction continues on the debris of the cancelled leading term.  This is
  the behaviour of the classical Maple/SPBWE division and reproduces its
  published outputs, where the remainder may still contain monomials that a
  divisor's leading monomial divides.
* ``reduce_full`` is the exhaustive normal form (every reducible leading term
  is rewritten, irreducible leading terms are peeled one at a time); Groebner
  completion and all ideal-membership oracles use this one.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

from .errors import DomainError, GuardError
from .gf import split_factors, split_terms
from .scalars import domain_by_name

SCHEMA_VERSION = 1


def _deglex_key(alpha):
    return (sum(alpha), alpha)


class PBWPresentation:
    def __init__(self, names, domain, relations=None, sigma=None, delta=None, order="deglex"):
        if order != "deglex":
            raise DomainError("only the deglex monomial order ships")
        self.order = order
        self.names = list(names)
        self.n = len(self.names)
        if self.n == 0:
            raise DomainError("a presentation needs at least one variable")
        self.domain = domain
        self.sigma_specs = list(sigma) if sigma else [None] * self.n
        self.delta_specs = list(delta) if delta else [None] * self.n
        for key, specs in (("sigma", self.sigma_specs), ("delta", self.delta_specs)):
            if len(specs) != self.n:
                raise DomainError(f"{key} lists {len(specs)} entries for {self.n} variables")
        self._sigmas = [domain.sigma(s) for s in self.sigma_specs]
        self._deltas = [
            domain.delta(d, sg) for d, sg in zip(self.delta_specs, self._sigmas)
        ]
        self.relations = {}
        for (i, j), (c, a, d) in (relations or {}).items():
            if not 0 <= i < j < self.n:
                raise DomainError("relation indices must satisfy 0 <= i < j < n")
            if not c:
                raise DomainError("relation coefficient c must be invertible (nonzero)")
            self.relations[(i, j)] = (c, list(a), d)
        self._mono_cache = {}
        self._closure_cache = {}  # point tuple -> two-sided closure (spbwsets.point_closure)
        self.zero = PBWPoly(self, {})
        self.one = PBWPoly(self, {(0,) * self.n: domain.one})

    # -- flags -------------------------------------------------------------

    @property
    def is_quasi_commutative(self) -> bool:
        if any(d is not None for d in self._deltas):
            return False
        for c, a, d in self.relations.values():
            if any(a) or d:
                return False
        return True

    @property
    def has_trivial_coefficient_maps(self) -> bool:
        return all(d is None for d in self._deltas) and all(
            getattr(s, "is_identity", True) for s in self._sigmas
        )

    def _sigma_apply(self, i, c):
        return self._sigmas[i](c)

    def _delta_apply(self, i, c):
        d = self._deltas[i]
        return None if d is None else d(c)

    def _rel(self, i, j):
        """(c, a, d) with x_j x_i = c x_i x_j + sum a_k x_k + d, for i < j."""
        if (i, j) in self.relations:
            return self.relations[(i, j)]
        return (self.domain.one, [self.domain.zero] * self.n, self.domain.zero)

    # -- polynomial factories ------------------------------------------------

    def poly(self, terms) -> "PBWPoly":
        clean = {}
        for alpha, c in dict(terms).items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != self.n or any(e < 0 for e in alpha):
                raise DomainError(f"bad exponent tuple {alpha}")
            if c:
                clean[alpha] = clean.get(alpha, self.domain.zero) + c
        return PBWPoly(self, {a: c for a, c in clean.items() if c})

    def var(self, i) -> "PBWPoly":
        alpha = tuple(1 if v == i else 0 for v in range(self.n))
        return PBWPoly(self, {alpha: self.domain.one})

    @property
    def gens(self):
        return [self.var(i) for i in range(self.n)]

    def constant(self, c) -> "PBWPoly":
        if isinstance(c, (int, str)):
            c = self.domain.parse(str(c))
        return self.poly({(0,) * self.n: c})

    def monomial(self, alpha, c=None) -> "PBWPoly":
        return self.poly({tuple(alpha): self.domain.one if c is None else c})

    def parse(self, text: str) -> "PBWPoly":
        return parse_pbw(self, text)

    # -- core rewriting -------------------------------------------------------

    def _var_times_terms(self, i: int, terms: dict) -> dict:
        """Normal form of x_i * (sum_beta c_beta x^beta)."""
        out = {}
        for beta, c in terms.items():
            sc = self._sigma_apply(i, c)
            if sc:
                for gamma, u in self._mono_left(i, beta).items():
                    _acc(out, gamma, sc * u)
            dc = self._delta_apply(i, c)
            if dc:
                _acc(out, beta, dc)
        return {a: v for a, v in out.items() if v}

    def _mono_left(self, i: int, beta: tuple) -> dict:
        """Normal form of x_i * x^beta as a term dict."""
        key = (i, beta)
        cached = self._mono_cache.get(key)
        if cached is not None:
            return cached
        first = next((v for v, e in enumerate(beta) if e), None)
        if first is None or i <= first:
            gamma = tuple(e + 1 if v == i else e for v, e in enumerate(beta))
            result = {gamma: self.domain.one}
        else:
            j = first  # j < i: swap x_i past x_j using the (j, i) relation
            beta2 = tuple(e - 1 if v == j else e for v, e in enumerate(beta))
            c, a, d = self._rel(j, i)
            inner = self._mono_left(i, beta2)
            result = {}
            swapped = self._var_times_terms(j, inner)
            for gamma, u in swapped.items():
                _acc(result, gamma, c * u)
            for k, ak in enumerate(a):
                if ak:
                    for gamma, u in self._mono_left(k, beta2).items():
                        _acc(result, gamma, ak * u)
            if d:
                _acc(result, beta2, d)
            result = {g: v for g, v in result.items() if v}
        self._mono_cache[key] = result
        return result

    def mul_terms(self, fterms: dict, gterms: dict) -> dict:
        out = {}
        for alpha, a in fterms.items():
            cur = gterms
            for v in range(self.n - 1, -1, -1):
                for _ in range(alpha[v]):
                    cur = self._var_times_terms(v, cur)
            for gamma, u in cur.items():
                _acc(out, gamma, a * u)
        return {g: v for g, v in out.items() if v}

    def __repr__(self):
        return f"sigma({self.domain!r})<{','.join(self.names)}>"


def _acc(d, key, val):
    cur = d.get(key)
    d[key] = val if cur is None else cur + val


class PBWPoly:
    __slots__ = ("pres", "terms")

    def __init__(self, pres: PBWPresentation, terms: dict):
        self.pres = pres
        self.terms = terms

    def _check(self, other):
        if not isinstance(other, PBWPoly) or other.pres is not self.pres:
            raise DomainError("polynomials from different presentations")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, PBWPoly)
            and self.pres is other.pres
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.pres), tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for a, c in other.terms.items():
            _acc(out, a, c)
        return PBWPoly(self.pres, {a: c for a, c in out.items() if c})

    def __neg__(self):
        z = self.pres.domain.zero
        return PBWPoly(self.pres, {a: z - c for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PBWPoly):
            self._check(other)
            return PBWPoly(self.pres, self.pres.mul_terms(self.terms, other.terms))
        return NotImplemented

    def __rmul__(self, other):
        # left scalar multiple (scalars sit to the left of standard monomials)
        if isinstance(other, int):
            other = self.pres.domain.parse(str(other))
        out = {a: other * c for a, c in self.terms.items()}
        return PBWPoly(self.pres, {a: c for a, c in out.items() if c})

    def scale(self, c):
        return self.__rmul__(c)

    def __pow__(self, m: int):
        out = self.pres.one
        for _ in range(m):
            out = out * self
        return out

    @property
    def degree(self) -> int:
        return max((sum(a) for a in self.terms), default=-1)

    def lm(self) -> tuple:
        if not self.terms:
            raise DomainError("leading monomial of zero")
        return max(self.terms, key=_deglex_key)

    def lc(self):
        return self.terms[self.lm()]

    def lt(self) -> "PBWPoly":
        a = self.lm()
        return PBWPoly(self.pres, {a: self.terms[a]})

    def monic(self) -> "PBWPoly":
        if not self.terms:
            raise DomainError("cannot normalize zero")
        inv = self.pres.domain.one / self.lc()
        return self.scale(inv)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _deglex_key(t[0]), reverse=True)

    def __repr__(self):
        return pbw_str(self)


# -- division -------------------------------------------------------------------

def _mono_divides(alpha, beta) -> bool:
    return all(a <= b for a, b in zip(alpha, beta))


@dataclass
class DivisionResult:
    quotients: list
    remainder: PBWPoly


def _division_engine(f: PBWPoly, divisors, freeze_rest: bool) -> DivisionResult:
    pres = f.pres
    divisors = list(divisors)
    if not divisors or any(not d for d in divisors):
        raise DomainError("divisors must be nonzero")
    for d in divisors:
        f._check(d)
    lms = [d.lm() for d in divisors]
    q = [pres.zero for _ in divisors]
    h = pres.zero
    work = f
    while work:
        alpha = work.lm()
        i = next((t for t, lm in enumerate(lms) if _mono_divides(lm, alpha)), None)
        if i is None:
            if freeze_rest:
                h = h + work
                break
            lt = work.lt()
            h = h + lt
            work = work - lt
            continue
        if freeze_rest:
            lt = work.lt()
            h = h + (work - lt)
            work = lt
        gamma = tuple(a - b for a, b in zip(alpha, lms[i]))
        prod = pres.monomial(gamma) * divisors[i]
        r = work.terms[alpha] / prod.terms[alpha]
        q[i] = q[i] + pres.monomial(gamma, r)
        work = work - prod.scale(r)
    # exact reconstruction and the Prop-style degree condition
    recon = h
    for qi, di in zip(q, divisors):
        recon = recon + qi * di
    assert recon == f
    if f:
        keys = [_deglex_key((qi * di).lm()) for qi, di in zip(q, divisors) if qi]
        if h:
            keys.append(_deglex_key(h.lm()))
        assert max(keys) == _deglex_key(f.lm())
    return DivisionResult(q, h)


def divide(f: PBWPoly, divisors) -> DivisionResult:
    """The division algorithm in its classical computer-algebra form: only the
    leading-term cascade is reduced, lower terms pass to the remainder."""
    return _division_engine(f, divisors, freeze_rest=True)


def reduce_full(f: PBWPoly, divisors) -> PBWPoly:
    """Exhaustive normal form of f modulo the left combinations of divisors."""
    if not divisors:
        return f
    return _division_engine(f, divisors, freeze_rest=False).remainder


# -- Groebner bases ----------------------------------------------------------------

@dataclass
class GroebnerResult:
    basis: list
    complete: bool


def groebner_left(gens, max_basis: int = 64, max_pairs: int = 4096) -> GroebnerResult:
    """Left Groebner basis by overlap-pair completion, then interreduction."""
    gens = [g for g in gens if g]
    if not gens:
        raise DomainError("no nonzero generators")
    pres = gens[0].pres
    G = [g.monic() for g in gens]
    pairs = list(itertools.combinations(range(len(G)), 2))
    processed = 0
    complete = True
    while pairs:
        processed += 1
        if processed > max_pairs or len(G) > max_basis:
            complete = False
            break
        i, j = pairs.pop(0)
        gi, gj = G[i], G[j]
        lmi, lmj = gi.lm(), gj.lm()
        gamma = tuple(max(a, b) for a, b in zip(lmi, lmj))
        A = pres.monomial(tuple(a - b for a, b in zip(gamma, lmi))) * gi
        B = pres.monomial(tuple(a - b for a, b in zip(gamma, lmj))) * gj
        S = A.scale(pres.domain.one / A.terms[gamma]) - B.scale(
            pres.domain.one / B.terms[gamma]
        )
        if not S:
            continue
        h = reduce_full(S, G)
        if h:
            G.append(h.monic())
            pairs.extend((t, len(G) - 1) for t in range(len(G) - 1))
    return GroebnerResult(_interreduce(G), complete)


def _interreduce(G):
    G = list(G)
    changed = True
    while changed:
        changed = False
        for idx in range(len(G)):
            others = [g for t, g in enumerate(G) if t != idx and g]
            if not others:
                continue
            h = reduce_full(G[idx], others)
            if h != G[idx]:
                changed = True
                G[idx] = h.monic() if h else h
        G = [g for g in G if g]
    return sorted(G, key=lambda g: _deglex_key(g.lm()))


def in_left_ideal(f: PBWPoly, basis) -> bool:
    return not reduce_full(f, basis)


# -- two-sided closure ---------------------------------------------------------------

def two_sided_closure(gens, max_rounds: int = 32) -> list:
    """Left Groebner basis generating (as a left ideal) the two-sided ideal
    spanned by gens; quasi-commutative presentations only."""
    gens = [g for g in gens if g]
    if not gens:
        raise DomainError("no nonzero generators")
    pres = gens[0].pres
    if not pres.is_quasi_commutative:
        raise DomainError("two-sided closure implemented for quasi-commutative presentations only")
    right_mults = [pres.var(v) for v in range(pres.n)]
    scalar_gens = []
    if pres.domain.is_finite and not pres.has_trivial_coefficient_maps:
        scalar_gens = [pres.constant(pres.domain.field.gen)]
    G = groebner_left(gens).basis
    for _ in range(max_rounds):
        new = []
        for g in G:
            for m in right_mults + scalar_gens:
                r = reduce_full(g * m, G)
                if r:
                    new.append(r)
        if not new:
            return G
        G = groebner_left(G + new).basis
    raise GuardError(
        f"two-sided closure did not stabilize: basis of {len(G)} elements after "
        f"{max_rounds} rounds (cap {max_rounds})"
    )


def in_two_sided_ideal(f: PBWPoly, gens) -> bool:
    return not reduce_full(f, two_sided_closure(gens))


# -- text I/O --------------------------------------------------------------------------

def pbw_str(f: PBWPoly) -> str:
    if not f:
        return "0"
    pres = f.pres
    parts = []
    for alpha, c in f.sorted_terms():
        mono = "*".join(
            pres.names[v] if e == 1 else f"{pres.names[v]}^{e}"
            for v, e in enumerate(alpha)
            if e
        )
        cs = pres.domain.to_str(c)
        negative = cs.startswith("-")
        if negative:
            cs = cs[1:]
        if any(s in cs[1:] for s in "+-"):
            cs = f"({cs})"
        if not mono:
            body = cs
        elif cs == "1":
            body = mono
        else:
            body = f"{cs}*{mono}"
        parts.append(("-" if negative else "+") + body)
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def parse_pbw(pres: PBWPresentation, text: str) -> PBWPoly:
    """A sum of terms, each the product of its factors in the order written:
    powers x_i^e and coefficients (domain literals, optionally in
    parentheses), so y*x reads as the relation's c*x*y + ... ."""
    power = re.compile(rf"({'|'.join(re.escape(n) for n in pres.names)})(?:\^(\d+))?")
    total = pres.zero
    for sign, term in split_terms(text, "polynomial"):
        prod = pres.one
        for factor in split_factors(term):
            m = power.fullmatch(factor)
            if m:
                prod = prod * pres.var(pres.names.index(m.group(1))) ** int(m.group(2) or 1)
            else:
                prod = prod * pres.constant(pres.domain.parse(factor))
        total = total + prod if sign == 1 else total - prod
    return total


# -- presentation files -------------------------------------------------------------------

def _entry(data: dict, key: str, where: str):
    if not isinstance(data, dict) or key not in data:
        raise DomainError(f"presentation {where} has no {key!r} entry")
    return data[key]


_JSON_KINDS = {"a string": str, "an integer": int, "a list": list, "an object": dict, "null": type(None)}


def _typed(value, what: str, *kinds):
    """value, if its JSON type is one of kinds (keys of _JSON_KINDS); otherwise
    a DomainError naming the entry what."""
    if isinstance(value, bool) or not isinstance(value, tuple(_JSON_KINDS[k] for k in kinds)):
        raise DomainError(f"presentation entry {what} must be {' or '.join(kinds)}, not {json.dumps(value)}")
    return value


def _scalar(domain, value, what: str):
    return domain.parse(str(_typed(value, what, "a string", "an integer")))


def load_presentation(path_or_dict) -> PBWPresentation:
    """Load a presentation from its JSON description (file path or dict)."""
    if isinstance(path_or_dict, dict):
        data = path_or_dict
    else:
        try:
            with open(path_or_dict, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read presentation {str(path_or_dict)!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"a presentation is a JSON object, not {type(data).__name__}")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise DomainError(f"unsupported presentation schema_version {data.get('schema_version')!r}")
    names = _typed(_entry(data, "vars", "document"), "'vars'", "a list")
    if not all(isinstance(v, str) and v.isidentifier() for v in names) or len(set(names)) != len(names):
        raise DomainError(f"presentation entry 'vars' must list distinct variable names, not {json.dumps(names)}")
    domain = domain_by_name(_typed(_entry(data, "field", "document"), "'field'", "a string"))
    n = len(names)
    sigma = _typed(data.get("sigma"), "'sigma'", "a list", "null")
    delta = _typed(data.get("delta"), "'delta'", "a list", "null")
    for s in sigma or []:
        _typed(s, "'sigma' item", "an integer", "null")
    for d in delta or []:
        _typed(d, "'delta' item", "a string", "an integer", "null")
    relations = {}
    for rel in _typed(data.get("relations", []), "'relations'", "a list"):
        _typed(rel, "'relations' item", "an object")
        i = _typed(_entry(rel, "i", "relation"), "relation 'i'", "an integer") - 1
        j = _typed(_entry(rel, "j", "relation"), "relation 'j'", "an integer") - 1
        c = _scalar(domain, rel.get("c", "1"), "relation 'c'")
        a = _typed(rel.get("a", ["0"] * n), "relation 'a'", "a list")
        a = [_scalar(domain, v, "relation 'a' item") for v in a]
        if len(a) != n:
            raise DomainError("relation linear part must list one entry per variable")
        d = _scalar(domain, rel.get("d", "0"), "relation 'd'")
        relations[(i, j)] = (c, a, d)
    return PBWPresentation(names, domain, relations, sigma, delta)


def presentation_to_dict(pres: PBWPresentation) -> dict:
    rels = []
    for (i, j), (c, a, d) in sorted(pres.relations.items()):
        rels.append(
            {
                "i": i + 1,
                "j": j + 1,
                "c": pres.domain.to_str(c),
                "a": [pres.domain.to_str(v) for v in a],
                "d": pres.domain.to_str(d),
            }
        )
    out = {
        "schema_version": SCHEMA_VERSION,
        "vars": list(pres.names),
        "field": pres.domain.name,
        "relations": rels,
    }
    if any(s is not None for s in pres.sigma_specs):
        out["sigma"] = pres.sigma_specs
    if any(d is not None for d in pres.delta_specs):
        out["delta"] = pres.delta_specs
    return out
