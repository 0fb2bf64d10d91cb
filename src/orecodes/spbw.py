"""Skew PBW extensions sigma(R)<x_1..x_n>: presentations, normal-form
arithmetic, deglex leading data, the division algorithm, and left Groebner
bases with a two-sided closure.

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
from typing import NamedTuple

from .errors import DomainError, GuardError, capped, verify
from .gf import literal_int, split_factors, split_terms
from .scalars import domain_by_name

SCHEMA_VERSION = 1

# rewriting x_i*x^beta recurses once per unit of the exponents before x_i: from
# a bare interpreter the recursion limit was hit at degree 986-991 on every
# shipped presentation (y*x^985 in qspace3), and half that leaves the caller's
# frames room
MAX_REWRITE_DEGREE = 512


def _deglex_key(alpha):
    return (sum(alpha), alpha)


class PBWPresentation:
    def __init__(self, names, domain, relations=None, sigma=None, delta=None):
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
        self.zero = PBWPoly(self, {})
        self.one = PBWPoly(self, {(0,) * self.n: domain.one})
        self._check_associative()

    def _check_associative(self):
        """The overlap conditions under which the normal forms define an
        associative ring (Bergman's diamond lemma): (x_k x_j) x_i = x_k (x_j x_i)
        for i < j < k, and (x_j x_i) r = x_j (x_i r) for i < j and the field
        generators r in twisting_scalars."""
        x = self.gens
        overlaps = [(x[k], x[j], x[i]) for i, j, k in itertools.combinations(range(self.n), 3)]
        overlaps += [(x[j], x[i], self.constant(r))
                     for i, j in itertools.combinations(range(self.n), 2) for r in self.twisting_scalars]
        for a, b, c in overlaps:
            left, right = (a * b) * c, a * (b * c)
            if left != right:
                a, b, c = (pbw_str(t) for t in (a, b, c))
                raise DomainError(
                    f"the presentation is not associative: ({a}*{b})*{c} = {pbw_str(left)} "
                    f"but {a}*({b}*{c}) = {pbw_str(right)}"
                )

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

    @property
    def twisting_scalars(self) -> list:
        """The scalars a polynomial must also commute with to be central: the
        generator of a finite field when some sigma_i or delta_i moves it (the
        set of scalars that commute is a subfield), otherwise none."""
        if self.domain.is_finite and not self.has_trivial_coefficient_maps:
            return [self.domain.field.gen]
        return []

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
            _addto(clean, {alpha: c}, self.domain.one)  # the factor 1 brings an int into the domain
        return PBWPoly(self, clean)

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

    def combination(self, coeffs, polys) -> "PBWPoly":
        """sum_i coeffs[i] * polys[i]."""
        out = {}
        for c, f in zip(coeffs, polys):
            if c:
                _addto(out, f.terms, c)
        return PBWPoly(self, out)

    # -- core rewriting -------------------------------------------------------

    def _var_times_terms(self, i: int, terms: dict) -> dict:
        """Normal form of x_i * (sum_beta c_beta x^beta)."""
        sigma, delta = self._sigmas[i], self._deltas[i]
        out = {}
        for beta, c in terms.items():
            _addto(out, self._mono_left(i, beta), sigma(c))
            if delta is not None:
                _addto(out, {beta: delta(c)})
        return out

    def _mono_left(self, i: int, beta: tuple) -> dict:
        """Normal form of x_i * x^beta as a term dict (cached: callers only read it)."""
        key = (i, beta)
        cached = self._mono_cache.get(key)
        if cached is not None:
            return cached
        first = next((v for v, e in enumerate(beta) if e), None)
        if first is None or i <= first:
            gamma = tuple(e + 1 if v == i else e for v, e in enumerate(beta))
            result = {gamma: self.domain.one}
        else:
            capped(sum(beta) + 1, MAX_REWRITE_DEGREE, "rewriting a monomial of degree")
            j = first  # j < i: swap x_i past x_j using the (j, i) relation
            beta2 = tuple(e - 1 if v == j else e for v, e in enumerate(beta))
            c, a, d = self._rel(j, i)
            result = _addto({}, self._var_times_terms(j, self._mono_left(i, beta2)), c)
            for k, ak in enumerate(a):
                if ak:
                    _addto(result, self._mono_left(k, beta2), ak)
            _addto(result, {beta2: d})
        self._mono_cache[key] = result
        return result

    def _mono_times(self, alpha: tuple, terms: dict) -> dict:
        """Normal form of x^alpha * (sum_beta c_beta x^beta).  alpha is an
        exponent tuple the code built, so poly()'s checks are skipped; the
        result is terms itself when alpha is 0, so callers only read it."""
        for v in range(self.n - 1, -1, -1):
            for _ in range(alpha[v]):
                terms = self._var_times_terms(v, terms)
        return terms

    def mul_terms(self, fterms: dict, gterms: dict) -> dict:
        out = {}
        for alpha, a in fterms.items():
            _addto(out, self._mono_times(alpha, gterms), a)
        return out

    def __repr__(self):
        return f"sigma({self.domain!r})<{','.join(self.names)}>"


def _addto(out: dict, terms: dict, c=None) -> dict:
    """out += c * terms in place (c = None adds terms as they are), dropping
    the entries that cancel to zero; returns out."""
    for alpha, v in terms.items():
        if c is not None:
            v = c * v
        cur = out.get(alpha)
        if cur is not None:
            v = cur + v
        if v:
            out[alpha] = v
        elif cur is not None:
            del out[alpha]
    return out


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
        return PBWPoly(self.pres, _addto(dict(self.terms), other.terms))

    def __neg__(self):
        return self.pres.zero - self

    def __sub__(self, other):
        self._check(other)
        return PBWPoly(self.pres, _addto(dict(self.terms), other.terms, -self.pres.domain.one))

    def __mul__(self, other):
        if isinstance(other, PBWPoly):
            self._check(other)
            return PBWPoly(self.pres, self.pres.mul_terms(self.terms, other.terms))
        return NotImplemented

    def __rmul__(self, other):
        # left scalar multiple (scalars sit to the left of standard monomials)
        if isinstance(other, int):
            other = self.pres.domain.parse(str(other))
        return PBWPoly(self.pres, _addto({}, self.terms, other))

    def scale(self, c):
        return self.__rmul__(c)

    def __pow__(self, m: int):
        if m < 0:
            raise DomainError("negative power of a polynomial")
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


class DivisionResult(NamedTuple):
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
    q = [{} for _ in divisors]
    h = {}
    work = dict(f.terms)
    while work:
        alpha = max(work, key=_deglex_key)
        if freeze_rest:  # the non-leading terms pass to the remainder
            c = work.pop(alpha)
            _addto(h, work)
            work = {alpha: c}
        i = next((t for t, lm in enumerate(lms) if _mono_divides(lm, alpha)), None)
        if i is None:
            _addto(h, {alpha: work.pop(alpha)})
            continue
        gamma = tuple(a - b for a, b in zip(alpha, lms[i]))
        prod = pres._mono_times(gamma, divisors[i].terms)
        r = work[alpha] / prod[alpha]
        q[i][gamma] = r  # the leading monomial of work falls at every step, so gamma is new to q[i]
        _addto(work, prod, -r)
    # exact reconstruction and the Prop-style degree condition
    products = [pres.mul_terms(qi, d.terms) for qi, d in zip(q, divisors) if qi]
    recon = dict(h)
    for p in products:
        _addto(recon, p)
    verify(recon == f.terms, "division reconstruction f = sum q_i*d_i + h")
    if f:
        keys = [max(map(_deglex_key, p)) for p in products]
        if h:
            keys.append(max(map(_deglex_key, h)))
        verify(max(keys) == _deglex_key(f.lm()), "division degree condition lm(f) = max(lm(q_i*d_i), lm(h))")
    return DivisionResult([PBWPoly(pres, qi) for qi in q], PBWPoly(pres, h))


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

# completion stops (and reports the cap) past this many basis elements or
# reductions of S-pairs and right multiples
MAX_GROEBNER_BASIS = 64
MAX_GROEBNER_PAIRS = 4096


class GroebnerResult(NamedTuple):
    basis: list
    complete: bool
    cap: str  # the cap completion stopped at, e.g. "max_pairs 4096"; "" when complete


def _superseded(lms, i) -> bool:
    """Another element's leading monomial divides lms[i], the later element
    winning on equal ones.  Such divisors lead from every superseded element
    to one that is not, so the elements that are not superseded form a left
    Groebner basis whenever the whole list does."""
    return any(_mono_divides(b, lms[i]) and (b != lms[i] or j > i) for j, b in enumerate(lms) if j != i)


def _complete(gens, two_sided: bool) -> GroebnerResult:
    """Reduced left Groebner basis of the least left ideal holding gens and,
    when two_sided, closed under right multiplication by the x_i and
    twisting_scalars: one Buchberger loop over the S-pairs, then (once no pair
    is left, so G is a left Groebner basis) the right multiples g*m
    (Kandri-Rody-Weispfenning 1990), each first in, first out.  The right
    multiples of a _superseded element are skipped, and the basis is the other
    elements, each reduced once modulo the rest: no leading monomial among
    them divides another, so one pass leaves none dividing a term of another
    element, and that reduced basis is unique.  The caps count the elements
    and the S-pairs and right multiples that reach reduce_full."""
    gens = [g for g in gens if g]
    if not gens:
        raise DomainError("no nonzero generators")
    pres = gens[0].pres
    one = pres.domain.one
    right_mults = pres.gens + [pres.constant(r) for r in pres.twisting_scalars] if two_sided else []
    G = [g.monic() for g in gens]
    lms = [g.lm() for g in G]
    pairs = list(itertools.combinations(range(len(G)), 2))
    mults = [(i, m) for i in range(len(G)) for m in right_mults]
    reductions = 0
    cap = ""
    while pairs or mults:
        if pairs:
            i, j = pairs.pop(0)
            gamma = tuple(map(max, lms[i], lms[j]))
            A = pres._mono_times(tuple(a - b for a, b in zip(gamma, lms[i])), G[i].terms)
            B = pres._mono_times(tuple(a - b for a, b in zip(gamma, lms[j])), G[j].terms)
            S = _addto(_addto({}, A, one / A[gamma]), B, -one / B[gamma])
        else:
            i, m = mults.pop(0)
            if _superseded(lms, i):
                continue
            S = pres.mul_terms(G[i].terms, m.terms)
        if not S:
            continue
        if reductions == MAX_GROEBNER_PAIRS or len(G) > MAX_GROEBNER_BASIS:
            cap = (f"max_pairs {MAX_GROEBNER_PAIRS}" if reductions == MAX_GROEBNER_PAIRS
                   else f"max_basis {MAX_GROEBNER_BASIS}")
            break
        reductions += 1
        h = reduce_full(PBWPoly(pres, S), G)
        if h:
            G.append(h.monic())
            lms.append(h.lm())
            pairs.extend((t, len(G) - 1) for t in range(len(G) - 1))
            mults.extend((len(G) - 1, m) for m in right_mults)
    kept = [g for i, g in enumerate(G) if not _superseded(lms, i)]
    # a G cut short is no Groebner basis: the remainders of its superseded
    # elements stay too, so the basis still spans the left ideal of G
    basis = [h.monic() for g in (G if cap else kept) if (h := reduce_full(g, [k for k in kept if k is not g]))]
    return GroebnerResult(sorted(basis, key=lambda g: _deglex_key(g.lm())), not cap, cap)


def groebner_left(gens) -> GroebnerResult:
    """Reduced left Groebner basis by overlap-pair completion."""
    return _complete(gens, two_sided=False)


def in_left_ideal(f: PBWPoly, basis) -> bool:
    return not reduce_full(f, basis)


# -- two-sided closure ---------------------------------------------------------------

def two_sided_closure(gens) -> list:
    """Left Groebner basis generating (as a left ideal) the two-sided ideal
    spanned by gens: a left ideal closed under right multiplication by every
    x_i and by the field generators in twisting_scalars is two-sided.  A basis
    cut short by a cap would make every membership answer read from it wrong,
    so it is refused."""
    res = _complete(gens, two_sided=True)
    if not res.complete:
        raise GuardError(
            f"two-sided closure: left Groebner completion stopped at its cap ({res.cap}) "
            f"with a basis of {len(res.basis)} elements"
        )
    return res.basis


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


# a product of two terms of this degree takes under half a second on the
# shipped presentations (0.4 s for (y^32*x^32)^2 in weyl1z, 2.7 s at twice the
# degree, Python 3.11 on a Xeon core), and its degree 128 is far below
# MAX_REWRITE_DEGREE
MAX_TERM_DEGREE = 64


def parse_pbw(pres: PBWPresentation, text: str) -> PBWPoly:
    """A sum of terms, each the product of its factors in the order written:
    powers x_i^e and coefficients (domain literals, optionally in
    parentheses), so y*x reads as the relation's c*x*y + ... ."""
    power = re.compile(rf"({'|'.join(re.escape(n) for n in pres.names)})(?:\^(\d+))?")
    total = pres.zero
    for sign, term in split_terms(text, "polynomial"):
        prod, degree = pres.one, 0
        for factor in split_factors(term):
            m = power.fullmatch(factor)
            if m:
                e = literal_int(m.group(2) or "1", "polynomial")
                degree = capped(degree + e, MAX_TERM_DEGREE, "polynomial term of degree")
                prod = prod * pres.var(pres.names.index(m.group(1))) ** e
            else:
                prod = prod * pres.constant(pres.domain.parse(factor))
        total = total + prod if sign == 1 else total - prod
    return total


# -- presentation files -------------------------------------------------------------------

def _entry(data: dict, key: str, where: str):
    if not isinstance(data, dict) or key not in data:
        raise DomainError(f"presentation {where} has no {key!r} entry")
    return data[key]


def _known(data: dict, keys, where: str) -> dict:
    unknown = [key for key in data if key not in keys]
    if unknown:  # a misspelled entry would otherwise be silently ignored
        raise DomainError(f"presentation {where} has unknown entry {unknown[0]!r}")
    return data


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
    _known(data, ("schema_version", "vars", "field", "sigma", "delta", "relations"), "document")
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
        _known(_typed(rel, "'relations' item", "an object"), ("i", "j", "c", "a", "d"), "relation")
        i = _typed(_entry(rel, "i", "relation"), "relation 'i'", "an integer") - 1
        j = _typed(_entry(rel, "j", "relation"), "relation 'j'", "an integer") - 1
        if (i, j) in relations:
            raise DomainError(f"presentation repeats the relation of the pair (i, j) = ({i + 1}, {j + 1})")
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
