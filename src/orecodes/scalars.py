"""Coefficient domains for skew PBW extensions: Q and Q(i), whose one exact
scalar GaussianRational is (a + b*i)/d over the integers (Q is b = 0), and
finite fields.  Each domain object knows how to parse/print its scalars and
exposes the automorphism hooks the presentation layer needs (nontrivial ones
exist only over finite fields)."""

from __future__ import annotations

import re
import sys
from math import gcd

from .errors import DomainError
from .gf import Automorphism, FiniteField, InnerDerivation, element_str, parse_element, parse_field, split_terms


def _q_str(n: int, d: int) -> str:
    """n/d in lowest terms, printed as str(Fraction(n, d)) prints it."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


class GaussianRational:
    """(a + b*i)/d with integers d > 0 and gcd(a, b, d) = 1, so equal values
    have equal triples.  Operands may be anything with integer numerator and
    denominator (int, Fraction), and b = 0 values equal and hash like them."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        p, q, r, s = re.numerator, re.denominator, im.numerator, im.denominator
        g = gcd(p * s, r * q, q * s)
        self.a, self.b, self.d = p * s // g, r * q // g, q * s // g

    @classmethod
    def _make(cls, a, b, d):
        """(a + b*i)/d for integers a, b and d > 0."""
        z, g = object.__new__(cls), gcd(a, b, d)
        z.a, z.b, z.d = a // g, b // g, d // g
        return z

    @staticmethod
    def _coerce(other):
        if type(other) is GaussianRational:
            return other
        n, d = getattr(other, "numerator", None), getattr(other, "denominator", None)
        return GaussianRational._make(n, 0, d) if type(n) is int and type(d) is int else None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.a * o.a + o.b * o.b
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + b*i)/d * d'(a' - b'*i)/(a'^2 + b'^2)
        return self._make((self.a * o.a + self.b * o.b) * o.d, (self.b * o.a - self.a * o.b) * o.d, self.d * n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.d))
        # the numeric hash of a/d, as int and Fraction compute it
        P, inf = sys.hash_info.modulus, sys.hash_info.inf
        return hash(self.a * pow(self.d, -1, P)) if self.d % P else (inf if self.a > 0 else -inf)

    def __bool__(self):
        return bool(self.a or self.b)

    def __repr__(self):
        a, b, d = self.a, self.b, self.d
        if not b:
            return _q_str(a, d)
        imag = "i" if b == d else ("-i" if b == -d else f"{_q_str(b, d)}*i")
        if not a:
            return imag
        return f"{_q_str(a, d)}{'+-'[b < 0]}{imag.lstrip('-')}"


# a rational magnitude with a nonzero denominator, optionally times i (2*i, 2i), or i alone
_GAUSS_TERM = re.compile(r"((\d+)(?:/(\d*[1-9]\d*))?)(\*?i)?|i")


class NumberField:
    """Q, or Q(i) when gaussian: literals are sums of terms 3, 1/2, i, 2*i,
    1/2i (Q refuses the terms in i), scalars are GaussianRationals, and the
    only coefficient maps are the identity and the zero derivation."""

    is_finite = False

    zero = GaussianRational(0)
    one = GaussianRational(1)

    def __init__(self, name: str, gaussian: bool):
        self.name, self.gaussian = name, gaussian
        self.what = "Gaussian rational" if gaussian else "rational"

    def parse(self, text: str):
        total = self.zero
        for sign, term in split_terms(text, self.what):
            m = _GAUSS_TERM.fullmatch(term)
            imaginary = term.endswith("i")
            if not m or imaginary and not self.gaussian:
                raise DomainError(f"bad {self.what} literal {''.join(text.split())!r}")
            try:
                num, den = sign * int(m.group(2) or 1), int(m.group(3) or 1)
            except ValueError:  # a digit run past the interpreter's integer-conversion limit
                raise DomainError(f"bad {self.what} literal: a magnitude of {len(m.group(1))} characters") from None
            total = total + GaussianRational._make(0 if imaginary else num, num if imaginary else 0, den)
        return total

    def to_str(self, v) -> str:
        return str(v)

    def sigma(self, spec):
        if spec not in (None, 0):
            raise DomainError(f"no automorphisms of {self.name} are supported")
        return lambda v: v

    def delta(self, spec, sigma):
        if spec not in (None, 0, "0"):
            raise DomainError(f"{self.name} carries only the zero derivation")
        return None

    def __repr__(self):
        return self.name


class GFDomain:
    """A finite field GF(q^k) as a PBW coefficient domain."""

    is_finite = True

    def __init__(self, field: FiniteField):
        self.field = field
        self.zero = field.zero
        self.one = field.one
        self.name = repr(field)

    def parse(self, text: str):
        return parse_element(self.field, text)

    def to_str(self, v) -> str:
        return element_str(v)

    def elements(self):
        return self.field.elements()

    def sigma(self, spec):
        """spec: a Frobenius power l (int) or None for the identity."""
        return Automorphism(self.field, 0 if spec is None else int(spec))

    def delta(self, spec, sigma):
        """spec: the inner element w as a literal, or None for zero."""
        if spec in (None, 0, "0"):
            return None
        d = InnerDerivation(sigma, self.parse(str(spec)))
        return None if d.is_zero else d

    def __repr__(self):
        return self.name


QQ = NumberField("Q", gaussian=False)
QQI = NumberField("Q(i)", gaussian=True)


def domain_by_name(name: str):
    name = name.strip()
    if name in ("Q", "QQ"):
        return QQ
    if name in ("Q(i)", "QQi", "Qi"):
        return QQI
    if name.startswith("GF"):
        return GFDomain(parse_field(name))
    raise DomainError(f"unknown coefficient domain {name!r}")
