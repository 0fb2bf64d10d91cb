"""Coefficient domains for skew PBW extensions: exact rationals, Gaussian
rationals (pairs over Fraction with i^2 = -1), and finite fields.

Each domain object knows how to parse/print its scalars and exposes the
automorphism hooks the presentation layer needs (nontrivial ones exist only
over finite fields)."""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError
from .gf import FiniteField, element_str, parse_element, parse_field, split_terms


class GaussianRational:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n
        )

    def __rtruediv__(self, other):
        return GaussianRational(other) / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        ims = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{self.im}*i")
        if not self.re:
            return ims
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"{self.re}{sign}{imag}"


class RationalDomain:
    """The field Q via fractions.Fraction."""

    name = "Q"
    is_finite = False

    zero = Fraction(0)
    one = Fraction(1)

    def parse(self, text: str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad rational literal {text!r}") from exc

    def to_str(self, v) -> str:
        return str(v)

    def sigma(self, spec):
        if spec not in (None, 0):
            raise DomainError("Q has no nontrivial automorphisms")
        return lambda v: v

    def delta(self, spec, sigma):
        if spec not in (None, 0, "0"):
            raise DomainError("Q carries only the zero derivation")
        return None

    def __repr__(self):
        return "Q"


# a rational magnitude with a nonzero denominator, optionally times i (2*i, 2i), or i alone
_GAUSS_TERM = re.compile(r"(\d+(?:/\d*[1-9]\d*)?)(\*?i)?|i")


class GaussianDomain:
    """The field Q(i) of Gaussian rationals."""

    name = "Q(i)"
    is_finite = False

    zero = GaussianRational(0)
    one = GaussianRational(1)

    def parse(self, text: str):
        total = GaussianRational(0)
        for sign, term in split_terms(text, "Gaussian rational"):
            m = _GAUSS_TERM.fullmatch(term)
            if not m:
                raise DomainError(f"bad Gaussian rational literal {''.join(text.split())!r}")
            try:
                mag = Fraction(m.group(1) or 1)
            except ValueError:  # a digit run past the interpreter's integer-conversion limit
                raise DomainError(f"bad Gaussian rational literal: a magnitude of {len(m.group(1))} characters") from None
            part = GaussianRational(0, mag) if term.endswith("i") else GaussianRational(mag)
            total = total + part if sign == 1 else total - part
        return total

    def to_str(self, v) -> str:
        return repr(v)

    def sigma(self, spec):
        if spec not in (None, 0):
            raise DomainError("no automorphisms of Q(i) are supported")
        return lambda v: v

    def delta(self, spec, sigma):
        if spec not in (None, 0, "0"):
            raise DomainError("Q(i) carries only the zero derivation")
        return None

    def __repr__(self):
        return "Q(i)"


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
        from .gf import Automorphism

        return Automorphism(self.field, 0 if spec is None else int(spec))

    def delta(self, spec, sigma):
        """spec: the inner element w as a literal, or None for zero."""
        from .gf import InnerDerivation

        if spec in (None, 0, "0"):
            return None
        d = InnerDerivation(sigma, self.parse(str(spec)))
        return None if d.is_zero else d

    def __repr__(self):
        return self.name


QQ = RationalDomain()
QQI = GaussianDomain()


def domain_by_name(name: str):
    name = name.strip()
    if name in ("Q", "QQ"):
        return QQ
    if name in ("Q(i)", "QQi", "Qi"):
        return QQI
    if name.startswith("GF"):
        return GFDomain(parse_field(name))
    raise DomainError(f"unknown coefficient domain {name!r}")
