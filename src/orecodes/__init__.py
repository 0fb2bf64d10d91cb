"""Noncommutative polynomial arithmetic and coding theory over exact fields.

Modules: gf (finite fields), skewpoly (the Ore extension F[x;sigma,delta]),
algset (single-variable algebraic sets), codes (skew cyclic codes),
evalcodes (evaluation codes, Hamming/rank distances), linearized
(q-linearized polynomials), spbw (skew PBW extensions and Groebner bases),
spbwsets (multivariate roots, ideals of points, Nullstellensatz checks),
cli (command-line front end).
"""

from .gf import GF, parse_field

__all__ = ["GF", "parse_field", "OreRing", "PBWPresentation", "load_presentation"]


def __getattr__(name):
    """OreRing and the PBW names are imported on first use (PEP 562), so that
    importing the package, or the command line, loads no more than gf."""
    if name == "OreRing":
        from .skewpoly import OreRing

        return OreRing
    if name in ("PBWPresentation", "load_presentation"):
        from . import spbw

        return getattr(spbw, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
