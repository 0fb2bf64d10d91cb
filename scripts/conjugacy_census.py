#!/usr/bin/env python3
"""Tabulate conjugacy classes of GF(q^k) under z -> sigma(u) z u^{-1} for
every Frobenius power sigma = phi^l, and confirm the class-size formula
(q^k - 1)/(q^r - 1) with r = gcd(l, k).  Each class is also checked against
its orbit {z^u : u != 0}, enumerated here with conjugate, and the classes
must partition the field; a mismatch exits 1."""

import math
import sys

sys.path.insert(0, "src")

from orecodes.gf import GF
from orecodes.skewpoly import OreRing, conjugacy_classes, conjugate


def census(q, k):
    field = GF(q, k)
    units = field.elements()[1:]
    print(f"== GF({q}^{k}) ==")
    for l in range(k):
        ring = OreRing(field, l)
        classes = conjugacy_classes(ring)
        if sorted(z.idx for c in classes for z in c) != list(range(field.size)):
            sys.exit(f"GF({q}^{k}), sigma = phi^{l}: the classes do not partition the field")
        for c in classes:
            orbit = sorted({conjugate(ring, c[0], u) for u in units}, key=lambda z: z.idx)
            if orbit != c:
                sys.exit(f"GF({q}^{k}), sigma = phi^{l}: class {c} is not the orbit {orbit} of {c[0]!r}")
        r = math.gcd(l, k) if l else k
        expected = (q ** k - 1) // (q ** r - 1)
        sizes = sorted(len(c) for c in classes)
        print(
            f"  sigma = phi^{l}: {len(classes)} classes (predicted {q ** r}),"
            f" nonzero class size {expected}, sizes {sizes}"
        )
        reps = ["{" + ",".join(repr(z) for z in c) + "}" for c in classes]
        print("    " + "  ".join(reps))


if __name__ == "__main__":
    for q, k in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        census(q, k)
