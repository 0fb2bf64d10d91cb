"""The four workloads: input generation, the timed task, and its check.

A workload runs a fixed, seeded cycle of tasks.  `setup` is what a user pays
before the first task (import and field, ring or presentation construction).
`generate` builds the cycle's inputs; `begin_cycle`, `prepare` and `done`
reset per-cycle state and make or drop a task's program objects.  None of
these is timed.  `run` is the timed task.  Outside the timed region, `canon`
gives an output's canonical form, which feeds the result digest, and `check`
verifies it.  Only `setup` imports the program, so importing this module
costs nothing that setup_s would miss.

Task costs are stratified: every cycle holds the same task shapes (kind,
degree stratum, ring kind, field and sizes), and the seed picks the
coefficients, points and order within each shape.  So cycles cost nearly the
same on every seed, and a rate over whole cycles is a steady figure.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

from oracle import QuasiCommutative, RefField, RefOre, binary_rank, rank

HERE = Path(__file__).resolve().parent


class Workload:
    """Hooks the worker calls around the timed `run`; none is timed."""

    # False: a task's sample is the median of its times, and a cycle holds at
    # least 100 distinct tasks.  True: every completed task is a sample.
    every_run_a_sample = False
    # the run mode repeats a task back to back until it has taken this long in
    # a cycle (0: once); only where a repeat hits no cache the first run filled
    repeat_ms = 0.0

    def begin_cycle(self):
        """Reset per-cycle state, so that every cycle starts alike."""

    def prepare(self, t):
        """Make the program objects the task needs (t.bound) from its inputs."""

    def done(self, t):
        """Drop what the task held once its output is checked."""


@dataclass
class Task:
    kind: str
    tag: str  # ring kind (auto/deriv), cache temperature (warm/cold) or "cli"
    args: tuple
    bound: tuple = ()  # program objects made from args by prepare


def _codes(p):
    """Coefficient codes of a skew polynomial, low degree first."""
    return [p[i].code for i in range(p.degree + 1)]


def _rand_poly(rng, size, degree):
    return [rng.randrange(size) for _ in range(degree)] + [rng.randrange(1, size)]


# -- skew-kernels ---------------------------------------------------------------------

class SkewKernels(Workload):
    """Random SkewPoly tasks over GF(2^8)[x; phi] and GF(2^8)[x; phi, delta_w]."""

    name = "skew-kernels"
    repeat_ms = 10.0
    KINDS = ("mul", "right_divmod", "left_divmod", "gcrd_bezout", "lclm",
             "right_eval", "vanishing_set", "minimal_polynomial")

    def setup(self, root):
        import orecodes
        from orecodes import algset, skewpoly

        self.sp, self.alg = skewpoly, algset
        F = self.F = orecodes.GF(2, 8)
        self.rings = {"auto": orecodes.OreRing(F, 1), "deriv": orecodes.OreRing(F, 1, F.gen)}

    def generate(self, seed, tiny):
        rng = random.Random(f"{self.name}/{seed}")
        F = self.F
        ref = RefField(F.q, F.k, F.modulus)
        self.ref = {"auto": RefOre(ref, 1), "deriv": RefOre(ref, 1, F.gen.code)}
        slots = 3 if tiny else 15

        def deg(lo, hi, x):
            """A point of a fixed grid over [lo, hi], the same on every seed, with a
            seeded +-1 jitter on the larger sizes."""
            jitter = rng.choice((-1, 0, 1)) if lo >= 8 else 0
            return min(hi, max(lo, lo + round((hi - lo) * x) + jitter))

        tasks = []
        for kind in self.KINDS:
            for i in range(slots):
                # v is a second grid coordinate, paired with u by a fixed permutation
                u, v = (i + 0.5) / slots, ((7 * i + 3) % slots + 0.5) / slots
                tag = "deriv" if i % 3 == 2 else "auto"  # one third in the delta ring
                R = self.ref[tag]
                if kind == "mul":
                    args = (_rand_poly(rng, 256, deg(8, 48, u)), _rand_poly(rng, 256, deg(8, 48, v)))
                elif kind in ("right_divmod", "left_divmod"):
                    da = deg(8, 48, u)
                    args = (_rand_poly(rng, 256, da), _rand_poly(rng, 256, max(2, round(da * (0.25 + 0.5 * v)))))
                elif kind in ("gcrd_bezout", "lclm"):
                    hi = 48 if kind == "gcrd_bezout" else 32
                    da, db, dc = deg(8, hi, u), deg(8, hi, v), 1 + i % 4
                    c = _rand_poly(rng, 256, dc)  # planted common right factor
                    args = (R.mul(_rand_poly(rng, 256, da - dc), c), R.mul(_rand_poly(rng, 256, db - dc), c), c)
                elif kind == "right_eval":
                    args = (_rand_poly(rng, 256, deg(8, 48, u)), rng.randrange(256))
                elif kind == "vanishing_set":
                    z = rng.randrange(256)
                    args = (R.mul(_rand_poly(rng, 256, deg(2, 8, u) - 1), [R.F.neg(z), 1]),)  # z is a right root
                else:
                    args = (sorted(rng.sample(range(256), deg(4, 24, u))),)
                tasks.append(Task(kind, tag, args))
        rng.shuffle(tasks)
        return tasks

    def prepare(self, t):
        if t.bound:
            return
        F, ring = self.F, self.rings[t.tag]
        poly = lambda c: ring.poly([F.from_code(v) for v in c])
        if t.kind == "right_eval":
            t.bound = (poly(t.args[0]), F.from_code(t.args[1]))
        elif t.kind == "minimal_polynomial":
            t.bound = (ring, [F.from_code(v) for v in t.args[0]])
        else:
            t.bound = tuple(poly(a) for a in t.args[:2])

    def run(self, t):
        a = t.bound
        k = t.kind
        if k == "mul":
            return a[0] * a[1]
        if k == "right_divmod":
            return a[0].right_divmod(a[1])
        if k == "left_divmod":
            return a[0].left_divmod(a[1])
        if k == "gcrd_bezout":
            return self.sp.gcrd_bezout(a[0], a[1])
        if k == "lclm":
            return self.sp.lclm(a[0], a[1])
        if k == "right_eval":
            return self.sp.right_eval(a[0], a[1])
        if k == "vanishing_set":
            return self.alg.vanishing_set(a[0])
        return self.alg.minimal_polynomial(a[0], a[1])

    def canon(self, t, out):
        k = t.kind
        if k in ("right_divmod", "left_divmod", "gcrd_bezout"):
            return [_codes(p) for p in out]
        if k == "right_eval":
            return out.code
        if k == "vanishing_set":
            return sorted(z.code for z in out)
        return _codes(out)

    def check(self, t, out):
        R, k = self.ref[t.tag], t.kind
        got = self.canon(t, out)
        if k == "mul":
            return got == R.mul(*t.args)
        if k in ("right_divmod", "left_divmod"):
            (a, d), (q, r) = t.args, got
            prod = R.mul(q, d) if k == "right_divmod" else R.mul(d, q)
            return R.add(prod, r) == a and len(r) < len(d)
        if k == "gcrd_bezout":
            (a, b, c), (d, u, v) = t.args, got
            return (R.add(R.mul(u, a), R.mul(v, b)) == d and d[-1] == 1
                    and not R.right_divmod(a, d)[1] and not R.right_divmod(b, d)[1]
                    and not R.right_divmod(d, c)[1])
        if k == "lclm":
            a, b, _ = t.args
            return (got[-1] == 1 and not R.right_divmod(got, a)[1] and not R.right_divmod(got, b)[1]
                    and len(got) + len(R.gcrd(a, b)) == len(a) + len(b))
        if k == "right_eval":
            return got == R.eval(*t.args)
        if k == "vanishing_set":
            return got == [z for z in range(R.F.size) if not R.eval(t.args[0], z)]
        pts = t.args[0]
        return (got[-1] == 1 and all(not R.eval(got, z) for z in pts)
                and len(got) - 1 == rank(R.F, R.norm_rows(pts, len(pts))))


# -- code-certify -----------------------------------------------------------------------

class CodeCertify(Workload):
    """Evaluation and skew cyclic codes over GF(8) and GF(16) with sigma = phi."""

    name = "code-certify"
    repeat_ms = 10.0
    # (field size, r, k): every shape once per cycle; q^k <= 4096 keeps enumeration bounded
    MDS = [(8, 2, 1), (8, 2, 2), (8, 3, 1), (8, 3, 2), (8, 3, 3), (8, 4, 1), (8, 4, 2), (8, 4, 3),
           (16, 2, 1), (16, 2, 2), (16, 3, 1), (16, 3, 2), (16, 3, 3), (16, 4, 1), (16, 4, 2), (16, 4, 3),
           (16, 5, 1), (16, 5, 2), (16, 5, 3)]
    MRD = [(8, 2, 1), (8, 2, 2), (8, 3, 1), (8, 3, 2), (8, 3, 3),
           (16, 2, 1), (16, 2, 2), (16, 3, 1), (16, 3, 2), (16, 3, 3), (16, 4, 1), (16, 4, 2), (16, 4, 3)]
    HAMMING = [("remainder",) + s for s in MDS[:8]] + [("operator",) + s for s in MRD[5:]]
    RANK = ([("remainder",) + s for s in MDS if s[0] == 16 and s[2] <= 2]
            + [("operator",) + s for s in MRD[:5]] + [("operator", 16, 4, 3)])
    CYCLIC_OPS = ("generator_matrix", "dual_skew_cyclic", "generating_idempotent")

    def setup(self, root):
        import orecodes
        from orecodes import codes, evalcodes, linearized

        self.codes, self.ev, self.lin = codes, evalcodes, linearized
        self.fields = {2 ** k: orecodes.GF(2, k) for k in (2, 3, 4)}
        self.rings = {s: orecodes.OreRing(self.fields[s], 1) for s in (8, 16)}

    def generate(self, seed, tiny):
        rng = random.Random(f"{self.name}/{seed}")
        self.ref = {s: RefOre(RefField(2, F.k, F.modulus), 1) for s, F in self.fields.items()}
        tasks = []
        pick = (lambda shapes: shapes[:: max(1, len(shapes) // 2)]) if tiny else (lambda shapes: shapes)
        for s in pick(self.MDS):
            tasks.append(Task("mds", "auto", (s[0], "remainder", self._support(rng, "remainder", *s[:2]), s[2])))
        for s in pick(self.MRD):
            tasks.append(Task("mrd", "auto", (s[0], "operator", self._support(rng, "operator", *s[:2]), s[2])))
        for metric, shapes in (("hamming", self.HAMMING), ("rank", self.RANK)):
            for kind, size, r, k in pick(shapes):
                tasks.append(Task(metric, "auto", (size, kind, self._support(rng, kind, size, r), k)))
        by_degree = {}
        for g in self._cyclic_divisors():
            by_degree.setdefault(len(g) - 1, []).append(g)
        # per op: the trivial divisors 1 and x^3 - 1, and three seeded divisors of
        # degree 1 and of degree 2, whose costs differ; a tiny cycle keeps one of
        # each nontrivial degree, for the complement/Bezout path the trivial ones skip
        per_degree = {1: 1, 2: 1} if tiny else {0: 1, 1: 3, 2: 3, 3: 1}
        for op in self.CYCLIC_OPS:
            for d, count in per_degree.items():
                for g in rng.sample(by_degree[d], count):
                    tasks.append(Task("cyclic", "auto", (op, g)))
        for size in ((4, 16) if tiny else (4, 8, 16) * 4):
            k = self.fields[size].k
            tasks.append(Task("dickson", "auto", (size, _rand_poly(rng, size, k - 1))))
        for size in ((4,) if tiny else (4, 8, 16)):
            tasks.append(Task("algebra", "auto", (size,)))
        rng.shuffle(tasks)
        return tasks

    def _support(self, rng, kind, size, r):
        """Seeded support that is P-independent (remainder) or F^sigma-independent
        (operator), so the MDS/MRD outcome is known in advance."""
        R = self.ref[size]
        for _ in range(10000):
            if kind == "remainder":
                pts = rng.sample(range(size), r)
                if rank(R.F, R.norm_rows(pts, r)) == r:
                    return pts
            else:
                pts = rng.sample(range(1, size), r)
                if binary_rank(pts) == r:
                    return pts
        raise RuntimeError(f"no {kind} support of size {r} in GF({size})")

    def _cyclic_divisors(self):
        """Monic right divisors of x^3 - 1 over GF(8)[x; phi], found with the oracle."""
        R = self.ref[8]
        f = R.sub([0, 0, 0, 1], [1])
        out = []
        for d in range(4):
            for tail in range(8 ** d):
                g = [(tail >> (3 * i)) & 7 for i in range(d)] + [1]
                if not R.right_divmod(f, g)[1]:
                    out.append(g)
        return out

    def prepare(self, t):
        if t.bound:
            return
        if t.kind == "cyclic":
            R8, F = self.rings[8], self.fields[8]
            f = R8.monomial(3) - R8.one
            t.bound = (R8, f, R8.poly([F.from_code(c) for c in t.args[1]]))
        elif t.kind == "dickson":
            F = self.fields[t.args[0]]
            t.bound = (F, [F.from_code(c) for c in t.args[1]])
        elif t.kind == "algebra":
            t.bound = (self.fields[t.args[0]],)
        else:
            size, _, pts, _ = t.args
            F = self.fields[size]
            t.bound = (self.rings[size], tuple(F.from_code(c) for c in pts))

    def run(self, t):
        k = t.kind
        if k == "cyclic":
            ring, f, g = t.bound
            code = self.codes.SkewCyclicCode(ring, f, g)
            return getattr(code, t.args[0])() if t.args[0] == "generator_matrix" else getattr(self.codes, t.args[0])(code)
        if k == "dickson":
            F, coeffs = t.bound
            g = self.lin.LinearizedPoly(F, coeffs)
            return self.lin.dickson_matrix(g), self.lin.dickson_identity_holds(g)
        if k == "algebra":
            return self.lin.matrix_algebra_check(t.bound[0])
        ring, pts = t.bound
        build = self.ev.remainder_code if t.args[1] == "remainder" else self.ev.operator_code
        code = build(ring, pts, t.args[3])
        if k in ("mds", "mrd"):
            return code, self.ev.certify(code, k.upper(), ring)
        return code, self.ev.min_distance(code, k, ring)

    def canon(self, t, out):
        k = t.kind
        if k == "cyclic":
            if t.args[0] == "generator_matrix":
                return [[v.code for v in row] for row in out.rows]
            return _codes(out.g if t.args[0] == "dual_skew_cyclic" else out)
        if k == "dickson":
            return [[v.code for v in row] for row in out[0].rows], out[1]
        if k == "algebra":
            return sorted(out.items())
        code, res = out
        G = [[v.code for v in row] for row in code.G.rows]
        if k in ("mds", "mrd"):
            return G, res.kind, res.holds, res.distance, res.bound, res.cross_checked
        return G, res

    def check(self, t, out):
        k = t.kind
        got = self.canon(t, out)
        if k == "cyclic":
            return self._check_cyclic(t.args, got)
        if k == "dickson":
            size, gs = t.args
            R, kk = self.ref[size], self.fields[size].k
            gs = gs + [0] * (kk - len(gs))
            want = [[R.F.frob(gs[(j - i) % kk], i) for j in range(kk)] for i in range(kk)]
            return got == (want, True)
        if k == "algebra":
            F = self.fields[t.args[0]]
            pairs = (F.size ** F.k) ** 2 if F.size ** F.k <= 256 else 256
            return out["all_ok"] is True and out["pairs_checked"] == pairs
        size, kind, pts, kk = t.args
        R = self.ref[size]
        rows = R.norm_rows(pts, kk) if kind == "remainder" else R.sigma_rows(pts, kk)
        bound = len(pts) - kk + 1
        if k in ("mds", "mrd"):
            # P-independent remainder supports are MDS, F^sigma-independent operator supports MRD
            return got == (rows, k.upper(), True, bound, bound, True)
        # MRD implies MDS; a remainder code holds the all-ones word, of rank 1
        return got == (rows, 1 if (k == "rank" and kind == "remainder") else bound)

    def _check_cyclic(self, args, got):
        op, g = args
        R = self.ref[8]
        f = R.sub([0, 0, 0, 1], [1])
        n = 3

        def rows_of(h):
            rows, cur = [], h
            for i in range(n - (len(h) - 1)):
                if i:
                    cur = R.right_divmod(R.x_times(cur), f)[1]
                rows.append(cur + [0] * (n - len(cur)))
            return rows

        if op == "generator_matrix":
            return got == rows_of(g)
        if op == "dual_skew_cyclic":
            dot = lambda u, v: _fold(R.F, [R.F.mul(a, b) for a, b in zip(u, v)])
            return (not R.right_divmod(f, got)[1] and got[-1] == 1 and len(got) - 1 == n - (len(g) - 1)
                    and all(dot(u, v) == 0 for u in rows_of(g) for v in rows_of(got)))
        # a generating idempotent: e^2 = e mod f and A*e = A*g, i.e. gcrd(e, f) = g
        return R.right_divmod(R.mul(got, got), f)[1] == R.right_divmod(got, f)[1] and R.gcrd(got, f) == g


def _fold(F, vals):
    acc = 0
    for v in vals:
        acc = F.add(acc, v)
    return acc


# -- pbw-geometry ------------------------------------------------------------------------

class PBWGeometry(Workload):
    """Sessions over the shipped skew PBW presentations."""

    name = "pbw-geometry"
    ALL = ("witten", "weyl1z", "qspace3", "qplane4", "qplane9")
    QC = ("qspace3", "qplane4", "qplane9")
    FINITE = ("qplane4", "qplane9")
    COEFFS = {"Q": ["1", "2", "-1", "1/2", "3", "-2"], "Q(i)": ["1", "i", "-i", "2", "1+i", "-1"]}
    POINTS_QI = ["0", "0", "1", "-1", "i", "2"]
    # tasks per presentation and cycle; root, vanishing and Nullstellensatz tasks
    # alternate warm/cold.  Counts are multiples of the size patterns in _inputs,
    # so both temperatures see every size; a cycle takes under 2 s, so a run
    # holds many cycles and every task many repeats
    PLAN = [("mul", ALL, 6), ("divide", ALL, 6), ("reduce_full", ALL, 6), ("groebner_left", ALL, 6),
            ("two_sided_closure", QC, 6), ("root_test", QC, 12), ("vanishing_set", QC, 8),
            ("normality_test", QC, 6), ("center_basis", QC, 3), ("nullstellensatz_check", FINITE, 2)]
    COLD_KINDS = ("root_test", "vanishing_set", "nullstellensatz_check")

    def setup(self, root):
        from orecodes import spbw, spbwsets

        self.spbw, self.sets = spbw, spbwsets
        self.paths = {n: str(Path(root) / "presentations" / f"{n}.json") for n in self.ALL}
        self.session = {n: spbw.load_presentation(p) for n, p in self.paths.items()}

    def generate(self, seed, tiny):
        rng = random.Random(f"{self.name}/{seed}")
        # monomial supports come from a stream that is the same on every seed, since
        # they set a task's cost; the seed picks coefficients, points and order
        self.shapes = random.Random(f"{self.name}/shapes")
        self.qc = {n: self._qc(self.session[n]) for n in self.QC}
        tasks = []
        for kind, names, count in self.PLAN:
            for name in names:
                for i in range(1 if tiny else count):
                    # odd slots run cold; a tiny cycle has slot 0 only, so qplane4 runs cold there
                    tag = "cold" if kind in self.COLD_KINDS and (i % 2 == 1 or tiny and name == "qplane4") else "warm"
                    tasks.append(Task(kind, tag, (name,) + self._inputs(rng, kind, name, i)))
        rng.shuffle(tasks)
        return tasks

    def _qc(self, A):
        return QuasiCommutative(A.n, {ij: rel[0] for ij, rel in A.relations.items()}, A.domain.zero, A.domain.one)

    def _coeffs(self, name):
        dom = self.session[name].domain
        if dom.is_finite:
            return [dom.to_str(z) for z in dom.elements() if z]
        return self.COEFFS[dom.name]

    def _poly(self, rng, name, nterms, maxdeg, mindeg=0):
        n, coeffs = self.session[name].n, self._coeffs(name)
        terms = {}
        while len(terms) < nterms:
            alpha = [0] * n
            for _ in range(self.shapes.randint(mindeg, maxdeg)):
                alpha[self.shapes.randrange(n)] += 1
            terms[tuple(alpha)] = rng.choice(coeffs)
        return sorted(terms.items())

    def _point(self, rng, name):
        A = self.session[name]
        if A.domain.is_finite:
            return tuple(rng.choice(self._coeffs(name) + ["0"]) for _ in range(A.n))
        return tuple(rng.choice(self.POINTS_QI) for _ in range(A.n))

    def _inputs(self, rng, kind, name, i):
        """Inputs of the i-th task of this kind on this presentation; sizes that
        drive the cost (generator counts, degrees, supports) follow i and the
        shape stream, not the seed."""
        P = lambda nt, md, lo=0: self._poly(rng, name, nt, md, lo)
        if kind == "mul":
            return P(2 + i % 3, 3), P(2 + i // 3 % 2, 3)
        if kind in ("divide", "reduce_full"):
            return P(3 + i % 3, 4), [P(2, 2, 1) for _ in range(2 + i // 3 % 2)]
        if kind in ("groebner_left", "two_sided_closure"):
            return ([P(2, 2, 1), P(2, 2, 1)],)
        if kind == "root_test":
            return P(2 + i % 3, 3), self._point(rng, name)
        if kind == "vanishing_set":
            gens = [P(2, 2, 1) for _ in range(1 + i // 2 % 2)]
            pts = None if self.session[name].domain.is_finite else [self._point(rng, name) for _ in range(8)]
            return gens, pts
        if kind == "normality_test":
            return (P(1 + i % 2, 3, 1),)
        if kind == "center_basis":
            return (2 + i % 3,)
        return [P(2, 2, 1)], 2, 6, rng.randrange(1000)

    def begin_cycle(self):
        # warm tasks share one session per cycle, loaded afresh so that every cycle starts alike
        self.cycle_session = {n: self.spbw.load_presentation(p) for n, p in self.paths.items()}

    def prepare(self, t):
        name = t.args[0]
        A = self.cycle_session[name] if t.tag == "warm" else self.spbw.load_presentation(self.paths[name])
        poly = lambda terms: A.poly({a: A.domain.parse(c) for a, c in terms})
        point = lambda Z: tuple(A.domain.parse(c) for c in Z)
        a = t.args[1:]
        k = t.kind
        if k == "mul":
            t.bound = (A, poly(a[0]), poly(a[1]))
        elif k in ("divide", "reduce_full"):
            t.bound = (A, poly(a[0]), [poly(d) for d in a[1]])
        elif k in ("groebner_left", "two_sided_closure"):
            t.bound = (A, [poly(g) for g in a[0]])
        elif k == "root_test":
            t.bound = (A, poly(a[0]), point(a[1]))
        elif k == "vanishing_set":
            t.bound = (A, [poly(g) for g in a[0]], None if a[1] is None else [point(Z) for Z in a[1]])
        elif k == "normality_test":
            t.bound = (A, poly(a[0]))
        elif k == "center_basis":
            t.bound = (A, a[0])
        else:
            t.bound = (A, [poly(g) for g in a[0]]) + tuple(a[1:])

    def done(self, t):
        t.bound = ()  # a cold presentation and its caches die with the task

    def run(self, t):
        A, *a = t.bound
        k = t.kind
        if k == "mul":
            return a[0] * a[1]
        if k in ("divide", "reduce_full", "groebner_left", "two_sided_closure"):
            return getattr(self.spbw, k)(*a)
        if k == "nullstellensatz_check":
            return self.sets.nullstellensatz_check(a[0], degree=a[1], sample_budget=a[2], seed=a[3])
        if k == "center_basis":
            return self.sets.center_basis(A, a[0])
        return getattr(self.sets, k)(*a)

    def canon(self, t, out):
        A, k, s = t.bound[0], t.kind, self.spbw.pbw_str
        if k == "divide":
            return [s(q) for q in out.quotients], s(out.remainder)
        if k == "groebner_left":
            return [s(g) for g in out.basis], out.complete
        if k == "two_sided_closure":
            return [s(g) for g in out]
        if k == "vanishing_set":
            return [[A.domain.to_str(c) for c in Z] for Z in out]
        if k == "normality_test":
            return out.is_normal, [s(u) for u in out.left_movers or []], [s(v) for v in out.right_movers or []]
        if k == "center_basis":
            return [s(m) for m in out]
        if k == "nullstellensatz_check":
            return json.dumps(out, sort_keys=True, default=str)
        return out if k == "root_test" else s(out)

    def check(self, t, out):
        A, *a = t.bound
        S, k = self.spbw, t.kind
        qc = self.qc.get(t.args[0])
        if k == "mul":
            f, g = a
            if qc is None:
                total = A.zero
                for al, x in f.terms.items():
                    total = total + A.monomial(al, x) * g
                return out == total and out.lm() == tuple(p + q for p, q in zip(f.lm(), g.lm()))
            want = {}
            for al, x in f.terms.items():
                for be, y in g.terms.items():
                    key = tuple(p + q for p, q in zip(al, be))
                    want[key] = want.get(key, A.domain.zero) + x * y * qc.swap_factor(al, be)
            return out == A.poly(want)
        if k == "divide":
            f, divs = a
            recon = out.remainder
            for q, d in zip(out.quotients, divs):
                recon = recon + q * d
            return recon == f
        if k == "reduce_full":
            f, divs = a
            lms = [d.lm() for d in divs]
            irreducible = not any(all(x <= y for x, y in zip(lm, beta)) for lm in lms for beta in out.terms)
            return irreducible and not S.reduce_full(f - out, divs)
        if k == "groebner_left":
            return (out.complete and all(g.lc() == A.domain.one for g in out.basis)
                    and all(not S.reduce_full(g, out.basis) for g in a[0]))
        if k == "two_sided_closure":
            return all(not S.reduce_full(g, out) for g in a[0]) and all(
                not S.reduce_full(g * A.var(v), out) for g in out for v in range(A.n))
        if k == "root_test":
            return out == qc.is_root(a[0].terms, a[1])
        if k == "vanishing_set":
            gens, pts = a
            pts = list(itertools.product(A.domain.elements(), repeat=A.n)) if pts is None else pts
            return [tuple(Z) for Z in out] == [Z for Z in pts if all(qc.is_root(g.terms, Z) for g in gens)]
        if k == "normality_test":
            f = a[0]
            if out.is_normal:
                return all(f * u == A.var(i) * f and v * f == f * A.var(i)
                           for i, (u, v) in enumerate(zip(out.left_movers, out.right_movers)))
            return not qc.movers_exist(list(f.terms))
        if k == "center_basis":
            monos = sorted(_exponents(A.n, a[0]), key=lambda al: (sum(al), al))
            return [next(iter(m.terms)) for m in out] == [al for al in monos if qc.is_central(al)]
        points = itertools.product(A.domain.elements(), repeat=A.n)
        variety = [Z for Z in points if all(qc.is_root(g.terms, Z) for g in a[0])]
        # the center side may be reported as not exercised (holds None), never as failed
        return (out["radical_side"]["holds"] is True and out["center_side"].get("holds") in (True, None)
                and out["variety_size"] == len(variety))


def _exponents(n, degree):
    if n == 0:
        yield ()
        return
    for e in range(degree + 1):
        for rest in _exponents(n - 1, degree - e):
            yield (e,) + rest


# -- cli-cold ------------------------------------------------------------------------------

README_EXAMPLES = [
    ["field", "info", "GF(4)"],
    ["poly", "mul", "--field", "GF(4)", "--sigma", "1", "--a", "x^2+w*x+w", "--b", "x+w"],
    ["poly", "factor", "--field", "GF(4)", "--sigma", "1", "--g", "x^2+1"],
    ["algset", "minpoly", "--field", "GF(4)", "--sigma", "1", "--points", "1,w,w^2"],
    ["codes", "build", "--field", "GF(4)", "--sigma", "1", "--modulus", "x^2+1", "--divisor", "x+1", "--emit", "G,H,dual"],
    ["evalcodes", "certify", "--kind", "MDS", "--field", "GF(8)", "--sigma", "1", "--support", "1,g,g^2", "--k", "2"],
    ["linearized", "dickson", "--field", "GF(4)", "--poly", "y^2"],
    ["spbw", "divide", "--presentation", "presentations/witten.json", "--f", "x^2*y+x*z+y*z", "--by", "x-1,y+2,z+3"],
    ["spbwsets", "roots", "--presentation", "presentations/qplane9.json", "--f", "x*y", "--point", "0,0"],
    ["spbwsets", "nullstellensatz", "--presentation", "presentations/qplane9.json", "--gens", "x^2-1,y", "--seed", "5"],
]
FIELD_INFOS = [["field", "info", f"GF({f})"] for f in ("2^12", "2^14", "3^8", "5^6")]
# (argv, documented exit code): a domain error (3) or a guard (4), each with a JSON error object
TYPED_ERRORS = [
    (["field", "info", "GF(2^17)"], 3),
    (["field", "info", "GF(3^11)"], 4),
    (["poly", "divmod", "--field", "GF(4)", "--sigma", "1", "--a", "x^2+1", "--b", "0"], 3),
]


class CliCold(Workload):
    """Fresh `python -m orecodes ... --format json` processes, one at a time."""

    name = "cli-cold"
    # a cycle is the 17 named calls; every process is a sample, so a run repeats
    # the cycle until it holds at least 100 of them
    every_run_a_sample = True
    in_process_runs = False  # the traced run calls cli.main in-process instead

    def setup(self, root):
        self.root = Path(root)
        self.env = child_env(root)
        self.peak_rss_kb = 0

    def generate(self, seed, tiny):
        """The named calls in a seeded order; their arguments are fixed."""
        rng = random.Random(f"{self.name}/{seed}")
        calls = [(a, 0) for a in README_EXAMPLES + FIELD_INFOS] + TYPED_ERRORS
        if tiny:
            calls = [calls[2], calls[8], calls[10], calls[-2]]
        tasks = [Task("cli", "cli", (tuple(a) + ("--format", "json"), code)) for a, code in calls]
        rng.shuffle(tasks)
        self._expected = self._reference_outputs([t.args[0] for t in tasks])
        return tasks

    def _reference_outputs(self, argvs):
        """cli.main(argv) for every argv, in a helper process: this process only
        spawns the timed children, and a child's peak RSS counts its parent's
        at the time of the fork."""
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", self.name, "--seed", "0",
                               "--mode", "in-process"], cwd=self.root, input=json.dumps(argvs),
                              capture_output=True, text=True, timeout=300, check=True)
        return {argv: tuple(out) for argv, out in zip(argvs, json.loads(proc.stdout))}

    def run(self, t):
        if self.in_process_runs:
            return self.in_process(t.args[0])
        proc = subprocess.Popen([sys.executable, "-m", "orecodes", *t.args[0]], cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)  # rusage of this child alone
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out

    def in_process(self, argv):
        """(exit code, stdout) of cli.main(argv) in this process, caches cleared
        first so that it does the work a fresh process does."""
        from orecodes import cli, gf

        for cached in (gf.GF, gf.basis_over_fixed_subfield, gf.fixed_field_coordinates):
            cached.cache_clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    def canon(self, t, out):
        return out

    def check(self, t, out):
        argv, want_code = t.args
        code, stdout = out
        lines = stdout.splitlines()
        try:
            obj = json.loads(lines[0]) if len(lines) == 1 else None
        except ValueError:
            obj = None
        return (code == want_code and isinstance(obj, dict) and ("error" in obj) == (want_code != 0)
                and out == self._expected[argv])


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root) / "src")
    env.pop("PYTHONOPTIMIZE", None)
    return env


WORKLOADS = {w.name: w for w in (SkewKernels, CodeCertify, PBWGeometry, CliCold)}
