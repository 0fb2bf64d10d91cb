"""Spans and counters recorded from the benchmark's own files.

`install` wraps the public functions and methods listed in WRAPPED and
rebinds every module-level name that refers to them (``algset`` imports
``right_eval`` by name, ``spbwsets`` imports ``reduce_full`` by name, and so
on), so calls made inside the program are seen too.  A span holds its name,
start, end, parent span and task id; spans stay in memory until the run ends.
Finite-field operations are counted, not spanned.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, metric group, workload expected to call it; None when
# no workload does today and the wrapper only makes a future caller visible)
WRAPPED = [
    ("gf", "FiniteField.__init__", "gf.build", "cli-cold"),
    ("skewpoly", "SkewPoly.__mul__", "skewpoly.mul", "skew-kernels"),
    ("skewpoly", "SkewPoly.right_divmod", "skewpoly.divmod", "skew-kernels"),
    ("skewpoly", "SkewPoly.left_divmod", "skewpoly.divmod", "skew-kernels"),
    ("skewpoly", "gcrd_bezout", "skewpoly.gcrd_lclm", "skew-kernels"),
    ("skewpoly", "lclm", "skewpoly.gcrd_lclm", "skew-kernels"),
    ("skewpoly", "lclm_list", "skewpoly.gcrd_lclm", "skew-kernels"),
    ("skewpoly", "right_eval", "skewpoly.eval", "skew-kernels"),
    ("skewpoly", "norm", "skewpoly.eval", None),
    ("skewpoly", "operator_eval", "skewpoly.eval", None),
    ("skewpoly", "two_sided_test", "skewpoly.other", "code-certify"),
    ("skewpoly", "factor_irreducible", "skewpoly.other", "cli-cold"),
    ("algset", "vanishing_set", "algset.vanishing_set", "skew-kernels"),
    ("algset", "minimal_polynomial", "algset.minimal_polynomial", "skew-kernels"),
    ("algset", "rank_of_set", "algset.other", None),
    ("algset", "vandermonde", "algset.matrices", "code-certify"),
    ("algset", "wronskian", "algset.matrices", "code-certify"),
    ("codes", "LinearCode.words", "codes.words", "code-certify"),
    ("codes", "LinearCode.__init__", "codes.other", "code-certify"),
    ("codes", "LinearCode.dual", "codes.other", "code-certify"),
    ("codes", "SkewCyclicCode.__init__", "codes.skew_cyclic", "code-certify"),
    ("codes", "SkewCyclicCode.generator_matrix", "codes.skew_cyclic", "code-certify"),
    ("codes", "generating_idempotent", "codes.skew_cyclic", "code-certify"),
    ("codes", "dual_skew_cyclic", "codes.skew_cyclic", "code-certify"),
    ("codes", "complement_divisor", "codes.skew_cyclic", "code-certify"),
    ("codes", "bezout_idempotent", "codes.skew_cyclic", "code-certify"),
    ("codes", "idempotent_to_generator", "codes.skew_cyclic", "code-certify"),
    ("codes", "theta", "codes.skew_cyclic", "code-certify"),
    ("evalcodes", "remainder_code", "evalcodes.build", "code-certify"),
    ("evalcodes", "operator_code", "evalcodes.build", "code-certify"),
    ("evalcodes", "min_distance", "evalcodes.min_distance", "code-certify"),
    ("evalcodes", "rank_of_word", "evalcodes.rank_of_word", "code-certify"),
    ("evalcodes", "certify", "evalcodes.certify", "code-certify"),
    ("linalg", "Matrix.rref", "linalg", "code-certify"),
    ("linalg", "Matrix.rank", "linalg", "code-certify"),
    ("linalg", "Matrix.kernel", "linalg", "code-certify"),
    ("linalg", "Matrix.solve", "linalg", "pbw-geometry"),
    ("linalg", "Matrix.inverse", "linalg", None),
    ("linalg", "Matrix.det", "linalg", None),
    ("linearized", "to_linearized", "linearized", "code-certify"),
    ("linearized", "moore_matrix", "linearized", "code-certify"),
    ("linearized", "eval_matrix", "linearized", "code-certify"),
    ("linearized", "dickson_matrix", "linearized", "code-certify"),
    ("linearized", "dickson_identity_holds", "linearized", "code-certify"),
    ("linearized", "matrix_algebra_check", "linearized", "code-certify"),
    ("spbw", "PBWPoly.__mul__", "spbw.mul", "pbw-geometry"),
    ("spbw", "PBWPresentation.mul_terms", "spbw.mul", "pbw-geometry"),
    ("spbw", "divide", "spbw.divide", "pbw-geometry"),
    ("spbw", "reduce_full", "spbw.reduce_full", "pbw-geometry"),
    ("spbw", "groebner_left", "spbw.groebner_left", "pbw-geometry"),
    ("spbw", "two_sided_closure", "spbw.two_sided_closure", "pbw-geometry"),
    ("spbw", "load_presentation", "spbw.other", "cli-cold"),
    ("spbw", "parse_pbw", "spbw.other", "cli-cold"),
    ("spbwsets", "point_closure", "spbwsets.point_closure", "pbw-geometry"),
    ("spbwsets", "root_test", "spbwsets.root_test", "pbw-geometry"),
    ("spbwsets", "vanishing_set", "spbwsets.vanishing_set", "pbw-geometry"),
    ("spbwsets", "normality_test", "spbwsets.other", "pbw-geometry"),
    ("spbwsets", "center_basis", "spbwsets.other", "pbw-geometry"),
    ("spbwsets", "nullstellensatz_check", "spbwsets.nullstellensatz_check", "pbw-geometry"),
    ("cli", "main", "cli.main", "cli-cold"),
]

FIELD_OPS = ("add_i", "sub_i", "neg_i", "mul_i", "inv_i", "pow_i", "frob_i")
# layers reported with a self time; gf is counted instead, and cli is timed per process
LAYERS = ("skewpoly", "algset", "codes", "evalcodes", "linalg", "linearized", "spbw", "spbwsets")

NAME, START, END, PARENT, TASK, CHILD, NOTE = range(7)


class Tracer:
    def __init__(self):
        self.on = False
        self.spans = []  # [name, start, end, parent, task, child time, note]
        self.stack = []
        self.task = None
        self.tags = {}  # task id -> tag (ring kind, cache temperature, ...)
        self.timed = {}  # task id -> the worker's own perf_counter delta of the task
        self.field_ops = 0
        self.words = 0

    def enter(self, name):
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.task, 0.0, None])
        self.stack.append(i)
        return i

    def exit(self, i):
        end = time.perf_counter()
        span = self.spans[i]
        span[END] = end
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += end - span[START]

    def begin_task(self, task_id, tag):
        self.task = task_id
        self.tags[task_id] = tag
        self.on = True
        return self.enter("task")

    def end_task(self, i, timed):
        self.exit(i)
        self.timed[self.task] = timed
        self.on = False
        self.task = None


def _call_wrapper(tracer, name, fn):
    note = (lambda res: len(res.basis)) if name == "spbw.groebner_left" else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        i = tracer.enter(name)
        try:
            res = fn(*args, **kwargs)
            if note is not None:
                tracer.spans[i][NOTE] = note(res)
            return res
        finally:
            tracer.exit(i)

    return traced


def _generator_wrapper(tracer, name, fn):
    """One span per resumption, so the consumer's work between yields is not
    charged to the generator."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            if not tracer.on:
                try:
                    item = next(it)
                except StopIteration:
                    return
            else:
                i = tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit(i)
                tracer.words += 1
            yield item

    return traced


def _counter(tracer, fn):
    @functools.wraps(fn)
    def counted(*args):
        if tracer.on:
            tracer.field_ops += 1
        return fn(*args)

    return counted


def install(tracer: Tracer) -> dict:
    """Wrap every WRAPPED target; returns {span name: group}."""
    mods = {m: importlib.import_module(f"orecodes.{m}") for m in {w[0] for w in WRAPPED}}
    groups = {}
    for mod, attr, group, _ in WRAPPED:
        owner_name, _, fname = attr.rpartition(".")
        owner = getattr(mods[mod], owner_name) if owner_name else mods[mod]
        orig = getattr(owner, fname)
        name = f"{mod}.{attr}"
        wrap = _generator_wrapper if attr == "LinearCode.words" else _call_wrapper
        new = wrap(tracer, name, orig)
        groups[name] = group
        if owner_name:
            setattr(owner, fname, new)
        else:
            _rebind(orig, new)
    field_cls = mods["gf"].FiniteField
    for op in FIELD_OPS:
        setattr(field_cls, op, _counter(tracer, getattr(field_cls, op)))
    return groups


def _rebind(orig, new):
    for name, mod in list(sys.modules.items()):
        if name == "orecodes" or name.startswith("orecodes."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)


def layer_metrics(tracer: Tracer, groups: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced cycle (times in ms), and the calls per
    wrapped function."""
    calls, self_ms = Counter(), defaultdict(float)
    fn_calls = Counter()
    by_tag = defaultdict(float)
    parent_of = Counter()  # (name, parent name) -> calls
    hits = defaultdict(lambda: [0, 0])  # tag -> [point_closure calls, misses]
    basis_len = 0
    spans = tracer.spans
    for s in spans:
        name = s[NAME]
        if name == "task":
            continue
        dur = s[END] - s[START]
        own = (dur - s[CHILD]) * 1e3
        group = groups[name]
        layer = group.split(".")[0]
        fn_calls[name] += 1
        calls[group] += 1
        self_ms[group] += own
        if group != layer:
            self_ms[layer] += own
        if layer == "skewpoly":
            by_tag[tracer.tags[s[TASK]]] += own
        pname = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        parent_of[(name, pname)] += 1
        if name == "spbwsets.point_closure":
            hits[tracer.tags[s[TASK]]][0] += 1
        if name == "spbw.two_sided_closure" and pname == "spbwsets.point_closure":
            hits[tracer.tags[spans[s[PARENT]][TASK]]][1] += 1
        if s[NOTE] is not None:
            basis_len += s[NOTE]
    def ratio(tags):
        c = sum(hits[t][0] for t in tags)
        m = sum(hits[t][1] for t in tags)
        return (c - m) / c if c else 0.0

    m = {
        "gf.build.calls": calls["gf.build"],
        "gf.build.ms": self_ms["gf.build"],
        "gf.field_ops": tracer.field_ops,
    }
    for g in ("skewpoly.mul", "skewpoly.divmod", "skewpoly.gcrd_lclm", "skewpoly.eval",
              "algset.vanishing_set", "algset.minimal_polynomial",
              "evalcodes.min_distance", "evalcodes.rank_of_word",
              "spbw.mul", "spbw.reduce_full", "spbw.divide", "spbw.groebner_left", "spbw.two_sided_closure",
              "spbwsets.root_test", "spbwsets.vanishing_set", "spbwsets.nullstellensatz_check"):
        m[f"{g}.calls"] = calls[g]
        m[f"{g}.self_ms"] = self_ms[g]
    m.update({
        "skewpoly.auto.self_ms": by_tag["auto"],
        "skewpoly.deriv.self_ms": by_tag["deriv"],
        "algset.matrices.self_ms": self_ms["algset.matrices"],
        "codes.words.count": tracer.words,
        "codes.words.self_ms": self_ms["codes.words"],
        "codes.skew_cyclic.self_ms": self_ms["codes.skew_cyclic"],
        "evalcodes.certify.self_ms": self_ms["evalcodes.certify"],
        "linalg.calls": calls["linalg"],
        "linearized.calls": calls["linearized"],
        "spbw.groebner_left.reductions": parent_of[("spbw.reduce_full", "spbw.groebner_left")],
        "spbw.groebner_left.basis_len": basis_len,
        "spbw.two_sided_closure.groebner_calls": parent_of[("spbw.groebner_left", "spbw.two_sided_closure")],
        "spbwsets.point_closure.calls": sum(h[0] for h in hits.values()),
        "spbwsets.point_closure.misses": sum(h[1] for h in hits.values()),
        "spbwsets.point_closure.hit_ratio": ratio(list(hits)),
        "spbwsets.point_closure.hit_ratio.warm": ratio(["warm"]),
        "spbwsets.point_closure.hit_ratio.cold": ratio(["cold"]),
    })
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_ms[layer]
    return m, dict(fn_calls)


def task_residuals(tracer: Tracer) -> float:
    """Largest |sum of self times - task wall time| over tasks, in ms."""
    total = defaultdict(float)
    wall = {}
    for s in tracer.spans:
        dur = s[END] - s[START]
        total[s[TASK]] += dur - s[CHILD]
        if s[NAME] == "task":
            wall[s[TASK]] = dur
    return max((abs(total[t] - w) * 1e3 for t, w in wall.items()), default=0.0)


def span_problems(tracer: Tracer) -> list:
    """Checks of the spans against their own timestamps: each ends after it
    starts; each links to the innermost span open when it started (spans are
    stored in start order), which belongs to the same task and encloses it;
    each task span encloses the worker's own untimed measure of the task; and
    each span's child time is the sum of its direct children's durations."""
    spans, problems, open_, child = tracer.spans, [], [], defaultdict(float)
    for i, s in enumerate(spans):
        while open_ and spans[open_[-1]][END] <= s[START]:
            open_.pop()
        want = open_[-1] if open_ else -1
        p = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if s[END] < s[START]:
            problems.append(f"span {i} ({s[NAME]}) ends before it starts")
        elif s[PARENT] != want:
            problems.append(f"span {i} ({s[NAME]}) links to parent {s[PARENT]}, not the enclosing span {want}")
        elif (p is None) != (s[NAME] == "task"):
            problems.append(f"span {i} ({s[NAME]}) is outside every task" if p is None else f"task span {i} has a parent")
        elif p is not None and not (s[END] <= p[END] and p[TASK] == s[TASK]):
            problems.append(f"span {i} ({s[NAME]}) is not inside its parent {s[PARENT]} ({p[NAME]})")
        elif p is None and s[END] - s[START] < tracer.timed.get(s[TASK], float("inf")):
            problems.append(f"task span {i} is shorter than the task it encloses")
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
        open_.append(i)
    problems += [f"span {i} ({s[NAME]}) child time {s[CHILD]} != {child[i]}"
                 for i, s in enumerate(spans) if abs(s[CHILD] - child[i]) > 1e-9]
    return problems[:5]


def dump(tracer: Tracer, path):
    """Write the spans as JSON: a name table and rows [name, start_us, end_us, parent, task]."""
    names = sorted({s[NAME] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = tracer.spans[0][START] if tracer.spans else 0.0
    rows = [
        [index[s[NAME]], round((s[START] - t0) * 1e6, 1), round((s[END] - t0) * 1e6, 1), s[PARENT], s[TASK]]
        for s in tracer.spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": names, "tags": tracer.tags, "columns": ["name", "start_us", "end_us", "parent", "task"], "spans": rows}, fh)
