"""One workload in one fresh, single-threaded process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--seconds S] [--tiny]

Modes:
  setup   time set-up only (import plus the GF/OreRing/load_presentation calls)
  run     set up, then run whole cycles until --seconds of busy time, at
          least two cycles and at least 100 samples; end-to-end figures
  cycle   one untraced cycle, the base of the tracing overhead
  traced  baseline probes, then one traced cycle; per-layer figures
  in-process  cli-cold's reference outputs: cli.main for each argv read from stdin

run.py starts these; a worker is not meant to be the entry point.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SAMPLES = 100  # so that ten samples lie beyond the 90th percentile
MIN_CYCLES = 2  # every task is visited at least twice
REPEAT_MAX = 8  # back-to-back runs of one task within a cycle, at most


def program_path() -> str:
    """Path of the imported orecodes, which must be the checkout's src/."""
    import orecodes

    path = Path(orecodes.__file__).resolve()
    if path != ROOT / "src" / "orecodes" / "__init__.py":
        raise SystemExit(f"orecodes resolved to {path}, not to this checkout's src/")
    return str(path.relative_to(ROOT))


def _calibration_loop():
    """Fixed pure-Python work of the program's kind: integer arithmetic, small
    dicts keyed by ints and by tuples built in a loop."""
    acc, table, terms = 0, {}, {}
    for i in range(2000):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    for i in range(300):
        key = tuple(x + y for x, y in zip((i % 5, i % 3, i % 7), (i % 2, i % 4, 1)))
        terms[key] = terms.get(key, 0) + i * 7 % 11
        if not terms[key]:
            del terms[key]
    return acc, len(terms)


class HostSpeed:
    """How much slower than its quiet speed the host runs right now.

    The shared host's speed swings by up to 2x over seconds to minutes, and
    CPU time swings with wall time, so neither shows the program alone.  Before
    each timed call the worker times a fixed pure-Python loop that touches no
    program code; `factor` is the median of the last WINDOW loop times over
    CAL_REF_S, the loop's time on the quiet host.  A time divided by the factor
    reads as on the quiet host."""

    CAL_REF_S = 0.65e-3  # best time of _calibration_loop over 20 s on the 2-core host of the README's figures
    WINDOW = 9

    def __init__(self):
        self.recent = []
        self.factors = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        _calibration_loop()
        self.recent = self.recent[1 - self.WINDOW:] + [time.perf_counter() - t0]
        factor = statistics.median(self.recent) / self.CAL_REF_S
        self.factors.append(factor)
        return factor

    def warm(self) -> float:
        """The factor after a full window of fresh samples."""
        for _ in range(self.WINDOW):
            factor = self.sample()
        return factor


def time_process(argv, reps=1, host=None):
    """Median wall time in seconds of a fresh interpreter running argv, divided
    by the host's factor when `host` is given."""
    env = child_env(ROOT)
    times = []
    for _ in range(reps):
        factor = host.warm() if host else 1.0
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
        times.append((time.perf_counter() - t0) / factor)
    return statistics.median(times)


def timed_setup(wl, host) -> float:
    """Set-up time in seconds, divided by the host's factor just before it."""
    if wl.name == "cli-cold":
        wl.setup(ROOT)
        return time_process(["-c", "import orecodes.cli"], host=host)
    factor = host.warm()
    t0 = time.perf_counter()
    wl.setup(ROOT)
    return (time.perf_counter() - t0) / factor


def load_reference(name, seed, tiny):
    if tiny:
        return None
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    entry = ref.get(name)
    return entry["task_digests"] if entry and entry["seed"] == seed else None


def run_cycles(wl, tasks, seconds, max_cycles=None, reference=None, tracer=None, min_runs=0, repeat_ms=0.0,
               host=None):
    """Closed loop with one caller: each task starts when the previous returns.
    Whole cycles run until `seconds` of busy time, at least MIN_CYCLES and at
    least `min_runs` completed tasks.  With `repeat_ms`, a task runs back to
    back until it has taken that long in the cycle, at most REPEAT_MAX times:
    a cheap task then gets enough runs for its median to be steady.
    With `host`, a task's recorded time is its wall time divided by the host's
    factor, sampled (untimed) before each visit; `busy` stays wall time.
    Outputs are checked between tasks, outside the timed region: cycle 0's
    first run by the workload's checks, later runs against its canonical output."""
    first = [None] * len(tasks)
    times = [[] for _ in tasks]
    cycle_busy = []
    failures = []
    attempted = failed = cycles = rss_kb = 0
    busy = 0.0
    while True:
        wl.begin_cycle()
        for idx, t in enumerate(tasks):
            wl.prepare(t)
            spent = 0.0
            factor = host.sample() if host else 1.0
            for rep in range(REPEAT_MAX if repeat_ms else 1):
                span = tracer.begin_task(idx, t.tag) if tracer else None
                t0 = time.perf_counter()
                try:
                    out, err = wl.run(t), None
                except Exception as exc:  # an unexpected exception is a failed task
                    out, err = None, exc
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.end_task(span, dt)
                times[idx].append(dt / factor)
                busy += dt
                spent += dt
                attempted += 1
                why = _verify(wl, t, out, err, first, idx, reference, cycles + rep)
                if why:
                    failed += 1
                    if len(failures) < 5:
                        failures.append(f"task {idx} ({t.kind}, {t.tag}): {why}")
                if spent * 1e3 >= repeat_ms:
                    break
            wl.done(t)
        cycles += 1
        cycle_busy.append(busy - sum(cycle_busy))
        if cycles == MIN_CYCLES:
            # the peak over a fixed amount of work, whatever the host's speed;
            # where memory grows with every cycle, more cycles would read higher
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if (max_cycles and cycles >= max_cycles) or (
                busy >= seconds and cycles >= MIN_CYCLES and attempted >= min_runs):
            break
    digests = first if all(first) else None
    return {
        "times": times,
        "busy_s": busy,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "cycles": cycles,
        "cycle_busy_s": cycle_busy,
        "host_factor": statistics.median(host.factors) if host else 1.0,
        "rss_kb": rss_kb,
        "cycle_len": len(tasks),
        "task_digests": digests,
        "result_digest": hashlib.sha256("".join(first).encode()).hexdigest() if digests else None,
    }


def _verify(wl, t, out, err, first, idx, reference, cycle):
    if err is not None:
        return f"raised {type(err).__name__}: {err}"
    try:
        h = hashlib.sha256(repr(wl.canon(t, out)).encode()).hexdigest()[:16]
        if cycle == 0:
            if not wl.check(t, out):
                return "output failed verification"
            first[idx] = h
            if reference is not None and reference[idx] != h:
                return "output differs from the reference for this seed"
        elif h != first[idx]:
            return "output differs from the same task's first cycle"
    except Exception as exc:  # a malformed output that the check cannot read
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def summarize(stats, every_run_a_sample=False):
    """A task's sample is the median of its times in the run (each divided by
    the host's factor in the run mode).  Where a cycle holds too few distinct
    tasks for that (cli-cold), every completed task is a sample."""
    per_task = stats.pop("times")
    if every_run_a_sample:
        samples = sorted(t for ts in per_task for t in ts)
    else:
        samples = sorted(statistics.median(ts) for ts in per_task)
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[-1] if len(samples) > 1 else samples[0]
    stats.update(
        tasks_per_s=len(samples) / sum(samples),
        task_p50_ms=statistics.median(samples) * 1e3,
        task_p90_ms=p90 * 1e3,
        samples=len(samples),
        beyond_p90=sum(1 for x in samples if x > p90),
        max_task_ms=samples[-1] * 1e3,
    )
    return stats


def probes(tiny):
    """ROADMAP baseline rows: fixed inputs, independent of --seed."""
    import orecodes
    from orecodes import algset, gf, skewpoly, spbw, spbwsets

    rng = random.Random("probes")
    F = orecodes.GF(2, 8)
    R = orecodes.OreRing(F, 1)
    s = 4 if tiny else 1

    def poly(d):
        return R.poly([F.element(rng.randrange(256)) for _ in range(d)] + [F.element(rng.randrange(1, 256))])

    def ms(fn, reps=3):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    a, d, m1, m2, v = poly(128 // s), poly(64 // s), poly(64 // s), poly(64 // s), poly(10 // s)
    qplane9 = str(ROOT / "presentations" / "qplane9.json")

    def variety():
        A = spbw.load_presentation(qplane9)
        spbwsets.vanishing_set([A.parse("x^2-1"), A.parse("y")])

    return {
        "skewpoly.probe.right_divmod_128_64_ms": ms(lambda: a.right_divmod(d)),
        "skewpoly.probe.mul_64_64_ms": ms(lambda: m1 * m2),
        "skewpoly.probe.lclm_64_ms": ms(lambda: skewpoly.lclm(m1, m2)),
        "algset.probe.vanishing_set_10_ms": ms(lambda: algset.vanishing_set(v)),
        "gf.probe.build_2_16_ms": ms(lambda: gf.FiniteField(2, 10 if tiny else 16), reps=1),
        "gf.probe.build_3_10_ms": ms(lambda: gf.FiniteField(3, 6 if tiny else 10), reps=1),
        "spbwsets.probe.qplane9_variety_ms": ms(variety),
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=["setup", "run", "cycle", "traced", "in-process"])
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--tiny", action="store_true", help="a few tasks per cycle, for the self-test")
    p.add_argument("--trace-out", help="where the traced mode writes its spans")
    args = p.parse_args(argv)
    if sys.flags.optimize:
        raise SystemExit("refusing to run under python -O: the program's asserts are its certificates")
    sys.path.insert(0, str(ROOT / "src"))

    wl = WORKLOADS[args.workload]()
    host = HostSpeed()
    if args.mode == "in-process":  # cli-cold's reference outputs, computed away from the timed children
        wl.setup(ROOT)
        print(json.dumps([wl.in_process(argv) for argv in json.load(sys.stdin)]))
        return
    setup_s = timed_setup(wl, host)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return
    out = {"setup_s": setup_s, "program": program_path()}
    tasks = wl.generate(args.seed, args.tiny)
    if len(tasks) < MIN_SAMPLES and not (args.tiny or wl.every_run_a_sample):
        raise SystemExit(f"{wl.name}: a cycle holds {len(tasks)} tasks, fewer than {MIN_SAMPLES}")
    reference = load_reference(wl.name, args.seed, args.tiny)
    cli = wl.name == "cli-cold"
    every_run = wl.every_run_a_sample
    if args.mode == "run":
        stats = run_cycles(wl, tasks, args.seconds, reference=reference,
                           min_runs=MIN_SAMPLES if every_run and not args.tiny else 0, repeat_ms=wl.repeat_ms,
                           host=host)
        worker_rss_kb = stats.pop("rss_kb")
        rss_kb = wl.peak_rss_kb if cli else worker_rss_kb
        out.update(summarize(stats, every_run), peak_rss_mb=rss_kb / 1024)
    elif args.mode == "cycle":
        if cli:
            wl.in_process_runs = True
        out.update(summarize(run_cycles(wl, tasks, 0, max_cycles=1, reference=reference), every_run))
    else:
        import tracing

        layer = probes(args.tiny)
        layer["cli.interpreter_ms"] = time_process(["-c", "pass"], reps=5) * 1e3
        layer["cli.import_ms"] = time_process(["-c", "import orecodes.cli"], reps=5) * 1e3 - layer["cli.interpreter_ms"]
        layer["cli.process_ms"] = 0.0
        if cli:
            procs = run_cycles(wl, tasks, 0, max_cycles=1)
            layer["cli.process_ms"] = procs["busy_s"] / procs["attempted"] * 1e3
            wl.in_process_runs = True
        tracer = tracing.Tracer()
        groups = tracing.install(tracer)
        stats = summarize(run_cycles(wl, tasks, 0, max_cycles=1, reference=reference, tracer=tracer), every_run)
        metrics, fn_calls = tracing.layer_metrics(tracer, groups)
        layer.update(metrics)
        out.update(stats, layer=layer, fn_calls=fn_calls, task_residual_ms=tracing.task_residuals(tracer),
                   span_problems=tracing.span_problems(tracer), spans=len(tracer.spans))
        if args.trace_out:
            tracing.dump(tracer, args.trace_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
