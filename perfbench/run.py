"""The orecodes benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0   end-to-end metrics
    python3 perfbench/run.py --workload NAME --seed N --trace 1               per-layer metrics
    python3 perfbench/run.py --self-test                                      tiny runs of every workload
    python3 perfbench/run.py --write-reference                                refresh reference.json

Run from the root of a checkout; the program is imported from its src/.  The
--workload modes print a report and, as the last line, one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS, WRAPPED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("skew-kernels", "code-certify", "pbw-geometry", "cli-cold")
DEFAULT_SEED = 1
SETUP_SAMPLES = 9  # setup_s is the median over this many fresh processes
DEADLINE_S = 170  # a run must end within 180 s
MACHINE_NOTE = ("wall time on the shared 2-core host where this benchmark was defined varied by "
                "about 15% between identical runs (4.6-5.4 s over six runs of one loop)")
E2E_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms", "task_p90_ms": "ms",
             "peak_rss_mb": "MB", "failed_frac": "ratio"}


class BenchError(Exception):
    pass


def unit_of(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if "hit_ratio" in name or name == "trace.overhead":
        return "ratio"
    return "count"


def worker(workload, seed, mode, deadline, seconds=0.0, tiny=False, trace_out=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds)]
    if tiny:
        cmd.append("--tiny")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before the next worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload, seed, seconds, deadline, tiny=False):
    # set-up samples before and after the run, so that they see more of the host's load
    setup = lambda: worker(workload, seed, "setup", deadline)["setup_s"]
    setups = [setup() for _ in range(SETUP_SAMPLES // 2)]
    res = worker(workload, seed, "run", deadline, seconds, tiny)
    setups += [res["setup_s"]] + [setup() for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)]
    res["metrics"] = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": res["tasks_per_s"],
        "task_p50_ms": res["task_p50_ms"],
        "task_p90_ms": res["task_p90_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
        "failed_frac": res["failed"] / res["attempted"],
    }
    return res


def per_layer(workload, seed, deadline, tiny=False):
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    base = worker(workload, seed, "cycle", deadline, tiny=tiny)
    res = worker(workload, seed, "traced", deadline, tiny=tiny,
                 trace_out=out_dir / f"{workload}-seed{seed}{'-tiny' if tiny else ''}.spans.json")
    layer = res["layer"]
    layer["trace.overhead"] = res["busy_s"] / base["busy_s"]
    layer["cli.main_ms"] = base["busy_s"] / base["attempted"] * 1e3 if workload == "cli-cold" else 0.0
    res["metrics"] = dict(sorted(layer.items()))
    res["attempted"] += base["attempted"]
    res["failed"] += base["failed"]
    res["failures"] += base["failures"]
    res["digests_agree"] = res["result_digest"] == base["result_digest"]
    res["shares"] = shares(workload, layer, res["busy_s"] * 1e3, res["cycle_len"])
    return res


def shares(workload, m, busy_ms, tasks):
    """Where the traced busy time went (for cli-cold: where a process's time went)."""
    if workload == "cli-cold":
        proc, build = m["cli.process_ms"], m["gf.build.ms"] / tasks
        return {"interpreter": m["cli.interpreter_ms"] / proc, "import": m["cli.import_ms"] / proc,
                "gf.build": build / proc, "rest of main": (m["cli.main_ms"] - build) / proc}
    out = {layer: m[f"{layer}.self_ms"] / busy_ms for layer in LAYERS}
    out["gf.build"] = m["gf.build.ms"] / busy_ms
    out["benchmark harness and unwrapped calls"] = 1 - sum(out.values())
    return out


def context(workload, seed, res):
    sources = sorted((ROOT / "src" / "orecodes").glob("*.py"))
    h = hashlib.sha256()
    for p in sources:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": h.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "optimize_flag": sys.flags.optimize,
        "program": res.get("program"),
        "tasks_per_cycle": res["cycle_len"],
        "cycles": res["cycles"],
        "cycle_busy_s": [round(b, 3) for b in res["cycle_busy_s"]],
        "host_factor": round(res["host_factor"], 3),
        "samples": res["samples"],
        "beyond_p90": res["beyond_p90"],
        "max_task_ms": round(res["max_task_ms"], 3),
        "busy_s": round(res["busy_s"], 3),
        "result_digest": res["result_digest"],
        "machine_note": MACHINE_NOTE,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(res, ctx, trace):
    print(f"orecodes benchmark: {ctx['workload']}, seed {ctx['seed']}, {'traced' if trace else 'untraced'}")
    print("context " + json.dumps(ctx, sort_keys=True))
    units = {k: unit_of(k) for k in res["metrics"]} if trace else E2E_UNITS
    for name, value in res["metrics"].items():
        print(f"  {name:48s} {value:16.6f} {units[name]}")
    if trace:
        print("  shares of traced busy time: " + ", ".join(f"{k} {v:.3f}" for k, v in res["shares"].items()))
    else:
        print(f"  (task_p90_ms over {ctx['samples']} samples, {ctx['beyond_p90']} beyond it)")
    for f in res["failures"]:
        print(f"  FAILED {f}", file=sys.stderr)


def result_line(res, trace):
    metrics = dict(res["metrics"])
    if trace:
        units = {k: unit_of(k) for k in metrics}
    else:
        metrics.pop("failed_frac")  # zero when correct; the line carries attempted and failed
        units = E2E_UNITS
    correct = res["failed"] == 0 and res["result_digest"] is not None and res.get("digests_agree", True)
    return json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def self_test(seed):
    """Tiny runs of every workload; returns a list of problems (empty when all pass)."""
    problems = []
    for w in WORKLOADS:
        deadline = time.monotonic() + DEADLINE_S
        run = end_to_end(w, seed, 0.2, deadline, tiny=True)
        if set(run["metrics"]) != set(E2E_UNITS) or run["metrics"]["failed_frac"] != 0:
            problems.append(f"{w}: end-to-end metrics {run['metrics']}")
        a, b = (per_layer(w, seed, deadline, tiny=True) for _ in range(2))
        if any(r["failed"] for r in (run, a, b)):
            problems.append(f"{w}: failures {run['failures'] + a['failures'] + b['failures']}")
        if not (run["result_digest"] == a["result_digest"] == b["result_digest"] and a["digests_agree"]):
            problems.append(f"{w}: result digests differ between runs")
        counts = {k for k in a["metrics"] if unit_of(k) == "count"}
        diff = [k for k in counts if a["metrics"][k] != b["metrics"][k]]
        if diff or a["fn_calls"] != b["fn_calls"]:
            problems.append(f"{w}: traced counts differ between runs: {diff}")
        missing = [f"{m}.{attr}" for m, attr, _, expected in WRAPPED
                   if expected == w and not a["fn_calls"].get(f"{m}.{attr}")]
        if missing:
            problems.append(f"{w}: wrapped functions never called: {missing}")
        if a["task_residual_ms"] > 1e-6:
            problems.append(f"{w}: self times miss task wall time by {a['task_residual_ms']} ms")
        if a["span_problems"]:
            problems.append(f"{w}: malformed spans: {a['span_problems']}")
        print(f"self-test {w}: {len(problems)} problem(s) so far; digest {a['result_digest'][:16]}, "
              f"{a['spans']} spans, overhead {a['metrics']['trace.overhead']:.2f}")
    return problems


def write_reference(seed):
    ref_path = HERE / "reference.json"
    ref_path.write_text("{}\n", encoding="utf-8")
    ref = {}
    for w in WORKLOADS:
        res = worker(w, seed, "cycle", time.monotonic() + DEADLINE_S)
        if res["failed"] or res["result_digest"] is None:
            raise BenchError(f"{w}: outputs failed their checks: {res['failures']}")
        ref[w] = {"seed": seed, "result_digest": res["result_digest"], "task_digests": res["task_digests"]}
    ref_path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None):
    p = argparse.ArgumentParser(description="orecodes benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=16.0, help="busy time that one run measures")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: the program's asserts are its certificates", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "orecodes" / "__init__.py").is_file():
        print(f"no orecodes sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            problems = self_test(args.seed)
            for prob in problems:
                print(f"PROBLEM {prob}", file=sys.stderr)
            return 1 if problems else 0
        if args.write_reference:
            write_reference(args.seed)
            return 0
        if not args.workload:
            p.error("--workload is required")
        deadline = time.monotonic() + DEADLINE_S
        if args.trace:
            res = per_layer(args.workload, args.seed, deadline)
        else:
            res = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(res, context(args.workload, args.seed, res), args.trace)
    print(result_line(res, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
