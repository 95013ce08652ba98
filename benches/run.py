#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of chaoscpg.

One workload per process:

    python3 benches/run.py --workload battery --seed 1 --seconds 30 --trace 0

prints, as its last stdout line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics and the tracing overhead with
`--trace 1`.  Without `--workload` (or with `--workload all`) every
workload runs in its own child process and a table is printed.
`--steadiness N` runs each workload N times with seeds seed .. seed+N-1
and prints every end-to-end metric's median and quartiles against its
bound in BENCHMARK.json.  `--seconds` defaults to `run_seconds` in
BENCHMARK.json, the run length the bounds were set on.

End-to-end times are given at the reference host speed: a fixed
reference kernel runs before every operation and before set-up, and each
time is scaled by REF_KERNEL_S over the kernel's time around it.  See
benches/README.md.
"""

import os

# each workload runs in one thread; keep numpy's BLAS pool from starting any
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np  # imported before the set-up clock starts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCH_FILE = ROOT / "BENCHMARK.json"
RUNS_DIR = ROOT / "bench_runs"
TRACES_DIR = ROOT / "bench_traces"
WORKLOAD_NAMES = ("battery", "sweep", "oscillate")

WARMUP_OPS = 2
WARMUP_SEED = 0         # fixed, so that set-up does the same work every run
SETUP_RUNS = 3          # set-ups per run; setup_s is their median
SETUP_PROBES = 3        # reference-kernel runs before and after each set-up
PROBE_WINDOW = 2        # an operation's scale uses the probes 2 either side
# The reference kernel's time on the reference machine in its fast regime
# (2-vCPU VM, Python 3.11.7, numpy 2.4.6); the host's speed there wanders
# by up to 2x over seconds to minutes, and the kernel wanders with it.
REF_KERNEL_S = 0.0025
RERUN_EVERY = 32        # untraced runs repeat every 32nd operation
TRACE_COUNT_OPS = 20    # traced counts come from the first 20 operations
SPAN_OPS = 1            # spans of the first traced operation are written
TIMED, WARMUP = 0, 1    # seed streams of the operation inputs


def fail(message: str) -> None:
    print(message, file=sys.stderr)
    raise SystemExit(2)


def load_workload(name: str):
    """Import chaoscpg from this checkout's src/ afresh, dropping any
    earlier import of it, and build the workload."""
    package = SRC / "chaoscpg"
    if not (package / "__init__.py").is_file():
        fail(f"no chaoscpg sources under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for loaded in [m for m in sys.modules
                   if m == "workloads" or m.split(".")[0] == "chaoscpg"]:
        del sys.modules[loaded]
    import workloads
    return workloads, workloads.WORKLOADS[name]()


def set_up(name: str, run_dir: Path):
    """Import, build the workload and run the warm-up operations,
    SETUP_RUNS times over, each with a fresh import.

    Returns (workloads module, workload, median seconds of one set-up at
    reference speed); the module and workload are the last set-up's.
    """
    out = run_dir / "warm-up"
    times = []
    for _ in range(SETUP_RUNS):
        probes = [reference_kernel() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        module, wl = load_workload(name)
        for i in range(WARMUP_OPS):
            wl.prepare(out)
            wl.run(wl.make_input(WARMUP_SEED, WARMUP, i), out)
        elapsed = time.perf_counter() - start
        probes += [reference_kernel() for _ in range(SETUP_PROBES)]
        times.append(elapsed * REF_KERNEL_S / statistics.median(probes))
    print(f"{name}: set-up seconds at reference speed {times}",
          file=sys.stderr)
    return module, wl, statistics.median(times)


def reference_kernel() -> float:
    """Seconds of a fixed loop of Python arithmetic and small numpy
    operations, the mix the workloads run; about 2.5 ms on a fast host.

    Its time measures the host's current speed.  The collector is off
    while it runs, so garbage an operation leaves behind cannot slow it.
    """
    gc.disable()
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    a = np.arange(64.0)
    for _ in range(300):
        a = np.sin(a) * 0.5 + a[::-1] * 0.25
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def scaled(latencies: list, probes: list) -> list:
    """Latencies at reference speed: each divided by the median probe of
    the 2 * PROBE_WINDOW + 1 operations around it, times REF_KERNEL_S."""
    out = []
    for k, latency in enumerate(latencies):
        near = probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 1]
        out.append(latency * REF_KERNEL_S / statistics.median(near))
    return out


def timed_op(wl, inp, out: Path):
    """Run one operation after a reference-kernel probe; returns
    (result or exception, seconds, probe seconds)."""
    wl.prepare(out)
    probe = reference_kernel()
    start = time.perf_counter()
    try:
        result = wl.run(inp, out)
    except Exception as exc:  # an operation that raises counts as failed
        result = exc
    return result, time.perf_counter() - start, probe


def judge(module, wl, index: int, inp, result):
    """Check one operation; an operation that raised fails its check."""
    if isinstance(result, Exception):
        text = "".join(traceback.format_exception(result)).rstrip()
        return module.Outcome([f"raised: {text}"])
    try:
        return wl.check(index, inp, result)
    except Exception:
        return module.Outcome([f"check raised: {traceback.format_exc()}"])


def report(name: str, index: int, problems) -> None:
    print(f"{name} op {index}: " + "; ".join(problems[:3]), file=sys.stderr)


def measure(module, wl, seed: int, seconds: float, run_dir: Path) -> dict:
    """Untraced timed phase: operations until `seconds` of operation time.
    Times of operations that failed still scale their neighbours."""
    latencies, probes, passed, work, busy = [], [], [], 0, 0.0
    attempted = failed = 0
    out, again = run_dir / "op", run_dir / "rerun"
    while busy < seconds:
        index = attempted
        inp = wl.make_input(seed, TIMED, index)
        result, elapsed, probe = timed_op(wl, inp, out)
        busy += elapsed
        latencies.append(elapsed)
        probes.append(probe)
        attempted += 1
        outcome = judge(module, wl, index, inp, result)
        if not outcome.problems and index % RERUN_EVERY == 0:
            repeat = timed_op(wl, inp, again)[0]
            if isinstance(repeat, Exception) or \
                    not wl.same_result(result, repeat):
                outcome.problems.append("rerun with the same seed differs")
        if outcome.problems:
            failed += 1
            report(wl.name, index, outcome.problems)
            continue
        passed.append(index)
        work += outcome.work
    if len(passed) < 2:
        fail(f"{wl.name}: {len(passed)} of {attempted} operations passed")
    at_ref = scaled(latencies, probes)
    print(f"{wl.name}: host at {REF_KERNEL_S / statistics.median(probes):.3f}"
          " of reference speed", file=sys.stderr)
    times = [at_ref[i] for i in passed]
    total = sum(at_ref)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            "ops_per_s": (len(times) / total, "1/s"),
            "work_per_s": (work / total, "1/s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        },
    }


# ---------------------------------------------------------------------------
# traced run


def _per(num: float, den: float) -> float:
    """num / den, or 0 for a layer that did no work on this workload."""
    return num / den if den else 0.0


def layer_metrics(timing, counted, facts, op_ns: int, n: int) -> dict:
    """Per-layer metrics; times from every traced operation, counts from
    the first n, so that counts repeat exactly for a seed."""
    def mean_us(name):
        return _per(timing.total_ns[name], timing.calls[name]) / 1e3

    calls, counts = counted.calls, counted.counts
    trials = counts["learner.trials"]
    skips = counts["learner.duplicate_skips"]
    return {
        "plant.window_us": (mean_us("plant.simulate_window"), "us"),
        "plant.windows": (calls["plant.simulate_window"] / n, "count"),
        "plant.share": (_per(timing.total_ns["plant.simulate_window"], op_ns),
                        "ratio"),
        "gait.rhythm_us": (mean_us("gait.motor_rhythm"), "us"),
        "gait.rhythm_calls": (_per(calls["gait.motor_rhythm"],
                                   calls["plant.simulate_window"]), "count"),
        "learner.self_us_per_trial": (
            _per(timing.self_ns["learner.learn"],
                 timing.counts["learner.trials"]) / 1e3, "us"),
        "learner.sessions": (calls["learner.learn"] / n, "count"),
        "learner.trials": (trials / n, "count"),
        "learner.duplicate_skips": (skips / n, "count"),
        "learner.useful_draw_ratio": (_per(trials, trials + skips), "ratio"),
        "cli.self_ms": (_per(timing.self_ns["cli.main"],
                             timing.calls["cli.main"]) / 1e6, "ms"),
        "cli.bytes_written": (facts["bytes_written"] / n, "B"),
        "scenarios.battery_ms": (mean_us("scenarios.battery") / 1e3, "ms"),
        "network.step_us": (mean_us("network.step"), "us"),
        "network.steps": (calls["network.step"] / n, "count"),
        "network.desync_clients": (facts["desync_clients"] / n, "count"),
        "core.advance_us": (mean_us("core.advance"), "us"),
        "core.advances": (calls["core.advance"] / n, "count"),
        "core.steps_to_lock": (_per(facts["lock_steps"],
                                    facts["client_locks"]), "count"),
        "core.orbit_searches": (_per(calls["core.find_orbit"],
                                     facts["locks"]), "count"),
        "core.orbit_search_us": (mean_us("core.find_orbit"), "us"),
        "core.unlocked": (facts["unlocked"] / n, "count"),
    }


def measure_traced(module, wl, seed: int, seconds: float,
                   run_dir: Path) -> dict:
    """Each input runs untraced and traced, in alternating order; the
    difference in operation time is the tracing overhead.  Any failed
    operation ends the run without a result."""
    from tracer import OpStats, Tracer

    tracer = Tracer()
    module.trace_boundaries(tracer)
    timing, counted, facts = OpStats(), OpStats(), Counter()
    op_ns = 0
    busy = {False: 0.0, True: 0.0}
    pairs = attempted = failed = 0
    outs = {False: run_dir / "plain", True: run_dir / "traced"}
    while busy[False] + busy[True] < seconds or pairs < TRACE_COUNT_OPS:
        inp = wl.make_input(seed, TIMED, pairs)
        results, problems = {}, []
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            if traced:
                tracer.begin(pairs, keep_spans=pairs < SPAN_OPS)
            try:
                result, elapsed, _ = timed_op(wl, inp, outs[traced])
            finally:
                stats = tracer.end() if traced else None
            busy[traced] += elapsed
            attempted += 1
            outcome = judge(module, wl, pairs, inp, result)
            results[traced] = result
            if outcome.problems:
                failed += 1
                problems += outcome.problems
            elif traced:
                timing.add(stats)
                op_ns += round(elapsed * 1e9)
                if pairs < TRACE_COUNT_OPS:
                    counted.add(stats)
                    facts.update(outcome.facts)
        if not problems and not wl.same_result(results[False], results[True]):
            problems.append("traced and untraced outputs differ")
            failed += 1
        if problems:
            report(wl.name, pairs, problems)
        pairs += 1
    if failed:
        fail(f"{wl.name}: {failed} of {attempted} traced operations failed")
    metrics = layer_metrics(timing, counted, facts, op_ns, TRACE_COUNT_OPS)
    metrics["trace.overhead_pct"] = (
        (1.0 - busy[False] / busy[True]) * 100.0, "%")
    tracer.write_spans(TRACES_DIR / f"{wl.name}-seed{seed}.jsonl",
                       {"workload": wl.name, "seed": seed,
                        "span_ops": SPAN_OPS, "pairs": pairs})
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# one workload in this process


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = RUNS_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink):   # the CLI's progress lines
            module, wl, setup_s = set_up(name, run_dir)
            if trace:
                return measure_traced(module, wl, seed, seconds, run_dir)
            result = measure(module, wl, seed, seconds, run_dir)
        result["metrics"]["setup_s"] = (setup_s, "s")
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def as_json(result: dict) -> str:
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in sorted(result["metrics"].items())}
    return json.dumps(dict(result, metrics=metrics))


# ---------------------------------------------------------------------------
# every workload, each in a child process


def child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload run in a child process; returns its last stdout line.
    Its wall time is about 1.2 x `seconds` plus set-up."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    argv = [sys.executable, str(Path(__file__).resolve()), *args]
    timeout = 2 * seconds + 60
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)}: no result within {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"{' '.join(args)}: exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_all(names, seed: int, seconds: float, trace: int) -> None:
    results = {}
    print(f"{'workload':<10} {'metric':<26} {'value':>12}  unit")
    for name in names:
        res = results[name] = child(name, seed, seconds, trace)
        for metric, m in res["metrics"].items():
            print(f"{name:<10} {metric:<26} {m['value']:>12.4f}  {m['unit']}")
        print(f"{name:<10} {'attempted / failed':<26} "
              f"{res['attempted']:>6} / {res['failed']}   "
              f"correct={res['correct']}")
    print(json.dumps(results))


def steadiness(names, seed: int, runs: int, seconds: float) -> None:
    """Spread of each end-to-end metric over `runs` seeds, against bounds."""
    bench = json.loads(BENCH_FILE.read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    print(f"{'workload':<10} {'metric':<12} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}")
    for name in names:
        results = [child(name, seed + k, seconds, 0) for k in range(runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        summary[name] = {"failed_shares": sorted(shares)}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            flag = "" if spread < bounds[metric] / 3 else "  above bound/3"
            print(f"{name:<10} {metric:<12} {statistics.median(values):>11.4f}"
                  f" {q1:>11.4f} {q3:>11.4f} {spread:>7.3f} "
                  f"{bounds[metric]:>6}{flag}")
            summary[name][metric] = values
        print(f"{name:<10} failed share: {sorted(shares)}")
    print(json.dumps(summary))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=json.loads(BENCH_FILE.read_text())["run_seconds"],
                    help="timed operation seconds per workload run "
                         "(default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, default=0, metavar="N",
                    help="run each workload N times and print the spread")
    args = ap.parse_args()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.steadiness:
        steadiness(names, args.seed, args.steadiness, args.seconds)
    elif args.workload == "all":
        run_all(names, args.seed, args.seconds, args.trace)
    else:
        print(as_json(run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))))


if __name__ == "__main__":
    main()
