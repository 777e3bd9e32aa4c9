"""The schreier-lab benchmark.

Usage, from the repository root:

    python3 bench/run.py --workload {bundles,norms,averages,cli,all}
                         [--seed N] [--seconds S] [--trace 0|1]

A run repeats passes of one workload for about ``--seconds`` seconds.  Each
pass is a fresh ``bench/worker.py`` interpreter, so the program's
module-global caches start empty in every pass, as they do for every CLI call
and test process.  One client issues one operation at a time (closed loop).
Pass inputs are a pure function of the seed and the pass index.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes on the same inputs and prints the
per-layer metrics, the tracing overhead, and fails the correctness verdict if
a traced pass's outputs differ from the untraced pass's.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Every output is judged against the independent checks and
the stored goldens (``bench/goldens.json``); see ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bundles", "norms", "averages", "cli")
MIN_LATENCY_SAMPLES = 100     # op_p90_ms needs >= 10 samples beyond it
MAX_RUN_SECONDS = 150         # hard stop, whatever --seconds says
# worker.calibrate() takes this long at the reference speed; see NOTES.md.
REFERENCE_SPEED_S = 0.004

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_p90_ms": "ms", "refusal_p50_ms": "ms", "peak_rss_mb": "MB",
}
LAYERS = ("ordinal", "streams", "schreier", "averages", "vectors", "spaces",
          "quantities", "verify", "reports", "budget", "cli")
PER_LAYER = {f"{layer}.{kind}": unit for layer in LAYERS
             for kind, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))}
PER_LAYER.update({
    "schreier.member_cache_hits": "count", "schreier.member_cache_misses": "count",
    "schreier.member_cache_size": "count", "schreier.sets_enumerated": "count",
    "averages.entries_materialized": "count", "averages.entries_per_s": "1/s",
    "averages.extent_cache_size": "count", "averages.averages_cache_size": "count",
    "averages.nibcc_y_vectors": "count", "vectors.entries_out": "count",
    "spaces.schreier.busy_s": "s", "spaces.star.busy_s": "s",
    "spaces.baernstein.busy_s": "s", "spaces.norm_support_max": "count",
    "budget.refusals": "count", "budget.refusal_busy_s": "s",
    "cli.interp_start_s": "s", "cli.import_s": "s", "trace.overhead": "ratio",
})


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _root_env() -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "schreier_lab", "__init__.py")):
        raise BenchError("run from the repository root: src/schreier_lab is missing")
    if not os.path.isfile(os.path.join(BENCH_DIR, "goldens.json")):
        raise BenchError("bench/goldens.json is missing; see bench/NOTES.md")
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_pass(env: dict, workload: str, seed: int, index: int, *, trace=False,
             oracle=False, spans: str | None = None) -> dict:
    """Run one worker; returns its record with ``setup_s`` added."""
    command = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", workload, "--seed", str(seed), "--pass", str(index)]
    if trace:
        command.append("--trace")
    if oracle:
        command.append("--oracle")
    if spans:
        command += ["--spans", spans]
    start = time.perf_counter()
    proc = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=MAX_RUN_SECONDS)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker for {workload} pass {index} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    # time.perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes.
    record["setup_s"] = record["ready"] - start
    return record


def _median_time(env: dict, code: str, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_workload(env: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Repeat passes for about ``seconds``; returns the raw records."""
    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    spans = os.path.join(results_dir, f"spans-{workload}.jsonl") if trace else None
    if spans:
        open(spans, "w").close()
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        index = len(plain)
        begin = time.perf_counter()
        plain.append(run_pass(env, workload, seed, index, oracle=index == 0))
        if trace:
            traced.append(run_pass(env, workload, seed, index, trace=True,
                                   spans=spans))
        cycle = time.perf_counter() - begin
        elapsed = time.perf_counter() - started
        # Untraced runs need enough latency samples for op_p90_ms; traced
        # runs report no end-to-end metrics.
        min_passes = 1 if trace else max(
            3, math.ceil(MIN_LATENCY_SAMPLES / len(plain[0]["ops"])))
        if elapsed > MAX_RUN_SECONDS:
            break
        if len(plain) >= min_passes and elapsed + cycle > seconds:
            break
    return {"plain": plain, "traced": traced}


def hd_quantile(values, p: float) -> float:
    """Harrell–Davis estimate of the p-quantile of ``values``.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics.  The
    operations of a pass form a ladder of a few sizes, and a plain sample
    quantile jumps from one rung to the next when noise reorders two
    operations near it; this estimate moves smoothly instead.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8    # midpoint rule inside each order statistic's interval
    weights = []
    for i in range(n):
        weights.append(sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in ((i + (k + 0.5) / steps) / n for k in range(steps))))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _scale(speed_s: float, normalize: bool) -> float:
    return REFERENCE_SPEED_S / speed_s if normalize else 1.0


def latencies(p: dict, normalize: bool = True) -> list[float]:
    """A pass's operation latencies, read at the reference speed by default."""
    return [op["seconds"] * _scale(op["speed_s"], normalize) for op in p["ops"]]


def end_to_end(plain: list[dict], normalize: bool = True) -> tuple[dict, dict]:
    all_ops = [t for p in plain for t in latencies(p, normalize)]
    refusals = [t for p in plain
                for t, op in zip(latencies(p, normalize), p["ops"])
                if op["status"] == "refused"]
    walls = [sum(latencies(p, normalize)) for p in plain]
    values = {
        "setup_s": hd_quantile([p["setup_s"] * _scale(p["setup_speed_s"], normalize)
                                for p in plain], 0.5),
        "wall_s": hd_quantile(walls, 0.5),
        "ops_per_s": len(all_ops) / sum(walls),
        "op_p50_ms": 1000 * hd_quantile(all_ops, 0.5),
        "op_p90_ms": 1000 * hd_quantile(all_ops, 0.9),
        "refusal_p50_ms": 1000 * hd_quantile(refusals, 0.5) if refusals else 0.0,
        "peak_rss_mb": hd_quantile([p["rss_mb"] for p in plain], 0.5),
    }
    info = {"latency_samples": len(all_ops), "refusal_samples": len(refusals),
            "passes": len(plain)}
    return values, info


def per_layer(env: dict, plain: list[dict], traced: list[dict]) -> tuple[dict, list]:
    values = {}
    absent = sorted({name for p in traced for name in (p["absent"] or [])})
    for name in PER_LAYER:
        samples = [p["layers"].get(name, 0) for p in traced]
        values[name] = statistics.median(samples)
    rates = [p["layers"].get("averages.entries_materialized", 0)
             / p["layers"]["averages.busy_s"]
             for p in traced if p["layers"].get("averages.busy_s")]
    values["averages.entries_per_s"] = statistics.median(rates) if rates else 0.0
    bare = _median_time(env, "pass")
    values["cli.interp_start_s"] = bare
    values["cli.import_s"] = _median_time(env, "import schreier_lab.cli") - bare
    values["trace.overhead"] = (statistics.median(sum(latencies(p)) for p in traced)
                                / statistics.median(sum(latencies(p)) for p in plain))
    return values, absent


def growth_exponents(plain: list[dict]) -> dict:
    """Log-log slope of median latency against ladder size, per ladder.

    Informational: a slope near 1 is linear, near 2 quadratic, and a slope
    that keeps rising as the ladder extends is exponential.
    """
    ladders: dict[str, dict[float, list[float]]] = {}
    for p in plain:
        for seconds, op in zip(latencies(p), p["ops"]):
            if op["expect"] == "ok" and op["status"] == "ok" and op["group"] != "refuse":
                ladders.setdefault(op["group"], {}).setdefault(
                    float(op["size"]), []).append(seconds)
    out = {}
    for group, by_size in sorted(ladders.items()):
        points = [(math.log(size), math.log(statistics.median(times)))
                  for size, times in sorted(by_size.items())
                  if size > 0 and statistics.median(times) > 0]
        if len(points) < 3:
            continue
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        sxx = sum((x - mx) ** 2 for x, _ in points)
        slope = sum((x - mx) * (y - my) for x, y in points) / sxx
        out[group] = {"slope": round(slope, 3),
                      "sizes": [s for s in sorted(by_size)],
                      "median_ms": [round(1000 * statistics.median(by_size[s]), 4)
                                    for s in sorted(by_size)]}
    return out


def environment(env: dict, seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    proc = subprocess.run(
        [sys.executable, "-c",
         "from schreier_lab.budget import Budget; print(repr(Budget.from_env()))"],
        env=env, capture_output=True, text=True)
    budget = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": commit,
            "budget": budget, "seed": seed, "platform": platform.platform()}


def summarize(env: dict, workload: str, seed: int, trace: bool, raw: dict) -> dict:
    plain, traced = raw["plain"], raw["traced"]
    ops = [op for p in plain for op in p["ops"]]
    failures = [op for op in ops if op["status"] == "failed"]
    unexpected = sorted({op["name"] for op in failures if not op["known_defect"]})
    known = sorted({op["name"] for op in failures if op["known_defect"]})
    mismatched = [p["pass"] for p, q in zip(plain, traced)
                  if p["outputs_digest"] != q["outputs_digest"]]
    e2e, info = end_to_end(plain)
    summary = {
        "workload": workload, "env": environment(env, seed),
        "correct": not unexpected and not mismatched,
        "attempted": len(ops), "failed": len(failures),
        "failed_share": len(failures) / len(ops),
        "unexpected_failures": {name: next(op["reason"] for op in failures
                                           if op["name"] == name)
                                for name in unexpected},
        "known_defects": {name: next(op["known_defect"] for op in failures
                                     if op["name"] == name) for name in known},
        "trace_output_mismatch_passes": mismatched,
        "end_to_end": e2e, "samples": info,
        "end_to_end_raw": end_to_end(plain, normalize=False)[0],
        "speed_s": [p["setup_speed_s"] for p in plain],
        "growth": growth_exponents(plain),
        "pass_wall_s": [sum(latencies(p)) for p in plain],
    }
    if trace:
        layers, absent = per_layer(env, plain, traced)
        summary["per_layer"] = layers
        summary["absent_counters"] = absent
    return summary


def report(summary: dict, trace: bool) -> dict:
    """Print the human-readable block; return the metrics for the JSON line."""
    w = summary["workload"]
    env = summary["env"]
    print(f"== {w}: python {env['python']}, nproc {env['nproc']}, "
          f"commit {env['commit']}, seed {env['seed']}")
    print(f"   budget {env['budget']}")
    info = summary["samples"]
    print(f"   passes {info['passes']}, operations {summary['attempted']}, "
          f"failed {summary['failed']}, failed_share {summary['failed_share']:.4f}")
    for name, defect in summary["known_defects"].items():
        print(f"   known defect (counted as failed): {name} -- {defect}")
    for name, reason in summary["unexpected_failures"].items():
        print(f"   UNEXPECTED FAILURE: {name} -- {reason}")
    if summary["trace_output_mismatch_passes"]:
        print(f"   TRACED OUTPUTS DIFFER in passes "
              f"{summary['trace_output_mismatch_passes']}")
    if trace:
        metrics = summary["per_layer"]
        units = PER_LAYER
        if summary["absent_counters"]:
            print(f"   absent counters (reported as 0): "
                  f"{', '.join(summary['absent_counters'])}")
    else:
        metrics = summary["end_to_end"]
        units = END_TO_END
        print(f"   {'':34s} {'reference speed':>15s}  {'as timed here':>15s}")
    for name, value in metrics.items():
        extra = ""
        if not trace:
            extra = f" {summary['end_to_end_raw'][name]:15.6g}"
        if name == "op_p90_ms":
            extra += f"  (n={info['latency_samples']})"
        elif name == "refusal_p50_ms":
            extra += f"  (n={info['refusal_samples']})"
        print(f"   {name:34s} {value:15.6g} {units[name]:5s}{extra}")
    for group, fit in summary["growth"].items():
        print(f"   growth {group:24s} slope {fit['slope']:7.3f} over sizes "
              f"{fit['sizes']}")
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="schreier-lab benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trace = bool(args.trace)
    try:
        env = _root_env()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        summaries = []
        for name in names:
            raw = run_workload(env, name, args.seed, args.seconds, trace)
            summaries.append(summarize(env, name, args.seed, trace, raw))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    results_dir = os.path.join(BENCH_DIR, "results")
    metrics = {}
    for summary in summaries:
        shown = report(summary, trace)
        path = os.path.join(results_dir, f"{summary['workload']}-seed{args.seed}"
                                         f"-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
        if len(summaries) == 1:
            metrics = shown
        else:
            metrics.update({f"{summary['workload']}.{k}": v for k, v in shown.items()})
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
