"""Run one pass of one workload in this (fresh) interpreter.

Usage: python3 bench/worker.py --workload W --seed S --pass K [--trace]
           [--oracle] [--spans PATH]

Prints one JSON line: the moment the first operation could be issued, each
operation's latency, the machine's speed around it, and its verdict, the
peak resident memory of the timed phase, digests of inputs and outputs and,
when traced, the per-layer summary.  Outputs are judged after the timed
phase, with tracing off.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CALIBRATE_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed right now.

    The median of three short runs, so that one preemption does not count.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--oracle", action="store_true",
                        help="also cross-check against the exhaustive oracles")
    parser.add_argument("--spans", help="append recorded spans to this file")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        # Before importing the workloads, so that their imported names are
        # the wrapped ones.
        tracing.install(tracer)
    import workloads

    workdir = None
    env = dict(os.environ)
    # CLI children run in a scratch directory, so the path must be absolute.
    env["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(p) for p in env.get("PYTHONPATH", "").split(os.pathsep) if p)
    child_trace_out = None
    if args.workload == "cli":
        results = os.path.join(BENCH_DIR, "results")
        os.makedirs(results, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="cli-", dir=results)
        with open(os.path.join(workdir, "vec.json"), "w") as fh:
            fh.write(workloads.CLI_VECTOR)
        if args.trace:
            child_trace_out = os.path.join(workdir, "trace.jsonl")
            env["BENCH_TRACE_OUT"] = child_trace_out
            if args.spans:
                env["BENCH_SPANS_OUT"] = args.spans
    try:
        ops = workloads.build_ops(args.workload, args.seed, args.pass_index,
                                  workdir=workdir or "", env=env, traced=args.trace)
        digest_in = workloads.inputs_digest(args.workload, ops, args.seed,
                                            args.pass_index)
        ready = time.perf_counter()

        # The machine's speed is sampled between operations, outside their
        # timing, so that each latency can be read at a reference speed.
        speeds = [calibrate()]
        sampled = time.perf_counter()
        outcomes = []
        if tracer is not None:
            tracer.active = True
        for op_id, op in enumerate(ops):
            if time.perf_counter() - sampled >= CALIBRATE_EVERY_S:
                speeds.append(calibrate())
                sampled = time.perf_counter()
            if tracer is not None:
                tracer.op_id = op_id
            exc = value = None
            start = time.perf_counter()
            try:
                value = op.call()
            except Exception as error:    # judged below, after the timed phase
                exc = error
            outcomes.append((time.perf_counter() - start, value, exc, len(speeds) - 1))
        if tracer is not None:
            tracer.active = False
        speeds.append(calibrate())

        rss = _peak_rss_mb(resource.RUSAGE_CHILDREN if args.workload == "cli"
                           else resource.RUSAGE_SELF)
        layers = absent = None
        if tracer is not None:
            state, absent = tracing.program_state()
            summaries = [tracer.summary()]
            if child_trace_out and os.path.exists(child_trace_out):
                with open(child_trace_out) as fh:
                    summaries += [json.loads(line) for line in fh if line.strip()]
            layers = tracing.merge(summaries)
            if args.workload != "cli":
                layers.update(state)
            if args.spans:
                tracer.write_spans(args.spans)

        goldens = workloads.load_goldens().get(args.workload, {})
        records = []
        digest_parts = []
        for op, (seconds, value, exc, sample) in zip(ops, outcomes):
            status, reason, form = workloads.verdict(op, value, exc, goldens,
                                                     oracle=args.oracle)
            size = op.size
            if op.size_of is not None and exc is None and status != "failed":
                size = op.size_of(value)
            records.append({"name": op.name, "group": op.group, "size": size,
                            "expect": op.expect, "seconds": seconds,
                            "speed_s": (speeds[sample] + speeds[sample + 1]) / 2,
                            "status": status, "reason": reason,
                            "known_defect": op.known_defect, "output": form})
            digest_parts.append(f"{op.name}\t{status}\t{form}")
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "pass": args.pass_index,
        "traced": args.trace, "ready": ready, "setup_speed_s": speeds[0],
        "rss_mb": rss, "inputs_digest": digest_in,
        "outputs_digest": workloads.sha256("\n".join(digest_parts)),
        "ops": records, "layers": layers, "absent": absent,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
