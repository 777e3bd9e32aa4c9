"""Traced stand-in for ``python -m schreier_lab.cli``, used by traced cli passes.

Installs the same wrappers as in-process traced passes, then calls
``schreier_lab.cli.main`` with this process's arguments.  At exit it appends
its per-layer summary, with the program's own counters, as one JSON line to
``$BENCH_TRACE_OUT``, and its spans to ``$BENCH_SPANS_OUT`` when set.
Uncaught exceptions propagate as they would from the real entry point.
"""

from __future__ import annotations

import json
import os
import sys

import tracing


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from schreier_lab import cli

    sys.argv[0] = cli.__file__    # argparse names the program as ``-m`` would
    tracer.active = True
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.active = False
        summary = tracer.summary()
        state, _ = tracing.program_state()
        summary.update(state)
        with open(os.environ["BENCH_TRACE_OUT"], "a") as fh:
            fh.write(json.dumps(summary) + "\n")
        if os.environ.get("BENCH_SPANS_OUT"):
            tracer.write_spans(os.environ["BENCH_SPANS_OUT"])


if __name__ == "__main__":
    sys.exit(main())
