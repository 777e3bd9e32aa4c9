"""Regenerate ``bench/goldens.json`` from the program as it is now.

Usage, from the repository root:

    python3 bench/goldens.py

Runs every deterministic operation of every workload once, and the first
``NORM_GOLDEN_PASSES`` norms passes of the default seed, in this process.
Each output must pass the workload's independent checks; every norm whose
support is within the oracle budget must also equal ``norm_oracle``.  If any
operation fails (other than the known CLI defects, which store nothing), the
file is left untouched and the command exits 1.  Review the diff of
``bench/goldens.json`` before committing it: a changed golden is a changed
program output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs src on the path)


def golden_ops(workdir: str, env: dict):
    seed = workloads.DEFAULT_SEED
    yield "bundles", workloads.bundles_ops(seed, 0, every_level=True)
    for index in range(workloads.NORM_GOLDEN_PASSES):
        yield "norms", workloads.norms_ops(seed, index)
    yield "averages", workloads.averages_ops(seed, 0)
    yield "cli", workloads.cli_ops(seed, 0, workdir, env)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "schreier_lab", "__init__.py")):
        print("run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    goldens: dict[str, dict[str, str]] = {w: {} for w in workloads.WORKLOADS}
    failures = []
    results = os.path.join(workloads.BENCH_DIR, "results")
    os.makedirs(results, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="goldens-", dir=results)
    try:
        with open(os.path.join(workdir, "vec.json"), "w") as fh:
            fh.write(workloads.CLI_VECTOR)
        for workload, ops in golden_ops(workdir, env):
            for op in ops:
                exc = value = None
                try:
                    value = op.call()
                except Exception as error:
                    exc = error
                status, reason, form = workloads.verdict(op, value, exc, None,
                                                         oracle=True)
                if status == "failed":
                    if not op.known_defect:
                        failures.append(f"{workload}: {op.name}: {reason}")
                    continue
                goldens[workload][op.name] = form
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        print("not written; failing operations:", *failures, sep="\n  ",
              file=sys.stderr)
        return 1
    with open(workloads.GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.GOLDENS_PATH}: "
          + ", ".join(f"{w} {len(g)}" for w, g in goldens.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
