"""The four benchmark workloads: their seeded inputs, operations and checks.

Every workload is a list of operations for one pass.  A pass runs in a
fresh interpreter (see ``worker.py``), so the module-global caches of the
program start empty, as they do for every CLI call and test process.  The
program receives only the inputs built here; the seed never reaches it.

- ``bundles``: the three verify bundles over a small (xi, N) ladder.  The
  only workload where ``quantities``/``verify`` dominate, and where one warm
  membership cache is reused across many enumerations of one family.
- ``norms``: ``norm`` on seeded random rational vectors over a support
  ladder.  Branch-and-bound in ``spaces`` and cold membership probes
  dominate; ``quantities`` and ``averages`` are not used.
- ``averages``: repeated averages, ``apply``, the block-combination checker
  and refusals along fast-growing streams.  Never touches membership or
  norms, so a ``schreier``/``spaces`` change should not move it.
- ``cli``: a fixed session of ``python -m schreier_lab.cli`` children, one
  at a time.  The only workload that pays interpreter start, import and
  argparse per operation, and the only one where refusals are most of the
  ``budget`` work.

Each workload also has operations that are expected to end in
``BudgetExceededError`` (CLI: exit 2 with a ``budget exceeded ... needs``
message), so every workload reports a refusal latency.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from schreier_lab.averages import (RepeatedAverages, apply, cesaro_reweight,
                                   check_nibcc, repeated_avg,
                                   successor_pair_prefix, support_size)
from schreier_lab.budget import Budget, BudgetExceededError
from schreier_lab.ordinal import parse as parse_ordinal
from schreier_lab.quantities import CanonicalBasis
from schreier_lab.schreier import is_member_oracle
from schreier_lab.spaces import NormSpec, norm, norm_oracle
from schreier_lab.streams import parse_stream
from schreier_lab.vectors import RatVec, format_fraction
from schreier_lab.verify import (verify_example_schreier, verify_example_star,
                                 verify_prop_formula)

WORKLOADS = ("bundles", "norms", "averages", "cli")
DEFAULT_SEED = 0
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(BENCH_DIR, "goldens.json")

# Norm passes of the default seed whose values and witnesses are stored.
NORM_GOLDEN_PASSES = 3


@dataclass
class Op:
    """One timed call into the program, with how to judge its result."""

    name: str                      # unique within a workload; the golden key
    group: str                     # the ladder it belongs to
    size: float                    # its position on that ladder
    call: Callable[[], object]
    expect: str = "ok"             # "ok", "refuse", or "reject" (CLI bad input)
    check: Callable[[object], str | None] | None = None
    oracle: Callable[[object], str | None] | None = None   # first pass only
    render: Callable[[object], str] = str
    golden: str = "text"           # stored as "text" or "sha256"
    golden_required: bool = True
    size_of: Callable[[object], float] | None = None
    known_defect: str | None = None
    exit_code: int = 0             # CLI only


def sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def golden_form(op: Op, rendered: str) -> str:
    return "sha256:" + sha256(rendered) if op.golden == "sha256" else rendered


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


# -- bundles -----------------------------------------------------------------

PROP_LEVELS = ("1/2", "1/3", "2/3", "3/4")


def _report_check(report) -> str | None:
    failed = [c.name for c in report.checks if not c.ok]
    return f"report checks failed: {failed}" if failed else None


def _report_bytes(report) -> str:
    return report.json_bytes().decode()


def bundles_ops(seed: int, pass_index: int, every_level: bool = False) -> list[Op]:
    """The bundle ladder; the seed picks each prop-formula level.

    ``every_level`` adds every level instead, for regenerating goldens.
    """
    rng = random.Random(f"bundles:{seed}")
    ops = [
        # Refusals first, while the membership cache is cold in every pass.
        Op(f"refuse {bundle} --xi {xi} --N {N} work={work}", "refuse", N,
           lambda fn=fn, xi=xi, N=N, work=work: fn(parse_ordinal(xi), N,
                                                   budget=Budget(work=work)),
           expect="refuse")
        for bundle, fn, xi, N, work in (
            ("example-star", verify_example_star, "1", 14, 1000),
            ("example-star", verify_example_star, "w", 16, 1000),
            ("example-schreier", verify_example_schreier, "w", 14, 300))
    ]
    ladder = [("example-schreier", verify_example_schreier,
               [("0", (6, 8, 10, 12)), ("1", (6, 8, 10)), ("w", (6, 8, 10))]),
              ("example-star", verify_example_star,
               [("0", (6, 8, 10, 12)), ("1", (6, 8, 10))])]
    for bundle, fn, rungs in ladder:
        for xi, sizes in rungs:
            for N in sizes:
                ops.append(Op(f"{bundle} --xi {xi} --N {N}", f"{bundle} xi={xi}", N,
                              lambda fn=fn, xi=xi, N=N: fn(parse_ordinal(xi), N),
                              check=_report_check, render=_report_bytes))
    for l_max in (10, 40, 160):
        for c in PROP_LEVELS if every_level else [rng.choice(PROP_LEVELS)]:
            ops.append(Op(f"prop-formula --l-max {l_max} --c {c}", "prop-formula",
                          l_max,
                          lambda l_max=l_max, c=c: verify_prop_formula(l_max, Fraction(c)),
                          check=_report_check, render=_report_bytes))
    return ops


# -- norms --------------------------------------------------------------------

NORM_KINDS = {
    "schreier:2": (8, 12, 16), "schreier:3": (8, 12, 16),
    "schreier:w": (8, 12, 16), "schreier:w+1": (8, 12, 16),
    "star:2": (8, 12, 16), "star:3": (8, 12, 16),
    "star:w": (8, 12, 16), "star:w+1": (8, 12, 16),
    "baernstein:1": (4, 7, 10, 13), "baernstein:2": (4, 7, 10, 13),
    "baernstein:w": (4, 7, 10, 13),
}
# Vectors per (kind, support) cell in one pass.  Search cost varies several
# fold between random vectors of one size, so each pass averages a few.
NORM_VECTORS_PER_CELL = 3
_NUMERATORS = [n for n in range(-9, 10) if n]
# Witness admissibility is checked with the exhaustive oracle, which needs
# room for witnesses as long as the largest support.
_WITNESS_BUDGET = Budget(oracle_support=32)


def random_vector(rng: random.Random, support: int) -> RatVec:
    """Random non-zero rationals p/q (|p|, q <= 9) on coordinates 1..support."""
    return RatVec({i: Fraction(rng.choice(_NUMERATORS), rng.randint(1, 9))
                   for i in range(1, support + 1)})


def _render_norm(result) -> str:
    data = result.to_json()
    return f"{data['value']}|{data['value_squared']}|{data['witness']}"


def _admissible(spec: NormSpec, F) -> bool:
    return not F or is_member_oracle(spec.xi, F, fs=spec.fs, budget=_WITNESS_BUDGET)


def _norm_witness_check(spec: NormSpec, x: RatVec):
    def check(result) -> str | None:
        if spec.kind == "baernstein":
            chain = result.witness
            previous = 0
            squared = Fraction(0)
            for block in chain:
                if not block or block.min() <= previous:
                    return f"chain blocks not increasing at {{{block}}}"
                if not _admissible(spec, block):
                    return f"chain block {{{block}}} not admissible"
                previous = block.max()
                squared += sum((abs(x[i]) for i in block), Fraction(0)) ** 2
            if squared != result.value_squared:
                return f"chain witness gives {squared}, norm^2 is {result.value_squared}"
            return None
        if spec.kind == "schreier_star":
            sign, F = result.witness
            total = sum((max(x[i], 0) if sign == "+" else max(-x[i], 0)
                         for i in F), Fraction(0))
        else:
            F = result.witness
            total = sum((abs(x[i]) for i in F), Fraction(0))
        if not _admissible(spec, F):
            return f"witness {{{F}}} not admissible"
        if total != result.value:
            return f"witness sums to {total}, norm is {result.value}"
        return None
    return check


def _norm_oracle_check(spec: NormSpec, x: RatVec):
    def check(result) -> str | None:
        if len(x) > Budget().oracle_support:
            return None
        expected = norm_oracle(spec, x).value_squared
        if expected != result.value_squared:
            return f"oracle gives norm^2 {expected}, norm gives {result.value_squared}"
        return None
    return check


def norm_inputs(seed: int, pass_index: int) -> list[tuple[str, RatVec]]:
    """The (kind, vector) inputs of one norms pass; a pure function of both."""
    rng = random.Random(f"norms:{seed}:{pass_index}")
    return [(kind, random_vector(rng, s))
            for kind, supports in NORM_KINDS.items() for s in supports
            for _ in range(NORM_VECTORS_PER_CELL)]


def norms_ops(seed: int, pass_index: int) -> list[Op]:
    ones24 = RatVec({i: 1 for i in range(1, 25)})
    ones16 = RatVec({i: 1 for i in range(1, 17)})
    ops = []
    for kind, x in (("schreier:2", ones24), ("schreier:w", ones24),
                    ("baernstein:1", ones16)):
        spec = NormSpec.parse(kind)
        ops.append(Op(f"refuse {kind} ones{len(x)} work=3000", "refuse", len(x),
                      lambda spec=spec, x=x: norm(spec, x, budget=Budget(work=3000)),
                      expect="refuse"))
    for index, (kind, x) in enumerate(norm_inputs(seed, pass_index)):
        spec = NormSpec.parse(kind)
        # The exhaustive oracle is slow; it checks the first vector of a cell.
        first = index % NORM_VECTORS_PER_CELL == 0
        ops.append(Op(f"seed{seed}/pass{pass_index}/{index} {kind} s={len(x)}",
                      kind, len(x), lambda spec=spec, x=x: norm(spec, x),
                      check=_norm_witness_check(spec, x),
                      oracle=_norm_oracle_check(spec, x) if first else None,
                      render=_render_norm, golden_required=False))
    return ops


# -- averages ----------------------------------------------------------------

def _ravg_op(xi: str, stream: str, n: int, group: str) -> Op:
    def check(vec) -> str | None:
        expected = support_size(parse_ordinal(xi), parse_stream(stream), n)
        if len(vec) != expected:
            return f"{len(vec)} entries, support_size says {expected}"
        if any(v <= 0 for _, v in vec.items()) or sum(v for _, v in vec.items()) != 1:
            return "not a probability vector"
        return None
    return Op(f"avg --xi {xi} --stream {stream} --n {n}", group, n,
              lambda: repeated_avg(parse_ordinal(xi), parse_stream(stream), n),
              check=check, render=lambda vec: vec.to_json(), golden="sha256",
              size_of=len)


def _refuse_op(xi: str, stream: str, n: int) -> Op:
    return Op(f"refuse avg --xi {xi} --stream {stream} --n {n}", "refuse", n,
              lambda: repeated_avg(parse_ordinal(xi), parse_stream(stream), n),
              expect="refuse")


def _apply_op(n: int) -> Op:
    xi, stream = "1", "all"

    def call():
        method = RepeatedAverages(parse_ordinal(xi), parse_stream(stream))
        return apply(method, CanonicalBasis(NormSpec.l1()), n)

    def check(out) -> str | None:
        vec = repeated_avg(parse_ordinal(xi), parse_stream(stream), n)
        return None if out == RatVec(vec.entries) else "apply(basis) differs from the vector"
    return Op(f"apply --xi {xi} --stream {stream} --seq basis --n {n}", "apply", n,
              call, check=check, render=lambda out: out.to_json(), golden="sha256",
              size_of=len)


def _nibcc_op(xi: str, stream: str, count: int) -> Op:
    def call():
        z, y = successor_pair_prefix(parse_ordinal(xi), parse_stream(stream), count)
        witness = check_nibcc(z, y)
        if witness is None:
            return len(y), None, None
        return len(y), witness, cesaro_reweight(witness, count)

    def check(out) -> str | None:
        _, witness, beta = out
        if witness is None:
            return "no block-combination witness"
        if sum(beta.values(), Fraction(0)) != count:
            return f"reweight sums to {sum(beta.values())}, not {count}"
        return None

    def render(out) -> str:
        _, witness, beta = out
        return json.dumps({
            "breakpoints": list(witness.breakpoints),
            "weights": [format_fraction(w) for w in witness.weights],
            "beta": {str(j): format_fraction(v) for j, v in beta.items()},
        }, sort_keys=True)
    return Op(f"nibcc+reweight --xi {xi} --stream {stream} --count {count}",
              f"nibcc xi={xi}", count, call, check=check, render=render,
              golden="sha256", size_of=lambda out: out[0])


def averages_ops(seed: int, pass_index: int) -> list[Op]:
    # Groups share no cache keys beyond the trivial order-0 vectors, so the
    # seeded group order changes the sequence of inputs but not the work.
    groups = [
        [_ravg_op("1", "all", n, "avg xi=1 all") for n in (9, 11, 13)]
        + [_ravg_op("2", "all", n, "avg xi=2 all") for n in (2, 3)]
        + [_ravg_op("w", "all", n, "avg xi=w all") for n in (1, 2)]
        # Reuses the vectors above, so it stays in this group.
        + [_nibcc_op("1", "all", c) for c in (2, 3)]
        # The README example: a correct refusal (needs >= 262,136 entries).
        + [_refuse_op("w", "all", 5)],
        [_ravg_op("1", "shift:1", n, "avg xi=1 shift:1") for n in (9, 11, 13)]
        + [_ravg_op("2", "shift:1", n, "avg xi=2 shift:1") for n in (1, 2)]
        + [_ravg_op("w", "shift:1", 1, "avg xi=w shift:1")],
        [_apply_op(n) for n in (7, 8, 9, 10)],
        [_nibcc_op("0", "shift:2", c) for c in (4, 6, 8, 10)],
        [_refuse_op("2", "evens", 2), _refuse_op("w", "evens", 2),
         _refuse_op("1", "cubes", 4), _refuse_op("w", "cubes", 2)],
    ]
    random.Random(f"averages:{seed}").shuffle(groups)
    return [op for group in groups for op in group]


# -- cli ----------------------------------------------------------------------

CLI_VECTOR = '{"entries": {"2": "3/2", "3": "-1", "5": "2", "8": "1/3"}}\n'

# The README examples, all six groups.  The four slowest run at a smaller N
# (README: sm --N 14, large --N 12, example-schreier/example-star --N 12) so
# that a session stays near eight seconds; other workloads carry that work.
README_COMMANDS = [
    "ord parse --text w^2*3+w+4",
    "ord fseq --xi w --n 5",
    "schreier member --xi w --set 2,3,7",
    "schreier enum --xi 1 --max-value 4",
    "schreier trace --xi 1 --stream evens --set 2,4",
    "avg nibcc --xi 0 --stream all --count 4",
    "avg reweight --xi 0 --stream all --count 4 --n 2",
    "norm --space schreier --xi 1 --vec @vec.json",
    ["norm", "eval", "--space", "star", "--xi", "1",
     "--vec", '{"entries": {"2": "1", "3": "-1"}}'],
    "norm functional --space schreier --xi 1 --set 2,3 --vec @vec.json",
    "quantity ca --space-xi 1 --n0 1 --N 4",
    "quantity sm --xi 2 --space schreier --N 8",
    "quantity large --xi 2 --c 9/10 --N 8",
    "quantity prop-formula --l 10 --c 1/2",
    "verify example-schreier --xi 1 --N 8",
    "verify example-star --xi 0 --N 8",
    "verify prop-formula --l-max 40 --c 1/2",
]

# Refusals.  The README's own ``avg --xi w --stream all --n 5`` is a correct
# refusal at the default budget; the others run under a reduced
# SCHREIER_LAB_BUDGET, since their refusal work grows with the budget.
CLI_REFUSALS = [
    ("avg --xi w --stream all --n 5", None),
    ("schreier enum --xi w --max-value 40", 1000),
    ("quantity large --xi 2 --c 9/10 --N 20", 2000),
    ("avg --xi 1 --stream all --n 19", 2000),
]

# Malformed input (ROADMAP item 4).  Each must exit 2 without a traceback;
# the recursion case must refuse with a budget message.  All five fail at
# the commit that introduced this benchmark and are listed by name.
CLI_MALFORMED = [
    (["avg", "validate", "--seq", '[{"entries": {"1": "1"}}, []]'],
     "reject", "avg validate with a non-object element: TypeError traceback, exit 1"),
    (["norm", "--space", "schreier", "--xi", "1", "--vec", '{"entries": [1, 2]}'],
     "reject", "norm --vec with list entries: AttributeError traceback, exit 1"),
    ("avg nibcc --stream all --count 4",
     "reject", "avg nibcc without --xi: AttributeError traceback, exit 1"),
    ("avg --xi w^3 --stream cubes --n 3",
     "refuse", "avg --xi w^3: RecursionError reported as a plain error, no refusal"),
    ("ord fseq --xi w --n -2",
     "reject", "ord fseq --n -2: prints an empty sequence, exit 0"),
]


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


def _stable(stdout: bytes) -> bytes:
    """Stdout without the text reports' wall-time line, which is for humans."""
    return b"".join(line for line in stdout.splitlines(keepends=True)
                    if not line.startswith(b"wall time: "))


def _argv(command) -> list[str]:
    return command.split() if isinstance(command, str) else list(command)


def cli_child_command(traced: bool) -> list[str]:
    if traced:
        return [sys.executable, os.path.join(BENCH_DIR, "cli_child.py")]
    return [sys.executable, "-m", "schreier_lab.cli"]


def _cli_op(name: str, argv: list[str], group: str, expect: str, exit_code: int,
            workdir: str, env: dict, traced: bool, known_defect: str | None = None) -> Op:
    command = cli_child_command(traced) + argv

    def call() -> CliResult:
        proc = subprocess.run(command, cwd=workdir, env=env, capture_output=True,
                              timeout=120)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    return Op(name, group, 1, call, expect=expect, exit_code=exit_code,
              render=lambda r: f"exit={r.code} stdout_sha256={sha256(_stable(r.stdout))}",
              known_defect=known_defect)


def cli_ops(seed: int, pass_index: int, workdir: str, env: dict,
            traced: bool = False) -> list[Op]:
    """The session; ``workdir`` holds ``vec.json`` and is each child's cwd."""
    ops = []
    for command in README_COMMANDS:
        argv = _argv(command)
        for fmt in ("text", "json"):
            name = " ".join(argv) + f" --format {fmt}"
            ops.append(_cli_op(name, argv + ["--format", fmt], "readme", "ok", 0,
                               workdir, env, traced))
    for command, budget in CLI_REFUSALS:
        child_env = dict(env)
        if budget is not None:
            child_env["SCHREIER_LAB_BUDGET"] = str(budget)
        suffix = "" if budget is None else f" SCHREIER_LAB_BUDGET={budget}"
        ops.append(_cli_op(f"refuse {command}{suffix}", _argv(command), "refuse",
                           "refuse", 2, workdir, child_env, traced))
    for command, expect, defect in CLI_MALFORMED:
        argv = _argv(command)
        op = _cli_op("malformed " + " ".join(argv), argv, "malformed", expect,
                     2, workdir, env, traced, known_defect=defect)
        op.golden_required = False    # judged by exit code and stderr alone
        ops.append(op)
    random.Random(f"cli:{seed}").shuffle(ops)
    return ops


# -- judging ------------------------------------------------------------------


def _cli_judge(op: Op, result: CliResult) -> tuple[str, str | None, str]:
    rendered = op.render(result)
    stderr = result.stderr.decode(errors="replace")
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if "Traceback (most recent call last)" in stderr:
        return "failed", f"traceback, exit {result.code}: {last}", rendered
    if result.code != op.exit_code:
        return "failed", f"exit {result.code}, expected {op.exit_code}", rendered
    if op.expect == "refuse":
        if "budget exceeded" in stderr and "needs" in stderr:
            return "refused", None, last
        return "failed", f"exit 2 without a budget refusal: {last}", rendered
    return "ok", None, rendered


def judge(op: Op, value, exc: BaseException | None) -> tuple[str, str | None, str]:
    """(status, failure reason, rendered output) for one operation.

    An expected refusal succeeds only with a ``budget exceeded ... needs``
    message; any other exception, or a completion where a refusal was
    expected, is a failure.
    """
    if isinstance(value, CliResult):
        return _cli_judge(op, value)
    if exc is not None:
        message = str(exc)
        if op.expect == "refuse" and isinstance(exc, BudgetExceededError) \
                and "needs" in message:
            return "refused", None, message
        return "failed", f"{type(exc).__name__}: {message}", ""
    if op.expect == "refuse":
        return "failed", "completed; expected a budget refusal", ""
    rendered = op.render(value)
    reason = op.check(value) if op.check is not None else None
    return ("failed" if reason else "ok"), reason, rendered


def verdict(op: Op, value, exc: BaseException | None, goldens: dict | None,
            oracle: bool = False) -> tuple[str, str | None, str]:
    """``judge``, then the oracle cross-check and the stored golden.

    ``goldens`` maps op names to golden forms; None skips the comparison
    (when regenerating them).  Returns (status, reason, golden form).
    """
    status, reason, rendered = judge(op, value, exc)
    if status == "ok" and oracle and op.oracle is not None:
        reason = op.oracle(value)
        status = "failed" if reason else status
    form = golden_form(op, rendered)
    if status != "failed" and goldens is not None:
        golden = goldens.get(op.name)
        if golden is None and op.golden_required:
            status, reason = "failed", "no golden output stored"
        elif golden is not None and golden != form:
            status, reason = "failed", "output differs from the golden"
    return status, reason, form


def build_ops(workload: str, seed: int, pass_index: int, *, workdir: str = "",
              env: dict | None = None, traced: bool = False) -> list[Op]:
    if workload == "bundles":
        return bundles_ops(seed, pass_index)
    if workload == "norms":
        return norms_ops(seed, pass_index)
    if workload == "averages":
        return averages_ops(seed, pass_index)
    if workload == "cli":
        return cli_ops(seed, pass_index, workdir, env or dict(os.environ), traced)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def inputs_digest(workload: str, ops: list[Op], seed: int, pass_index: int) -> str:
    """A digest of everything the program receives in one pass."""
    parts = [op.name for op in ops]
    if workload == "norms":
        parts += [f"{kind} {x.to_json()}" for kind, x in norm_inputs(seed, pass_index)]
    return sha256("\n".join(parts))
