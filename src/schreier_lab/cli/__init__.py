"""Command line front end.

Each command group mirrors one library module.  Results print as ``key =
value`` lines by default or as a sorted, indented JSON document with
``--format json``; exact rationals cross the boundary as ``p/q`` strings.
Vector-valued flags accept inline JSON or ``@path`` to read a file.

The ``avg`` and ``norm`` groups run their primary operation when no
sub-operation is named, so ``avg --xi w --stream all --n 5`` and
``norm --space schreier --xi 1 --vec @x.json`` work as written.

A command costs interpreter start, its own layers and its work.  This core
holds :func:`main`, the shared input and output helpers and the top-level
parser, which only names the six groups.  Each group is a module of its own
(``ord``, ``schreier``, ``avg``, ``norm``, ``quantity`` and ``verify``)
holding its handlers and the parsers of its ops.  :func:`main` imports and
builds the one group its arguments name, so a command compiles (when no
bytecode cache is written) and builds the core and that group only, and the
program's ``--help`` or an unknown group builds the core alone.

The handlers import their layers when they run, not when the parser is
built.  So an ``ord`` command loads only the ordinals, the ``avg`` and
``norm`` commands load neither the quantities nor the bundles, ``avg``
commands other than ``pair-sum`` load no families, and the ``quantity``
commands load no bundles.  Of the ``quantity`` and ``verify`` commands,
only ``cca-xi``, ``cca-tilde`` and ``cca-tilde-sup`` load the averages.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from ..budget import BudgetExceededError

_SPACE_KINDS = ("l1", "l2", "sup", "schreier", "star", "baernstein")

# The groups, in the order the program's help lists them, each with its
# help line; the module of the same name adds its ops.
_GROUPS = {
    "ord": "ordinal arithmetic",
    "schreier": "admissible set families",
    "avg": "repeated averaging vectors",
    "norm": "exact norms and functionals",
    "quantity": "finite-horizon constants",
    "verify": "reproducible example bundles",
}


# -- input and output helpers ----------------------------------------------------


# Parsers of the textual arguments, each importing the layer that owns the syntax.


def _ordinal(text: str):
    from ..ordinal import parse
    return parse(text)


def _stream(text: str):
    from ..streams import parse_stream
    return parse_stream(text)


def _fraction(text: str):
    from ..vectors import parse_fraction
    return parse_fraction(text)


def _read_arg(text: str) -> str:
    if text.startswith("@"):
        from pathlib import Path
        return Path(text[1:]).read_text()
    return text


def _load_vector(text: str):
    from ..vectors import RatVec
    return RatVec.from_json(_read_arg(text))


def _load_vector_list(text: str) -> list:
    from ..vectors import RatVec
    data = json.loads(_read_arg(text))
    if not isinstance(data, list):
        raise ValueError("expected a JSON list of vectors")
    return [RatVec.from_obj(item) for item in data]


def _space_spec(space: str, xi_text: str | None):
    from ..spaces import NormSpec
    if xi_text is None:
        return NormSpec.parse(space)
    return NormSpec.parse(f"{space}:{xi_text}")


def _sequence(args, ambient):
    """The vector sequence named by the sequence flags, in ``ambient``."""
    from ..vectors import (CanonicalBasis, ExplicitSequence, Subsequence,
                           WeightedBasis)
    if getattr(args, "weights", None) is not None:
        weights = [_fraction(w) for w in args.weights.split(",")]
        base = WeightedBasis(ambient, weights, _fraction(args.weight_tail))
    elif args.seq == "basis":
        base = CanonicalBasis(ambient)
    elif args.seq.startswith("@"):
        base = ExplicitSequence(ambient, _load_vector_list(args.seq))
    else:
        raise ValueError(f"unknown sequence {args.seq!r}; use basis or @file")
    if getattr(args, "along", None) is not None:
        base = Subsequence(base, _stream(args.along))
    return base


def _text_lines(payload: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        name = prefix + str(key)
        if isinstance(value, dict):
            lines.extend(_text_lines(value, name + "."))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{name} = [{', '.join(str(v) for v in value)}]")
        elif isinstance(value, bool) or value is None:
            lines.append(f"{name} = {json.dumps(value)}")
        else:
            lines.append(f"{name} = {value}")
    return lines


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_text_lines(payload)) + "\n")


# -- parser ----------------------------------------------------------------------


def _build_parser(group: str | None = None) -> argparse.ArgumentParser:
    """The program's parser, with the ops of ``group`` and of no other group.

    Every group is named with its help line, so the program's usage, help
    and errors read the same whichever group is built.
    """
    parser = argparse.ArgumentParser(
        prog="schreier-lab",
        description="Ordinal-indexed families, repeated averages, and the "
                    "norms and constants built from them.")
    groups = parser.add_subparsers(dest="group", required=True)
    for name, text in _GROUPS.items():
        sub = groups.add_parser(name, help=text)
        if name == group:
            fmt = argparse.ArgumentParser(add_help=False)   # every op takes it
            fmt.add_argument("--format", choices=("json", "text"),
                             default="text",
                             help="output format (default: text)")
            module = importlib.import_module(f"{__name__}.{name}")
            module.add_ops(sub.add_subparsers(dest="op", required=True), fmt)
    return parser


def _group_of(argv: list[str]) -> str | None:
    """The group ``argv`` names, if any: its first argument that is not an
    option, since the program itself takes no option with a value.  So an
    option before the group is still reported as unrecognized by itself."""
    name = next((arg for arg in argv if not arg.startswith("-")), None)
    return name if name in _GROUPS else None


_DEFAULT_OPS = {"avg": "vector", "norm": "eval"}


def _with_default_op(argv: list[str]) -> list[str]:
    """Insert the implied sub-operation, so ``avg --xi 1 ...`` parses: when
    nothing follows the group, or an option other than help does.  Any other
    word is the group's to name as an op or refuse with its list of ops."""
    if not argv or argv[0] not in _DEFAULT_OPS:
        return argv
    rest = argv[1:]
    if rest and (not rest[0].startswith("-") or rest[0] in ("-h", "--help")):
        return argv
    return [argv[0], _DEFAULT_OPS[argv[0]], *rest]


def _is_ambiguous(exc: BaseException) -> bool:
    """Whether ``exc`` is the averaging layer's AmbiguousReconstructionError.

    Only that layer raises it, so a command that never loaded the layer
    cannot have; asking ``sys.modules`` keeps every other command from
    importing it just to test the type.
    """
    averages = sys.modules.get(f"{__name__.rpartition('.')[0]}.averages")
    return (averages is not None
            and isinstance(exc, averages.AmbiguousReconstructionError))


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser(_group_of(raw)).parse_args(_with_default_op(raw))
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError, OverflowError) as exc:
        # OverflowError: an exact result too large for its float approximation.
        prefix = "ambiguous" if _is_ambiguous(exc) else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 2
