"""The ``avg`` group: repeated averaging vectors and block combinations.

The bare group computes a vector.
"""

from __future__ import annotations

import argparse

from . import (_emit, _load_vector, _load_vector_list, _ordinal, _sequence,
               _stream)


def _nibcc_witness(args):
    """The combined and original vectors, from files or generated, and the
    block combination witness between them (``None`` when there is none)."""
    from ..averages import check_nibcc, successor_pair_prefix
    from ..vectors import ProbVector
    if args.z is not None or args.y is not None:
        if args.z is None or args.y is None:
            raise ValueError("--z and --y go together")
        z = [ProbVector(v.entries) for v in _load_vector_list(args.z)]
        y = [ProbVector(v.entries) for v in _load_vector_list(args.y)]
    elif args.xi is None:
        raise ValueError("give --xi, or --z and --y")
    else:
        z, y = successor_pair_prefix(_ordinal(args.xi),
                                     _stream(args.stream), args.count)
    return z, y, check_nibcc(z, y)


def _cmd_avg_vector(args) -> int:
    from ..averages import repeated_avg
    vec = repeated_avg(_ordinal(args.xi), _stream(args.stream), args.n)
    _emit(args, {"xi": args.xi, "stream": args.stream, "n": args.n,
                 "size": len(vec), "vector": vec.to_map()})
    return 0


def _cmd_avg_size(args) -> int:
    from ..averages import support_size
    size = support_size(_ordinal(args.xi), _stream(args.stream), args.n)
    _emit(args, {"xi": args.xi, "stream": args.stream, "n": args.n,
                 "size": size})
    return 0


def _cmd_avg_apply(args) -> int:
    from ..averages import RepeatedAverages, apply
    method = RepeatedAverages(_ordinal(args.xi), _stream(args.stream))
    out = apply(method, _sequence(args, None), args.n)
    _emit(args, {"xi": args.xi, "stream": args.stream, "n": args.n,
                 "vector": out.to_map()})
    return 0


def _cmd_avg_pair_sum(args) -> int:
    from ..averages import pair_sum
    from ..schreier import FinSet
    from ..vectors import format_fraction
    value = pair_sum(_load_vector(args.vec), FinSet.parse(args.set))
    _emit(args, {"set": args.set, "value": format_fraction(value)})
    return 0


def _cmd_avg_validate(args) -> int:
    from ..averages import validate_prefix
    from ..vectors import ProbVector
    vectors = [ProbVector(v.entries) for v in _load_vector_list(args.seq)]
    stream = _stream(args.stream)
    n = args.n if args.n is not None else len(vectors)
    if n < 0:
        raise ValueError(f"--n must be at least 0, got {n}")
    if n > len(vectors):
        raise ValueError(f"--n {n} is past the {len(vectors)} listed vectors")
    validate_prefix(vectors[:n], stream)
    _emit(args, {"stream": args.stream, "n": n, "ok": True})
    return 0


def _cmd_avg_nibcc(args) -> int:
    from ..vectors import format_fraction
    z, y, witness = _nibcc_witness(args)
    payload: dict = {"combined": len(z), "originals": len(y)}
    if witness is None:
        payload.update({"ok": False, "witness": None})
    else:
        payload.update({
            "ok": True,
            "witness": {
                "breakpoints": list(witness.breakpoints),
                "weights": [format_fraction(w) for w in witness.weights],
            },
        })
    _emit(args, payload)
    return 0 if witness is not None else 1


def _cmd_avg_reweight(args) -> int:
    from fractions import Fraction
    from ..averages import cesaro_reweight
    from ..vectors import format_fraction
    _, _, witness = _nibcc_witness(args)
    if witness is None:
        raise ValueError("no block combination witness; nothing to reweight")
    beta = cesaro_reweight(witness, args.n)
    _emit(args, {"n": args.n,
                 "beta": {str(j): format_fraction(v) for j, v in beta.items()},
                 "total": format_fraction(sum(beta.values(), Fraction(0)))})
    return 0


def add_ops(ops, fmt) -> None:
    vector_flags = argparse.ArgumentParser(add_help=False)
    vector_flags.add_argument("--xi", required=True)
    vector_flags.add_argument("--stream", default="all")
    vector_flags.add_argument("--n", type=int, required=True)
    p = ops.add_parser("vector", parents=[fmt, vector_flags],
                       help="the n-th averaging vector (default op)")
    p.set_defaults(handler=_cmd_avg_vector)
    p = ops.add_parser("size", parents=[fmt, vector_flags],
                       help="support size without materializing")
    p.set_defaults(handler=_cmd_avg_size)
    p = ops.add_parser("apply", parents=[fmt, vector_flags],
                       help="average a vector sequence")
    p.add_argument("--seq", default="basis",
                   help="basis, or @file with a JSON list of vectors")
    p.set_defaults(handler=_cmd_avg_apply)
    p = ops.add_parser("pair-sum", parents=[fmt],
                       help="coordinate sum over a set")
    p.add_argument("--vec", required=True, help="vector JSON or @file")
    p.add_argument("--set", required=True)
    p.set_defaults(handler=_cmd_avg_pair_sum)
    p = ops.add_parser("validate", parents=[fmt],
                       help="check supports tile a stream prefix")
    p.add_argument("--seq", required=True, help="@file with a JSON list")
    p.add_argument("--stream", default="all")
    p.add_argument("--n", type=int, help="prefix length (default: all)")
    p.set_defaults(handler=_cmd_avg_validate)
    for name, handler in (("nibcc", _cmd_avg_nibcc),
                          ("reweight", _cmd_avg_reweight)):
        p = ops.add_parser(
            name, parents=[fmt],
            help="block combination witness" if name == "nibcc"
            else "mean-of-means weights from the witness")
        p.add_argument("--xi", help="base order; combined vectors are one up")
        p.add_argument("--stream", default="all")
        p.add_argument("--count", type=int, default=3,
                       help="combined vectors to generate (default: 3)")
        p.add_argument("--z", help="@file with the combined vectors")
        p.add_argument("--y", help="@file with the original vectors")
        if name == "reweight":
            p.add_argument("--n", type=int, required=True,
                           help="how many combined vectors to average")
        p.set_defaults(handler=handler)
