"""The ``schreier`` group: membership, enumeration, counting and thresholds."""

from __future__ import annotations

from . import _emit, _ordinal, _stream


def _cmd_schreier_member(args) -> int:
    """``member``, ``oracle``, ``image`` and ``trace``: the op names the test,
    which takes the order, the stream when the op has one, and the set."""
    from ..schreier import (FinSet, is_member, is_member_image,
                            is_member_oracle, trace_member)
    test = {"member": is_member, "oracle": is_member_oracle,
            "image": is_member_image, "trace": trace_member}[args.op]
    F = FinSet.parse(args.set)
    payload = {"xi": args.xi, "set": str(F)}
    operands = [_ordinal(args.xi)]
    if getattr(args, "stream", None) is not None:
        payload["stream"] = args.stream
        operands.append(_stream(args.stream))
    payload["member"] = test(*operands, F)
    _emit(args, payload)
    return 0


def _cmd_schreier_enum(args) -> int:
    from ..schreier import _family
    xi = _ordinal(args.xi)
    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be at least 0")
    sets = [str(F) for F in _family(xi, args.max_value)]
    payload = {"xi": args.xi, "max_value": args.max_value, "count": len(sets)}
    if args.limit is not None:
        sets = sets[:args.limit]
    payload["sets"] = sets
    _emit(args, payload)
    return 0


def _cmd_schreier_count(args) -> int:
    from ..schreier import count_family
    count = count_family(_ordinal(args.xi), args.max_value)
    _emit(args, {"xi": args.xi, "max_value": args.max_value, "count": count})
    return 0


def _cmd_schreier_threshold(args) -> int:
    from ..schreier import threshold
    n = threshold(_ordinal(args.zeta), _ordinal(args.xi), args.max_value)
    _emit(args, {"zeta": args.zeta, "xi": args.xi,
                 "max_value": args.max_value, "threshold": n})
    return 0


def add_ops(ops, fmt) -> None:
    for name, streamed in (("member", False), ("oracle", False),
                           ("image", True), ("trace", True)):
        p = ops.add_parser(name, parents=[fmt], help=f"{name} membership test")
        p.add_argument("--xi", required=True)
        if streamed:
            p.add_argument("--stream", required=True,
                           help="all, shift:<k>, cubes, or evens")
        p.add_argument("--set", required=True, help="like 2,3,7")
        p.set_defaults(handler=_cmd_schreier_member)
    p = ops.add_parser("enum", parents=[fmt],
                       help="every member inside 1..max-value")
    p.add_argument("--xi", required=True)
    p.add_argument("--max-value", type=int, required=True)
    p.add_argument("--limit", type=int, help="print at most this many sets")
    p.set_defaults(handler=_cmd_schreier_enum)
    p = ops.add_parser("count", parents=[fmt],
                       help="number of members inside 1..max-value, "
                            "without listing them")
    p.add_argument("--xi", required=True)
    p.add_argument("--max-value", type=int, required=True)
    p.set_defaults(handler=_cmd_schreier_count)
    p = ops.add_parser("threshold", parents=[fmt],
                       help="smallest min value forcing one family "
                            "into another")
    p.add_argument("--zeta", required=True, help="order of the probed family")
    p.add_argument("--xi", required=True, help="order of the target family")
    p.add_argument("--max-value", type=int, required=True)
    p.set_defaults(handler=_cmd_schreier_threshold)
