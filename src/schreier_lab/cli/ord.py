"""The ``ord`` group: parsing, classification and fundamental sequences."""

from __future__ import annotations

from ..budget import BudgetExceededError, get_budget
from . import _emit, _ordinal


def _cmd_ord_parse(args) -> int:
    from ..ordinal import classify
    x = _ordinal(args.text)
    _emit(args, {"ordinal": str(x), "kind": classify(x).kind})
    return 0


def _cmd_ord_classify(args) -> int:
    from ..ordinal import classify
    x = _ordinal(args.xi)
    kind, pred = classify(x)
    _emit(args, {"ordinal": str(x), "kind": kind,
                 "predecessor": None if pred is None else str(pred)})
    return 0


def _cmd_ord_fseq(args) -> int:
    from ..ordinal import default_fundamental_seq
    x = _ordinal(args.xi)
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    work = get_budget().work
    if args.n > work:
        raise BudgetExceededError("fundamental-sequence terms", work, needed=args.n)
    values = [str(default_fundamental_seq(x, n)) for n in range(1, args.n + 1)]
    _emit(args, {"ordinal": str(x), "n": args.n, "sequence": values})
    return 0


def add_ops(ops, fmt) -> None:
    p = ops.add_parser("parse", parents=[fmt], help="parse and normalize")
    p.add_argument("--text", required=True, help="like w^2*3+w+5")
    p.set_defaults(handler=_cmd_ord_parse)
    p = ops.add_parser("classify", parents=[fmt],
                       help="zero, successor, or limit")
    p.add_argument("--xi", required=True)
    p.set_defaults(handler=_cmd_ord_classify)
    p = ops.add_parser("fseq", parents=[fmt],
                       help="prefix of the fundamental sequence")
    p.add_argument("--xi", required=True)
    p.add_argument("--n", type=int, required=True, help="prefix length")
    p.set_defaults(handler=_cmd_ord_fseq)
