"""The ``norm`` group: exact norms and certified functionals.

The bare group evaluates a norm.
"""

from __future__ import annotations

from . import _SPACE_KINDS, _emit, _load_vector, _space_spec


def _cmd_norm_eval(args) -> int:
    """``eval`` and ``oracle``: the search, or its brute-force cross-check."""
    from ..spaces import norm, norm_oracle
    evaluate = norm if args.op == "eval" else norm_oracle
    spec = _space_spec(args.space, args.xi)
    result = evaluate(spec, _load_vector(args.vec))
    _emit(args, result.to_json())
    return 0


def _cmd_norm_functional(args) -> int:
    from ..schreier import FinSet
    from ..spaces import coordinate_sum_functional
    from ..vectors import format_fraction
    spec = _space_spec(args.space, args.xi)
    functional = coordinate_sum_functional(FinSet.parse(args.set), spec)
    payload = functional.to_json()
    if args.vec is not None:
        value = functional.evaluate(_load_vector(args.vec),
                                    check=not args.no_check)
        payload["value"] = format_fraction(value)
    _emit(args, payload)
    return 0


def add_ops(ops, fmt) -> None:
    p = ops.add_parser("eval", parents=[fmt],
                       help="evaluate a norm (default op)")
    p.add_argument("--space", choices=_SPACE_KINDS, required=True)
    p.add_argument("--xi", help="family order; classical kinds take none")
    p.add_argument("--vec", required=True, help="vector JSON or @file")
    p.set_defaults(handler=_cmd_norm_eval)
    p = ops.add_parser("oracle", parents=[fmt],
                       help="brute-force cross-check on small supports")
    p.add_argument("--space", choices=_SPACE_KINDS, required=True)
    p.add_argument("--xi")
    p.add_argument("--vec", required=True)
    p.set_defaults(handler=_cmd_norm_eval)
    p = ops.add_parser("functional", parents=[fmt],
                       help="certified coordinate-sum functional")
    p.add_argument("--space", choices=_SPACE_KINDS, required=True)
    p.add_argument("--xi")
    p.add_argument("--set", required=True)
    p.add_argument("--vec", help="evaluate on this vector")
    p.add_argument("--no-check", action="store_true",
                   help="skip the norm bound check")
    p.set_defaults(handler=_cmd_norm_functional)
