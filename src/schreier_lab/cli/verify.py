"""The ``verify`` group: the reproducible example bundles."""

from __future__ import annotations

import argparse
import sys

from . import _fraction, _ordinal


def _emit_report(args, report) -> int:
    if args.format == "json":
        sys.stdout.write(report.json_bytes().decode())
    else:
        sys.stdout.write(report.render_text())
    return report.exit_code


def _cmd_verify_schreier(args) -> int:
    from ..verify import verify_example_schreier
    c_override = None if args.c_override is None else _fraction(args.c_override)
    report = verify_example_schreier(_ordinal(args.xi), args.N,
                                     args.coeff_budget, c_override=c_override)
    return _emit_report(args, report)


def _cmd_verify_star(args) -> int:
    from ..verify import verify_example_star
    report = verify_example_star(_ordinal(args.xi), args.N,
                                 args.coeff_budget)
    return _emit_report(args, report)


def _cmd_verify_prop(args) -> int:
    from ..verify import verify_prop_formula
    report = verify_prop_formula(args.l_max, _fraction(args.c))
    return _emit_report(args, report)


def add_ops(ops, fmt) -> None:
    bundle_flags = argparse.ArgumentParser(add_help=False)
    bundle_flags.add_argument("--xi", required=True)
    bundle_flags.add_argument("--N", type=int, required=True)
    bundle_flags.add_argument("--coeff-budget", type=int, default=3)
    p = ops.add_parser("example-schreier", parents=[fmt, bundle_flags],
                       help="the normalized basis one order up")
    p.add_argument("--c-override", metavar="FRAC",
                   help="replace the default largeness level 1 - 1/N")
    p.set_defaults(handler=_cmd_verify_schreier)
    p = ops.add_parser("example-star", parents=[fmt, bundle_flags],
                       help="the sign-split renorming of the basis")
    p.set_defaults(handler=_cmd_verify_star)
    p = ops.add_parser("prop-formula", parents=[fmt],
                       help="tabulate the ratio formula envelopes")
    p.add_argument("--l-max", type=int, required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(handler=_cmd_verify_prop)
