"""The ``quantity`` group: windowed constants, estimates and checks."""

from __future__ import annotations

import argparse

from . import (_SPACE_KINDS, _emit, _fraction, _load_vector, _ordinal,
               _sequence, _space_spec, _stream)


def _ambient_spec(args):
    from ..spaces import _CLASSICAL_KINDS
    order = getattr(args, "space_xi", None) or getattr(args, "xi", None)
    if args.space in _CLASSICAL_KINDS:
        return _space_spec(args.space, None)
    if order is None:
        raise ValueError(f"--space {args.space} needs --space-xi")
    return _space_spec(args.space, order)


def _value_fields(value) -> dict:
    from fractions import Fraction
    from ..vectors import format_fraction
    exact = format_fraction(value) if isinstance(value, Fraction) else None
    return {"value": exact, "approx": float(value)}


def _window_payload(args, ambient, xs, kind: str, value) -> dict:
    payload = {"kind": kind, "space": str(ambient), "sequence": xs.name,
               "window": [args.n0, args.N]}
    payload.update(_value_fields(value))
    return payload


def _cmd_q_window(args) -> int:
    """``ca`` and ``cca``: the op names the constant."""
    from ..quantities import ca_window, cca_window
    window = ca_window if args.op == "ca" else cca_window
    ambient = _ambient_spec(args)
    xs = _sequence(args, ambient)
    _emit(args, _window_payload(args, ambient, xs, args.op,
                                window(xs, args.n0, args.N)))
    return 0


def _cmd_q_cca_xi(args) -> int:
    from ..quantities import cca_xi_window
    ambient = _ambient_spec(args)
    xs = _sequence(args, ambient)
    value = cca_xi_window(_ordinal(args.xi), _stream(args.stream),
                          xs, args.n0, args.N)
    payload = _window_payload(args, ambient, xs, "cca-xi", value)
    payload.update({"xi": args.xi, "stream": args.stream})
    _emit(args, payload)
    return 0


def _parse_catalog(text: str) -> list:
    return [_stream(part) for part in text.split(",") if part]


def _cmd_q_cca_tilde(args) -> int:
    """``cca-tilde`` and ``cca-tilde-sup``: the op names the estimate."""
    from ..quantities import cca_xi_tilde, cca_xi_tilde_sup
    ambient = _ambient_spec(args)
    xs = _sequence(args, ambient)
    xi, catalog = _ordinal(args.xi), _parse_catalog(args.catalog)
    if args.op == "cca-tilde":
        est = cca_xi_tilde(xi, xs, catalog, args.n0, args.N)
    else:
        est = cca_xi_tilde_sup(xi, xs, catalog, None, args.n0, args.N)
    payload = est.to_json()
    payload.update({"kind": args.op, "xi": args.xi, "space": str(ambient),
                    "catalog": args.catalog})
    _emit(args, payload)
    return 0


def _cmd_q_sm(args) -> int:
    from ..quantities import sm_constant
    ambient = _ambient_spec(args)
    xs = _sequence(args, ambient)
    est = sm_constant(_ordinal(args.xi), xs, args.N, args.coeff_budget)
    payload = est.to_json()
    payload.update({"kind": "sm", "xi": args.xi, "space": str(ambient),
                    "sequence": xs.name})
    _emit(args, payload)
    return 0


def _sum_members(args, ambient) -> list:
    """The nonempty members inside ``1..N`` at the ``--gamma-xi`` order,
    counted first and each certified as a coordinate sum of ``ambient``: by
    construction on the space's own walk, in one pass on any other."""
    from ..ordinal import default_fundamental_seq
    from ..schreier import _family
    from ..spaces import _certify_sums, _own_walk
    order = ambient.xi if args.gamma_xi is None else _ordinal(args.gamma_xi)
    if order is None:
        raise ValueError(f"--space {args.space} needs an explicit --gamma-xi")
    members = [F for F in _family(order, args.N) if F]
    if members and not _own_walk(order, default_fundamental_seq, ambient):
        _certify_sums(members, ambient)
    return members


def _cmd_q_fdelta(args) -> int:
    from ..quantities import DeltaFamily, _hit_sets, _scaled_horizon
    ambient = _ambient_spec(args)
    xs = _sequence(args, ambient)
    members = _sum_members(args, ambient)
    delta = _fraction(args.delta)
    rows, D = _scaled_horizon(xs, args.N)
    hit_sets = _hit_sets(((F, [1] * len(F), 1) for F in members), rows, D, delta)
    payload = DeltaFamily(hit_sets, delta, args.N,
                          tuple(f"sum[{F}]" for F in members)).to_json()
    payload.update({"kind": "fdelta", "space": str(ambient),
                    "functionals": len(members)})
    _emit(args, payload)
    return 0


def _cmd_q_large(args) -> int:
    from ..budget import get_budget
    from ..ordinal import default_fundamental_seq
    from ..quantities import _large
    ambient = _ambient_spec(args)
    xs = _sequence(args, ambient)
    members = _sum_members(args, ambient)
    weak_limit = None if args.weak_limit is None else _load_vector(args.weak_limit)
    result = _large(_ordinal(args.xi), _fraction(args.c), xs, _stream(args.stream),
                    ((F, [1] * len(F), 1) for F in members), args.N, weak_limit,
                    fs=default_fundamental_seq, budget=get_budget())
    payload = result.to_json()
    payload.update({"kind": "large", "space": str(ambient),
                    "c": args.c, "functionals": len(members)})
    _emit(args, payload)
    return 0 if result.ok else 1


def _cmd_q_prop_formula(args) -> int:
    from ..quantities import prop_formula
    values = prop_formula(args.l, _fraction(args.c))
    _emit(args, values.to_json())
    return 0


def add_ops(ops, fmt) -> None:
    seq_flags = argparse.ArgumentParser(add_help=False)
    seq_flags.add_argument("--space", choices=_SPACE_KINDS, default="schreier",
                           help="ambient norm kind (default: schreier)")
    seq_flags.add_argument("--space-xi", metavar="ORD",
                           help="order of the ambient space; defaults to --xi "
                                "where that flag exists")
    seq_flags.add_argument("--seq", default="basis", metavar="SEQ",
                           help="basis, or @file with a JSON list of vectors")
    seq_flags.add_argument("--along", metavar="STREAM",
                           help="pass to the subsequence along this stream")
    seq_flags.add_argument("--weights", metavar="FRACS",
                           help="comma list of fractions weighting the basis")
    seq_flags.add_argument("--weight-tail", default="1", metavar="FRAC",
                           help="weight past the listed ones (default: 1)")

    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--n0", type=int, default=1,
                        help="window start (default: 1)")
    window.add_argument("--N", type=int, required=True, help="window end")

    p = ops.add_parser("ca", parents=[fmt, seq_flags, window],
                       help="largest pairwise distance in the window")
    p.set_defaults(handler=_cmd_q_window)
    p = ops.add_parser("cca", parents=[fmt, seq_flags, window],
                       help="the same over running means")
    p.set_defaults(handler=_cmd_q_window)
    p = ops.add_parser("cca-xi", parents=[fmt, seq_flags, window],
                       help="over running means of the averaged sequence")
    p.add_argument("--xi", required=True)
    p.add_argument("--stream", default="all")
    p.set_defaults(handler=_cmd_q_cca_xi)
    p = ops.add_parser("cca-tilde", parents=[fmt, seq_flags, window],
                       help="best stream in a catalog")
    p.add_argument("--xi", required=True)
    p.add_argument("--catalog", required=True,
                   help="comma list of streams, like all,shift:2,cubes")
    p.set_defaults(handler=_cmd_q_cca_tilde)
    p = ops.add_parser("cca-tilde-sup", parents=[fmt, seq_flags, window],
                       help="worst catalog stream after refinement")
    p.add_argument("--xi", required=True)
    p.add_argument("--catalog", required=True)
    p.set_defaults(handler=_cmd_q_cca_tilde)
    p = ops.add_parser("sm", parents=[fmt, seq_flags],
                       help="spreading-model constant over a horizon")
    p.add_argument("--xi", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--coeff-budget", type=int, default=4,
                   help="sign patterns up to this support size (default: 4)")
    p.set_defaults(handler=_cmd_q_sm)
    p = ops.add_parser("fdelta", parents=[fmt, seq_flags],
                       help="threshold family of certified functionals")
    p.add_argument("--gamma-xi", metavar="ORD",
                   help="order of the functional family (default: space order)")
    p.add_argument("--delta", required=True, help="threshold, like 1/4")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(handler=_cmd_q_fdelta)
    p = ops.add_parser("large", parents=[fmt, seq_flags],
                       help="largeness at a level along a stream")
    p.add_argument("--xi", required=True)
    p.add_argument("--c", required=True, help="level, like 9/10")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--stream", default="all")
    p.add_argument("--gamma-xi", metavar="ORD",
                   help="order of the functional family (default: space order)")
    p.add_argument("--weak-limit", metavar="VEC",
                   help="recenter by this vector (default: zero)")
    p.set_defaults(handler=_cmd_q_large)
    p = ops.add_parser("prop-formula", parents=[fmt],
                       help="the two-term ratio formula")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(handler=_cmd_q_prop_formula)
