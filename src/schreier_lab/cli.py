"""Command line front end.

Each command group mirrors one library module.  Results print as ``key =
value`` lines by default or as a sorted, indented JSON document with
``--format json``; exact rationals cross the boundary as ``p/q`` strings.
Vector-valued flags accept inline JSON or ``@path`` to read a file.

The ``avg`` and ``norm`` groups run their primary operation when no
sub-operation is named, so ``avg --xi w --stream all --n 5`` and
``norm --space schreier --xi 1 --vec @x.json`` work as written.

Each group imports its layer when one of its commands runs, not when the
parser is built.  So an ``ord`` command loads only the ordinals, the
``avg`` and ``norm`` commands load neither the quantities nor the bundles,
and the ``quantity`` commands load no bundles.  The sequence flags build a
:class:`~schreier_lab.vectors.SeqSpec` from the vector layer, so ``avg
apply`` loads no norm either.
"""

from __future__ import annotations

import argparse
import json
import sys

from .budget import BudgetExceededError, get_budget

_SPACE_KINDS = ("l1", "l2", "sup", "schreier", "star", "baernstein")


# -- input and output helpers ----------------------------------------------------


# Parsers of the textual arguments, each importing the layer that owns the syntax.


def _ordinal(text: str):
    from .ordinal import parse
    return parse(text)


def _stream(text: str):
    from .streams import parse_stream
    return parse_stream(text)


def _fraction(text: str):
    from .vectors import parse_fraction
    return parse_fraction(text)


def _read_arg(text: str) -> str:
    if text.startswith("@"):
        from pathlib import Path
        return Path(text[1:]).read_text()
    return text


def _load_vector(text: str):
    from .vectors import RatVec
    return RatVec.from_json(_read_arg(text))


def _load_vector_list(text: str) -> list:
    from .vectors import RatVec
    data = json.loads(_read_arg(text))
    if not isinstance(data, list):
        raise ValueError("expected a JSON list of vectors")
    return [RatVec.from_obj(item) for item in data]


def _space_spec(space: str, xi_text: str | None):
    from .spaces import NormSpec
    if xi_text is None:
        return NormSpec.parse(space)
    return NormSpec.parse(f"{space}:{xi_text}")


def _ambient_spec(args):
    order = getattr(args, "space_xi", None) or getattr(args, "xi", None)
    if args.space in ("l1", "l2", "sup"):
        return _space_spec(args.space, None)
    if order is None:
        raise ValueError(f"--space {args.space} needs --space-xi")
    return _space_spec(args.space, order)


def _sequence(args, ambient):
    """The vector sequence named by the sequence flags, in ``ambient``."""
    from .vectors import (CanonicalBasis, ExplicitSequence, Subsequence,
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


def _value_fields(value) -> dict:
    from fractions import Fraction
    from .vectors import format_fraction
    exact = format_fraction(value) if isinstance(value, Fraction) else None
    return {"value": exact, "approx": float(value)}


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


def _emit_report(args, report) -> int:
    if args.format == "json":
        sys.stdout.write(report.json_bytes().decode())
    else:
        sys.stdout.write(report.render_text())
    return report.exit_code


# -- ord -------------------------------------------------------------------------


def _cmd_ord_parse(args) -> int:
    from .ordinal import classify
    x = _ordinal(args.text)
    _emit(args, {"ordinal": str(x), "kind": classify(x).kind})
    return 0


def _cmd_ord_classify(args) -> int:
    from .ordinal import classify
    x = _ordinal(args.xi)
    kind, pred = classify(x)
    _emit(args, {"ordinal": str(x), "kind": kind,
                 "predecessor": None if pred is None else str(pred)})
    return 0


def _cmd_ord_fseq(args) -> int:
    from .ordinal import default_fundamental_seq
    x = _ordinal(args.xi)
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    work = get_budget().work
    if args.n > work:
        raise BudgetExceededError("fundamental-sequence terms", work, needed=args.n)
    values = [str(default_fundamental_seq(x, n)) for n in range(1, args.n + 1)]
    _emit(args, {"ordinal": str(x), "n": args.n, "sequence": values})
    return 0


# -- schreier --------------------------------------------------------------------


def _cmd_schreier_member(args) -> int:
    """``member``, ``oracle``, ``image`` and ``trace``: the op names the test,
    which takes the order, the stream when the op has one, and the set."""
    from .schreier import (FinSet, is_member, is_member_image,
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
    from .schreier import _family
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
    from .schreier import count_family
    count = count_family(_ordinal(args.xi), args.max_value)
    _emit(args, {"xi": args.xi, "max_value": args.max_value, "count": count})
    return 0


def _cmd_schreier_threshold(args) -> int:
    from .schreier import threshold
    n = threshold(_ordinal(args.zeta), _ordinal(args.xi), args.max_value)
    _emit(args, {"zeta": args.zeta, "xi": args.xi,
                 "max_value": args.max_value, "threshold": n})
    return 0


# -- avg -------------------------------------------------------------------------


def _nibcc_witness(args):
    """The combined and original vectors, from files or generated, and the
    block combination witness between them (``None`` when there is none)."""
    from .averages import check_nibcc, successor_pair_prefix
    from .vectors import ProbVector
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
    from .averages import repeated_avg
    vec = repeated_avg(_ordinal(args.xi), _stream(args.stream), args.n)
    _emit(args, {"xi": args.xi, "stream": args.stream, "n": args.n,
                 "size": len(vec), "vector": vec.to_map()})
    return 0


def _cmd_avg_size(args) -> int:
    from .averages import support_size
    size = support_size(_ordinal(args.xi), _stream(args.stream), args.n)
    _emit(args, {"xi": args.xi, "stream": args.stream, "n": args.n,
                 "size": size})
    return 0


def _cmd_avg_apply(args) -> int:
    from .averages import RepeatedAverages, apply
    method = RepeatedAverages(_ordinal(args.xi), _stream(args.stream))
    out = apply(method, _sequence(args, None), args.n)
    _emit(args, {"xi": args.xi, "stream": args.stream, "n": args.n,
                 "vector": out.to_map()})
    return 0


def _cmd_avg_pair_sum(args) -> int:
    from .averages import pair_sum
    from .schreier import FinSet
    from .vectors import format_fraction
    value = pair_sum(_load_vector(args.vec), FinSet.parse(args.set))
    _emit(args, {"set": args.set, "value": format_fraction(value)})
    return 0


def _cmd_avg_validate(args) -> int:
    from .averages import validate_prefix
    from .vectors import ProbVector
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
    from .vectors import format_fraction
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
    from .averages import cesaro_reweight
    from .vectors import format_fraction
    _, _, witness = _nibcc_witness(args)
    if witness is None:
        raise ValueError("no block combination witness; nothing to reweight")
    beta = cesaro_reweight(witness, args.n)
    _emit(args, {"n": args.n,
                 "beta": {str(j): format_fraction(v) for j, v in beta.items()},
                 "total": format_fraction(sum(beta.values(), Fraction(0)))})
    return 0


# -- norm ------------------------------------------------------------------------


def _cmd_norm_eval(args) -> int:
    """``eval`` and ``oracle``: the search, or its brute-force cross-check."""
    from .spaces import norm, norm_oracle
    evaluate = norm if args.op == "eval" else norm_oracle
    spec = _space_spec(args.space, args.xi)
    result = evaluate(spec, _load_vector(args.vec))
    _emit(args, result.to_json())
    return 0


def _cmd_norm_functional(args) -> int:
    from .schreier import FinSet
    from .spaces import coordinate_sum_functional
    from .vectors import format_fraction
    spec = _space_spec(args.space, args.xi)
    functional = coordinate_sum_functional(FinSet.parse(args.set), spec)
    payload = functional.to_json()
    if args.vec is not None:
        value = functional.evaluate(_load_vector(args.vec),
                                    check=not args.no_check)
        payload["value"] = format_fraction(value)
    _emit(args, payload)
    return 0


# -- quantity --------------------------------------------------------------------


def _window_payload(args, ambient, xs, kind: str, value) -> dict:
    payload = {"kind": kind, "space": str(ambient), "sequence": xs.name,
               "window": [args.n0, args.N]}
    payload.update(_value_fields(value))
    return payload


def _cmd_q_window(args) -> int:
    """``ca`` and ``cca``: the op names the constant."""
    from .quantities import ca_window, cca_window
    window = ca_window if args.op == "ca" else cca_window
    ambient = _ambient_spec(args)
    xs = _sequence(args, ambient)
    _emit(args, _window_payload(args, ambient, xs, args.op,
                                window(xs, args.n0, args.N)))
    return 0


def _cmd_q_cca_xi(args) -> int:
    from .quantities import cca_xi_window
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
    from .quantities import cca_xi_tilde, cca_xi_tilde_sup
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
    from .quantities import sm_constant
    ambient = _ambient_spec(args)
    xs = _sequence(args, ambient)
    est = sm_constant(_ordinal(args.xi), xs, args.N, args.coeff_budget)
    payload = est.to_json()
    payload.update({"kind": "sm", "xi": args.xi, "space": str(ambient),
                    "sequence": xs.name})
    _emit(args, payload)
    return 0


def _gamma_order(args, ambient):
    if args.gamma_xi is not None:
        return _ordinal(args.gamma_xi)
    if ambient.xi is None:
        raise ValueError(f"--space {args.space} needs an explicit --gamma-xi")
    return ambient.xi


def _cmd_q_fdelta(args) -> int:
    from .quantities import _sum_functionals, f_delta
    ambient = _ambient_spec(args)
    xs = _sequence(args, ambient)
    functionals = _sum_functionals(_gamma_order(args, ambient), ambient, args.N)
    family = f_delta(functionals, xs, _fraction(args.delta), args.N)
    payload = family.to_json()
    payload.update({"kind": "fdelta", "space": str(ambient),
                    "functionals": len(functionals)})
    _emit(args, payload)
    return 0


def _cmd_q_large(args) -> int:
    from .quantities import _sum_functionals, large_check
    ambient = _ambient_spec(args)
    xs = _sequence(args, ambient)
    functionals = _sum_functionals(_gamma_order(args, ambient), ambient, args.N)
    weak_limit = None if args.weak_limit is None else _load_vector(args.weak_limit)
    result = large_check(_ordinal(args.xi), _fraction(args.c), xs,
                         _stream(args.stream), functionals, args.N,
                         weak_limit=weak_limit)
    payload = result.to_json()
    payload.update({"kind": "large", "space": str(ambient),
                    "c": args.c, "functionals": len(functionals)})
    _emit(args, payload)
    return 0 if result.ok else 1


def _cmd_q_prop_formula(args) -> int:
    from .quantities import prop_formula
    values = prop_formula(args.l, _fraction(args.c))
    _emit(args, values.to_json())
    return 0


# -- verify ----------------------------------------------------------------------


def _cmd_verify_schreier(args) -> int:
    from .verify import verify_example_schreier
    c_override = None if args.c_override is None else _fraction(args.c_override)
    report = verify_example_schreier(_ordinal(args.xi), args.N,
                                     args.coeff_budget, c_override=c_override)
    return _emit_report(args, report)


def _cmd_verify_star(args) -> int:
    from .verify import verify_example_star
    report = verify_example_star(_ordinal(args.xi), args.N,
                                 args.coeff_budget)
    return _emit_report(args, report)


def _cmd_verify_prop(args) -> int:
    from .verify import verify_prop_formula
    report = verify_prop_formula(args.l_max, _fraction(args.c))
    return _emit_report(args, report)


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="text",
                     help="output format (default: text)")

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

    parser = argparse.ArgumentParser(
        prog="schreier-lab",
        description="Ordinal-indexed families, repeated averages, and the "
                    "norms and constants built from them.")
    groups = parser.add_subparsers(dest="group", required=True)

    # ord
    ord_group = groups.add_parser("ord", help="ordinal arithmetic")
    ord_ops = ord_group.add_subparsers(dest="op", required=True)
    p = ord_ops.add_parser("parse", parents=[fmt], help="parse and normalize")
    p.add_argument("--text", required=True, help="like w^2*3+w+5")
    p.set_defaults(handler=_cmd_ord_parse)
    p = ord_ops.add_parser("classify", parents=[fmt],
                           help="zero, successor, or limit")
    p.add_argument("--xi", required=True)
    p.set_defaults(handler=_cmd_ord_classify)
    p = ord_ops.add_parser("fseq", parents=[fmt],
                           help="prefix of the fundamental sequence")
    p.add_argument("--xi", required=True)
    p.add_argument("--n", type=int, required=True, help="prefix length")
    p.set_defaults(handler=_cmd_ord_fseq)

    # schreier
    sch = groups.add_parser("schreier", help="admissible set families")
    sch_ops = sch.add_subparsers(dest="op", required=True)
    for name, streamed in (("member", False), ("oracle", False),
                           ("image", True), ("trace", True)):
        p = sch_ops.add_parser(name, parents=[fmt],
                               help=f"{name} membership test")
        p.add_argument("--xi", required=True)
        if streamed:
            p.add_argument("--stream", required=True,
                           help="all, shift:<k>, cubes, or evens")
        p.add_argument("--set", required=True, help="like 2,3,7")
        p.set_defaults(handler=_cmd_schreier_member)
    p = sch_ops.add_parser("enum", parents=[fmt],
                           help="every member inside 1..max-value")
    p.add_argument("--xi", required=True)
    p.add_argument("--max-value", type=int, required=True)
    p.add_argument("--limit", type=int, help="print at most this many sets")
    p.set_defaults(handler=_cmd_schreier_enum)
    p = sch_ops.add_parser("count", parents=[fmt],
                           help="number of members inside 1..max-value, "
                                "without listing them")
    p.add_argument("--xi", required=True)
    p.add_argument("--max-value", type=int, required=True)
    p.set_defaults(handler=_cmd_schreier_count)
    p = sch_ops.add_parser("threshold", parents=[fmt],
                           help="smallest min value forcing one family "
                                "into another")
    p.add_argument("--zeta", required=True, help="order of the probed family")
    p.add_argument("--xi", required=True, help="order of the target family")
    p.add_argument("--max-value", type=int, required=True)
    p.set_defaults(handler=_cmd_schreier_threshold)

    # avg; the bare group computes a vector.
    avg = groups.add_parser("avg", help="repeated averaging vectors")
    avg_ops = avg.add_subparsers(dest="op", required=True)
    p = avg_ops.add_parser("vector", parents=[fmt],
                           help="the n-th averaging vector (default op)")
    p.add_argument("--xi", required=True)
    p.add_argument("--stream", default="all")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_avg_vector)
    p = avg_ops.add_parser("size", parents=[fmt],
                           help="support size without materializing")
    p.add_argument("--xi", required=True)
    p.add_argument("--stream", default="all")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_avg_size)
    p = avg_ops.add_parser("apply", parents=[fmt],
                           help="average a vector sequence")
    p.add_argument("--xi", required=True)
    p.add_argument("--stream", default="all")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seq", default="basis",
                   help="basis, or @file with a JSON list of vectors")
    p.set_defaults(handler=_cmd_avg_apply)
    p = avg_ops.add_parser("pair-sum", parents=[fmt],
                           help="coordinate sum over a set")
    p.add_argument("--vec", required=True, help="vector JSON or @file")
    p.add_argument("--set", required=True)
    p.set_defaults(handler=_cmd_avg_pair_sum)
    p = avg_ops.add_parser("validate", parents=[fmt],
                           help="check supports tile a stream prefix")
    p.add_argument("--seq", required=True, help="@file with a JSON list")
    p.add_argument("--stream", default="all")
    p.add_argument("--n", type=int, help="prefix length (default: all)")
    p.set_defaults(handler=_cmd_avg_validate)
    for name, handler in (("nibcc", _cmd_avg_nibcc),
                          ("reweight", _cmd_avg_reweight)):
        p = avg_ops.add_parser(
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

    # norm; the bare group evaluates a norm.
    nrm = groups.add_parser("norm", help="exact norms and functionals")
    nrm_ops = nrm.add_subparsers(dest="op", required=True)
    p = nrm_ops.add_parser("eval", parents=[fmt],
                           help="evaluate a norm (default op)")
    p.add_argument("--space", choices=_SPACE_KINDS, required=True)
    p.add_argument("--xi", help="family order; classical kinds take none")
    p.add_argument("--vec", required=True, help="vector JSON or @file")
    p.set_defaults(handler=_cmd_norm_eval)
    p = nrm_ops.add_parser("oracle", parents=[fmt],
                           help="brute-force cross-check on small supports")
    p.add_argument("--space", choices=_SPACE_KINDS, required=True)
    p.add_argument("--xi")
    p.add_argument("--vec", required=True)
    p.set_defaults(handler=_cmd_norm_eval)
    p = nrm_ops.add_parser("functional", parents=[fmt],
                           help="certified coordinate-sum functional")
    p.add_argument("--space", choices=_SPACE_KINDS, required=True)
    p.add_argument("--xi")
    p.add_argument("--set", required=True)
    p.add_argument("--vec", help="evaluate on this vector")
    p.add_argument("--no-check", action="store_true",
                   help="skip the norm bound check")
    p.set_defaults(handler=_cmd_norm_functional)

    # quantity
    qty = groups.add_parser("quantity", help="finite-horizon constants")
    qty_ops = qty.add_subparsers(dest="op", required=True)
    p = qty_ops.add_parser("ca", parents=[fmt, seq_flags, window],
                           help="largest pairwise distance in the window")
    p.set_defaults(handler=_cmd_q_window)
    p = qty_ops.add_parser("cca", parents=[fmt, seq_flags, window],
                           help="the same over running means")
    p.set_defaults(handler=_cmd_q_window)
    p = qty_ops.add_parser("cca-xi", parents=[fmt, seq_flags, window],
                           help="over running means of the averaged sequence")
    p.add_argument("--xi", required=True)
    p.add_argument("--stream", default="all")
    p.set_defaults(handler=_cmd_q_cca_xi)
    p = qty_ops.add_parser("cca-tilde", parents=[fmt, seq_flags, window],
                           help="best stream in a catalog")
    p.add_argument("--xi", required=True)
    p.add_argument("--catalog", required=True,
                   help="comma list of streams, like all,shift:2,cubes")
    p.set_defaults(handler=_cmd_q_cca_tilde)
    p = qty_ops.add_parser("cca-tilde-sup", parents=[fmt, seq_flags, window],
                           help="worst catalog stream after refinement")
    p.add_argument("--xi", required=True)
    p.add_argument("--catalog", required=True)
    p.set_defaults(handler=_cmd_q_cca_tilde)
    p = qty_ops.add_parser("sm", parents=[fmt, seq_flags],
                           help="spreading-model constant over a horizon")
    p.add_argument("--xi", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--coeff-budget", type=int, default=4,
                   help="sign patterns up to this support size (default: 4)")
    p.set_defaults(handler=_cmd_q_sm)
    p = qty_ops.add_parser("fdelta", parents=[fmt, seq_flags],
                           help="threshold family of certified functionals")
    p.add_argument("--gamma-xi", metavar="ORD",
                   help="order of the functional family (default: space order)")
    p.add_argument("--delta", required=True, help="threshold, like 1/4")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(handler=_cmd_q_fdelta)
    p = qty_ops.add_parser("large", parents=[fmt, seq_flags],
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
    p = qty_ops.add_parser("prop-formula", parents=[fmt],
                           help="the two-term ratio formula")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(handler=_cmd_q_prop_formula)

    # verify
    ver = groups.add_parser("verify", help="reproducible example bundles")
    ver_ops = ver.add_subparsers(dest="op", required=True)
    p = ver_ops.add_parser("example-schreier", parents=[fmt],
                           help="the normalized basis one order up")
    p.add_argument("--xi", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--coeff-budget", type=int, default=3)
    p.add_argument("--c-override", metavar="FRAC",
                   help="replace the default largeness level 1 - 1/N")
    p.set_defaults(handler=_cmd_verify_schreier)
    p = ver_ops.add_parser("example-star", parents=[fmt],
                           help="the sign-split renorming of the basis")
    p.add_argument("--xi", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--coeff-budget", type=int, default=3)
    p.set_defaults(handler=_cmd_verify_star)
    p = ver_ops.add_parser("prop-formula", parents=[fmt],
                           help="tabulate the ratio formula envelopes")
    p.add_argument("--l-max", type=int, required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(handler=_cmd_verify_prop)

    return parser


_DEFAULT_OPS = {
    "avg": ("vector", {"vector", "size", "apply", "pair-sum", "nibcc",
                       "reweight", "validate"}),
    "norm": ("eval", {"eval", "oracle", "functional"}),
}


def _with_default_op(argv: list[str]) -> list[str]:
    """Insert the implied sub-operation, so ``avg --xi 1 ...`` parses."""
    if not argv or argv[0] not in _DEFAULT_OPS:
        return argv
    default, ops = _DEFAULT_OPS[argv[0]]
    rest = argv[1:]
    if rest and (rest[0] in ops or rest[0] in ("-h", "--help")):
        return argv
    return [argv[0], default, *rest]


def _is_ambiguous(exc: BaseException) -> bool:
    """Whether ``exc`` is the averaging layer's AmbiguousReconstructionError.

    Only that layer raises it, so a command that never loaded the layer
    cannot have; asking ``sys.modules`` keeps every other command from
    importing it just to test the type.
    """
    averages = sys.modules.get(f"{__package__}.averages")
    return (averages is not None
            and isinstance(exc, averages.AmbiguousReconstructionError))


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(_with_default_op(raw))
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


if __name__ == "__main__":
    sys.exit(main())
