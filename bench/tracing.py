"""Per-layer spans and counters, recorded from outside the program.

``install`` wraps the public functions and methods of every schreier_lab
module (its ``__all__``, or its public names when it has none) and rebinds
every module attribute that refers to the same function, so ``norm`` is
traced whether it is reached through ``spaces``, ``quantities`` or
``verify``.  Methods are wrapped on their class.  Generators are timed per
``next()``.  The one private name wrapped is the membership probe
``schreier._member``, the boundary every other layer crosses into
``schreier``.  Other private helpers, and defaults bound at definition time
(``fs=default_fundamental_seq``), are not reached; their work shows as self
time of the nearest wrapped caller.

Spans (name, start, end, parent span, operation id) stay in memory up to a
cap and are written out by ``write_spans``; the per-layer totals are kept
online, so the cap never changes them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types

LAYERS = ("ordinal", "streams", "schreier", "averages", "vectors", "spaces",
          "quantities", "verify", "reports", "budget", "cli")

# Operators are the vector layer's accumulation primitive; other dunders
# (hashing, comparison, construction) are left alone.
_TRACED_DUNDERS = {"__add__", "__sub__", "__neg__"}

# Private names that are still layer boundaries: the membership probe is how
# ``spaces`` and the family enumeration reach ``schreier``, and ``spaces``
# imports it directly.
_BOUNDARY_PRIVATE = {"schreier": ("_member",)}

_NORM_KIND_COUNTER = {
    "schreier": "spaces.schreier.busy_s",
    "schreier_star": "spaces.star.busy_s",
    "baernstein": "spaces.baernstein.busy_s",
}

SPAN_CAP = 200_000


class Tracer:
    """Span stack and per-layer totals for one process."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans: list = []
        self.spans_dropped = 0
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []
        self._depth = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        # id(exception) -> [exception, duration of the outermost span it left]
        self._refusals: dict[int, list] = {}
        self._refusal_type: type | None = None

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def parent_layer(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def enter(self, layer: str, name: str) -> list:
        parent = self._stack[-1][5] if self._stack else -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -1
            self.spans_dropped += 1
        outermost = self._depth[layer] == 0
        self._depth[layer] += 1
        # [layer, name, start, child time, outermost, span index, parent index]
        frame = [layer, name, time.perf_counter(), 0.0, outermost, index, parent]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list, exc: BaseException | None) -> float:
        end = time.perf_counter()
        if self._stack and self._stack[-1] is frame:
            self._stack.pop()
        else:
            self._stack.remove(frame)
        layer, name, start, child, outermost, index, parent = frame
        duration = end - start
        self._depth[layer] -= 1
        self.calls[layer] += 1
        self.self_time[layer] += duration - child
        if outermost:
            self.busy[layer] += duration
        if self._stack:
            self._stack[-1][3] += duration
        if index >= 0:
            self.spans[index] = (name, start, end, parent, self.op_id)
        if exc is not None:
            self.refused(exc, duration)
        return duration

    def refused(self, exc: BaseException, duration: float) -> None:
        """Charge a refusal with the longest span it propagated out of."""
        if self._refusal_type is not None and isinstance(exc, self._refusal_type):
            seen = self._refusals.setdefault(id(exc), [exc, 0.0])
            seen[1] = max(seen[1], duration)

    def summary(self) -> dict:
        """Per-layer calls, busy and self seconds, and the counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.busy_s"] = self.busy[layer]
            out[f"{layer}.self_s"] = self.self_time[layer]
        out["budget.refusals"] = len(self._refusals)
        out["budget.refusal_busy_s"] = sum(d for _, d in self._refusals.values())
        out.update(self.counters)
        return out

    def write_spans(self, path: str) -> None:
        """Append the recorded spans to ``path`` as JSON lines."""
        with open(path, "a") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
            if self.spans_dropped:
                fh.write(json.dumps({"dropped": self.spans_dropped}) + "\n")


def merge(summaries: list[dict]) -> dict:
    """Combine per-process summaries: maxima for ``*_max``, sums otherwise."""
    out: dict[str, float] = {}
    for summary in summaries:
        for name, value in summary.items():
            if name.endswith("_max"):
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
    return out


# -- result hooks: counters measured where the work happens --------------------


def _norm_hook(tracer, args, kwargs, result, duration):
    spec = args[0] if args else kwargs.get("spec")
    x = args[1] if len(args) > 1 else kwargs.get("x")
    counter = _NORM_KIND_COUNTER.get(getattr(spec, "kind", None))
    if counter is not None:
        tracer.add(counter, duration)
        tracer.maximum("spaces.norm_support_max", len(x))


def _nibcc_hook(tracer, args, kwargs, result, duration):
    y = args[1] if len(args) > 1 else kwargs.get("y", ())
    tracer.add("averages.nibcc_y_vectors", len(y))


def _materialize_hook(tracer, args, kwargs, result, duration):
    # Averaging vectors are built by ProbVector.unit/average under an
    # averages-layer caller; count their entries there.
    if result is not None and tracer.parent_layer() == "averages":
        tracer.add("averages.entries_materialized", len(result))


_HOOKS = {
    "spaces.norm": _norm_hook,
    "averages.check_nibcc": _nibcc_hook,
    "vectors.ProbVector.unit": _materialize_hook,
    "vectors.ProbVector.average": _materialize_hook,
}


def _vector_result_hook(tracer, result):
    if result is not None and type(result).__name__ in ("RatVec", "ProbVector"):
        tracer.add("vectors.entries_out", len(result))


class _TracedIterator:
    """Times each ``next()`` of a wrapped generator as its own span.

    A refusal raised inside the generator is charged with all the time
    spent in it, not only the last ``next()``.
    """

    __slots__ = ("_it", "_tracer", "_layer", "_name", "_counter", "_elapsed")

    def __init__(self, it, tracer, layer, name, counter):
        self._it, self._tracer, self._layer = it, tracer, layer
        self._name, self._counter = name, counter
        self._elapsed = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.active:
            return next(self._it)
        frame = tracer.enter(self._layer, self._name)
        try:
            item = next(self._it)
        except StopIteration:
            self._elapsed += tracer.leave(frame, None)
            raise
        except BaseException as exc:
            self._elapsed += tracer.leave(frame, exc)
            tracer.refused(exc, self._elapsed)
            raise
        self._elapsed += tracer.leave(frame, None)
        if self._counter:
            tracer.add(self._counter, 1)
        return item


def _wrap(tracer: Tracer, layer: str, qualname: str, fn):
    name = f"{layer}.{qualname}"
    hook = _HOOKS.get(name)
    vectors = layer == "vectors"

    if inspect.isgeneratorfunction(fn):
        counter = "schreier.sets_enumerated" if name == "schreier.enumerate_family" else None

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            return _TracedIterator(fn(*args, **kwargs), tracer, layer,
                                   name + ".next", counter)
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            duration = tracer.leave(frame, exc)
            if hook is not None:
                hook(tracer, args, kwargs, None, duration)
            raise
        duration = tracer.leave(frame, None)
        if hook is not None:
            hook(tracer, args, kwargs, result, duration)
        if vectors:
            _vector_result_hook(tracer, result)
        return result
    return traced


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return list(names)


def _wrap_class(tracer: Tracer, layer: str, cls: type) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in _TRACED_DUNDERS:
            continue
        qualname = f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_wrap(tracer, layer, qualname, raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(_wrap(tracer, layer, qualname, raw.__func__)))
        elif isinstance(raw, types.FunctionType):
            setattr(cls, attr, _wrap(tracer, layer, qualname, raw))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public API in place; call once per process."""
    package = importlib.import_module("schreier_lab")
    modules = {layer: importlib.import_module(f"schreier_lab.{layer}")
               for layer in LAYERS}
    bindings = [package, *modules.values()]
    tracer._refusal_type = getattr(modules["budget"], "BudgetExceededError", None)
    for layer, module in modules.items():
        for attr in _public_names(module) + list(_BOUNDARY_PRIVATE.get(layer, ())):
            obj = getattr(module, attr, None)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                if not issubclass(obj, BaseException):
                    _wrap_class(tracer, layer, obj)
            elif callable(obj):
                wrapped = _wrap(tracer, layer, attr, obj)
                for target in bindings:
                    for name, value in list(vars(target).items()):
                        if value is obj:
                            setattr(target, name, wrapped)


def program_state() -> tuple[dict, list[str]]:
    """Counters the program already exposes, read defensively.

    Returns the values found and the names of counters that are absent, so
    that a refactor removing one is reported instead of crashing the run.
    """
    found: dict[str, float] = {}
    absent: list[str] = []
    try:
        member = importlib.import_module("schreier_lab.schreier")._member
        info = getattr(member, "__wrapped__", member).cache_info()
        found["schreier.member_cache_hits"] = info.hits
        found["schreier.member_cache_misses"] = info.misses
        found["schreier.member_cache_size"] = info.currsize
    except (ImportError, AttributeError):
        absent += ["schreier.member_cache_hits", "schreier.member_cache_misses",
                   "schreier.member_cache_size"]
    try:
        averages = importlib.import_module("schreier_lab.averages")
    except ImportError:
        averages = None
    for counter, attr in (("averages.extent_cache_size", "_EXTENT_CACHE"),
                          ("averages.averages_cache_size", "_AVERAGES_CACHE")):
        try:
            found[counter] = len(getattr(averages, attr))
        except (AttributeError, TypeError):
            absent.append(counter)
    return found, absent
