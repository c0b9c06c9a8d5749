"""Spans and counters around relint_kit's public functions, from outside.

The library binds its helpers with `from .lp import simplex_max`-style
imports, so wrapping `lp.simplex_max` alone would miss every caller.
`Tracer.install` therefore rebinds each wrapped function in every
relint_kit module that holds it, and `uninstall` puts the originals back.

A span records (name, layer, parent, start, end); the layer is the module
the function lives in.  Spans stay in memory until the run ends; `write`
then saves them.  Time
spent in `relint_kit.rational` (scalar and vector helpers, far too fine
grained to wrap) counts as self time of the layer that called it.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("lp", "dd", "linalg", "polyhedra", "relint", "separation", "setmaps",
          "sampling", "seqspace", "docio", "cli")
REPORTED_LAYERS = ("lp", "dd", "polyhedra", "relint", "separation", "setmaps",
                   "sampling", "linalg", "cli")
POLYHEDRA_CALLS = ("h_to_v", "v_to_h", "implicit_rows", "feasible_point", "slack_maximum",
                   "linear_image", "minkowski_diff")
# Every function that reaches the simplex without another traced function
# in between; "bench" is the benchmark's own call, "other" anything new.
LP_CALLERS = ("bench", "feasible_point", "slack_maximum", "implicit_rows", "same_set",
              "v_member", "ri_point", "cone_contains", "properly_separate",
              "separation_iff_ri_disjoint", "strict_separate_in_flat",
              "linear_image_ri_commutes", "other")
DETERMINISTIC = ("lp.pivots", "lp.calls", "lp.repeat_calls", "dd.input_rows",
                 "dd.output_gens", "cache.hits", "cache.misses")


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "relint_kit" or name.startswith("relint_kit.")]


def memo_tables() -> list:
    """Every memoized function of relint_kit, once each: several are
    re-exported into other modules under the same name."""
    tables = {}
    for mod in package_modules():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and callable(getattr(obj, "cache_info", None)):
                tables[id(obj)] = obj
    return list(tables.values())


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class Tracer:
    def __init__(self):
        self.active = False
        self._wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"relint_kit.{layer}"]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                self._wrappers[id(obj)] = (obj, self._wrap(obj, name, layer))
        self._bound: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int | None] = [None]
        self.counts = Counter()
        self.callers = Counter()
        self._lp_inputs: set = set()

    def install(self) -> None:
        for mod in package_modules():
            for name, obj in list(vars(mod).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, name, entry[1])
                    self._bound.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in self._bound:
            setattr(mod, name, obj)
        self._bound.clear()

    def begin(self, name: str) -> None:
        """Open the root span of one benchmark operation."""
        self.stack.append(len(self.spans))
        self.spans.append([name, "bench", None, perf_counter(), 0.0])
        self.active = True

    def end(self) -> None:
        self.spans[self.stack.pop()][4] = perf_counter()
        self.active = False

    def _wrap(self, fn, name: str, layer: str):
        hook = {"simplex_max": self._on_simplex, "dd_cone": self._on_dd}.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [name, layer, stack[-1], perf_counter(), 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _caller(self) -> str:
        """The innermost open span outside the lp layer."""
        for idx in reversed(self.stack[1:]):
            name, layer = self.spans[idx][:2]
            if layer != "lp":
                name = "bench" if layer == "bench" else name
                return name if name in LP_CALLERS else "other"
        return "other"

    def _on_simplex(self, args, kwargs, result) -> None:
        status, _, pivots = result
        key = _freeze((args, sorted(kwargs.items())))
        self.counts["lp.calls"] += 1
        self.counts["lp.pivots"] += pivots
        self.counts[f"lp.{status}"] += 1
        if key in self._lp_inputs:
            self.counts["lp.repeat_calls"] += 1
        self._lp_inputs.add(key)
        self.callers[self._caller()] += 1

    def _on_dd(self, args, kwargs, result) -> None:
        lineality, rays = result
        self.counts["dd.calls"] += 1
        self.counts["dd.input_rows"] += len(args[0])
        self.counts["dd.output_gens"] += len(lineality) + len(rays)

    def write(self, path: Path) -> None:
        """The spans as tab-separated lines: index, parent, layer, name,
        start and end in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][3] if self.spans else 0.0
        with path.open("w") as out:
            out.write("index\tparent\tlayer\tname\tstart_s\tend_s\n")
            for i, (name, layer, parent, start, end) in enumerate(self.spans):
                parent = "" if parent is None else parent
                out.write(f"{i}\t{parent}\t{layer}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\n")

    def self_times(self) -> tuple[dict, float]:
        """Self seconds per layer (docio split into parse and dump) and the
        total wall time of the root spans."""
        child = [0.0] * len(self.spans)
        for name, layer, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        times = Counter()
        total = 0.0
        for (name, layer, parent, start, end), inner in zip(self.spans, child):
            own = end - start - inner
            if layer == "docio":
                layer = "docio.parse" if name.startswith("parse") else "docio.dump"
            times[layer] += own
            if parent is None:
                total += end - start
        return times, total

    def per_layer(self) -> tuple[dict, dict]:
        """(metrics for the result line, self seconds per layer)."""
        times, total = self.self_times()
        names = Counter(name for name, layer, *_ in self.spans if layer == "polyhedra")
        metrics = {}
        for layer in REPORTED_LAYERS:
            metrics[f"{layer}.share"] = (times[layer] / total, "ratio")
        metrics["docio.parse_share"] = (times["docio.parse"] / total, "ratio")
        metrics["docio.dump_share"] = (times["docio.dump"] / total, "ratio")
        for key in ("lp.calls", "lp.pivots", "lp.repeat_calls", "lp.optimal", "lp.infeasible",
                    "lp.unbounded", "dd.calls", "dd.input_rows", "dd.output_gens"):
            metrics[key] = (self.counts[key], "count")
        for caller in LP_CALLERS:
            metrics[f"lp.calls_by_caller.{caller}"] = (self.callers[caller], "count")
        for fn in POLYHEDRA_CALLS:
            metrics[f"polyhedra.{fn}.calls"] = (names[fn], "count")
        self_s = {f"{layer}.self_s": times[layer] for layer in REPORTED_LAYERS}
        self_s["docio.parse_s"] = times["docio.parse"]
        self_s["docio.dump_s"] = times["docio.dump"]
        self_s["bench.self_s"] = times["bench"]
        return metrics, self_s
