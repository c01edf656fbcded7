"""Span tracing of the symrank layers, installed from outside the package.

install() wraps the public functions of each layer module (plus the two
private table builders) and rebinds every name in every loaded symrank
module that refers to a wrapped function, so calls made through
``from .spectral import apply_A`` are caught as well.  Spans stay in memory
as [name, parent index, start, end, extra] until summary() and
write_spans() run after the timed region.
"""

import functools
import json
import sys
import time
import types

LAYERS = ("cli", "experiments", "rank", "pinv", "spectral", "operators", "zoo")
# private, but they are the process-level table caches the tables layer reports
TABLES = ("spectral._symbol_tensor", "spectral._kernel_projector_table")
TRANSFORMS = ("spectral.forward_transform", "spectral.inverse_transform")
RATIO = "experiments.estimate_ratio"


def _traceable(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self.originals = {}

    def install(self) -> None:
        """Wrap the layer functions; the symrank modules must already be imported."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"symrank.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if not _traceable(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and name not in TABLES:
                    continue
                self.originals[name] = obj
                wrappers[id(obj)] = self._wrap(name, obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "symrank" and not module_name.startswith("symrank."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        measure = _MEASURES.get(name)
        cached = hasattr(fn, "cache_info")

        def traced(*args, **kwargs):
            span = [name, stack[-1], clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            misses = fn.cache_info().misses if cached else 0
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if cached and fn.cache_info().misses > misses:
                span[4] = {"miss_bytes": int(result.nbytes)}
            elif measure is not None:
                span[4] = measure(args, result)
            return result

        functools.update_wrapper(traced, fn)
        if cached:
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def summary(self) -> dict:
        """Per-function calls and self time, plus the counters the per-layer metrics need."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        functions = {}
        extra = {"transform_points": 0, "transform_bytes": 0, "transforms_in_ratio": 0,
                 "table_bytes": 0, "symbol_stack_directions": 0, "decell_raises": 0}
        for index, (name, parent, start, end, info) in enumerate(spans):
            entry = functions.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child_time[index]
            if info is None:
                continue
            if name in TABLES:
                extra["table_bytes"] += info.get("miss_bytes", 0)
            elif name in TRANSFORMS:
                extra["transform_points"] += info["points"]
                extra["transform_bytes"] += info["bytes"]
                if _has_ancestor(spans, parent, RATIO):
                    extra["transforms_in_ratio"] += 1
            elif name == "operators.symbol_stack":
                extra["symbol_stack_directions"] += info["directions"]
            elif name == "pinv.pinv_decell" and info.get("raised") == "IllConditionedError":
                extra["decell_raises"] += 1
        tables = {"hits": 0, "misses": 0}
        for name in TABLES:
            info = self.originals[name].cache_info()
            tables["hits"] += info.hits
            tables["misses"] += info.misses
        return {"functions": functions, "tables": tables, "span_count": len(spans), **extra}

    def write_spans(self, path) -> None:
        """One JSON line per span: index, parent index, name, start and end in seconds."""
        with open(path, "w") as handle:
            for index, (name, parent, start, end, info) in enumerate(self.spans):
                row = [index, parent, name, start, end]
                if info is not None:
                    row.append(info)
                handle.write(json.dumps(row) + "\n")


def _has_ancestor(spans, index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][1]
    return False


def _transform_size(args, result) -> dict:
    # input and output arrays are both read or written once per transform
    source = args[0]
    data = getattr(source, "data", None)
    if data is None:
        data = source.coeffs
    out = getattr(result, "coeffs", None)
    if out is None:
        out = result.data
    return {"points": int(data.size), "bytes": int(data.nbytes + out.nbytes)}


_MEASURES = {
    "spectral.forward_transform": _transform_size,
    "spectral.inverse_transform": _transform_size,
    "operators.symbol_stack": lambda args, result: {"directions": int(result.shape[0])},
}
