"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps, in an already imported ``polycauchy``, every public
function of the seven layer modules (``exact``, ``poly``, ``series``,
``sequences``, ``second_kind``, ``verify``, ``cli``) and the arithmetic
methods of ``Polynomial``, ``TruncatedSeries``, ``ConnectionMatrix`` and
``VerificationReport``.  Every module namespace that imported one of those
functions is re-pointed at the wrapper, so calls between modules are seen.
Two hot constructors are counted rather than spanned: ``Fraction.__new__``
and the coefficients each new ``Polynomial`` keeps.  Memo hits and misses
are read from the ``lru_cache`` statistics and Stirling rows from the shared
table, as differences between ``begin`` and ``finish``.

Each span is (name, start, end, parent, run); spans live in flat arrays
while the traced region runs and are written out by ``write`` afterwards.
A span's self time is its duration minus the durations of its children; the
root span covers the whole region, so self times summed over all spans equal
the region's wall time.
"""

from __future__ import annotations

import array
import fractions
import gzip
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("exact", "poly", "series", "sequences", "second_kind", "verify", "cli")
ROOT = "bench.region"

_POLY_METHODS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
    "__rtruediv__": "div", "__pow__": "pow", "__call__": "eval", "shift": "shift",
    "derivative": "derivative", "__eq__": "eq",
}
_SERIES_METHODS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
    "invert": "invert", "compose": "compose", "derivative": "derivative",
    "multiply_by_t": "multiply_by_t", "divided_by_t": "divided_by_t",
    "sequence_value": "sequence_value", "__eq__": "eq",
}
# (layer, class name) -> {method: span suffix}
_METHODS = {
    ("poly", "Polynomial"): _POLY_METHODS,
    ("series", "TruncatedSeries"): _SERIES_METHODS,
    ("second_kind", "ConnectionMatrix"): {"reconstruct": "reconstruct"},
    ("verify", "VerificationReport"): {"rows": "rows"},
}

# Per-layer metric groups: metric name -> span names whose self times add up.
_GROUPS = {
    "sequences.families.self_s": (
        "lif_series", "t_over_log1p_series", "bernoulli_2nd_poly", "bernoulli_2nd_number",
        "bernoulli_high_order_poly", "frobenius_euler_poly", "narumi_poly",
        "bernoulli2nd_convolution",
    ),
    "second_kind.closed.self_s": ("number_closed", "poly_closed", "closed_coefficient"),
    "second_kind.oracle.self_s": ("poly_oracle", "number_oracle", "gf_number_series"),
    "second_kind.connection.self_s": (
        "connection_to_falling", "connection_to_bernoulli", "connection_to_frobenius",
        "connection_by_triangular_solve", "bernoulli2nd_power_weight", "basis_member",
    ),
    "second_kind.reconstruct.self_s": ("reconstruct",),
    "second_kind.identity_rhs.self_s": (
        "number_bernoulli_form", "theorem1_rhs_coefficient", "addition_rhs",
        "difference_sides", "recurrence_theorem2_rhs", "recurrence_theorem3_rhs",
        "theorem4_sides", "theorem4_m1_corrected_sides", "derivative_formula",
    ),
}
_SELF = {
    "exact.format_rational.self_s": "exact.format_rational",
    "exact.parse_rational.self_s": "exact.parse_rational",
    "poly.mul.self_s": "poly.mul",
    "poly.add.self_s": "poly.add",
    "poly.shift.self_s": "poly.shift",
    "poly.eval.self_s": "poly.eval",
    "series.mul.self_s": "series.mul",
    "series.invert.self_s": "series.invert",
    "series.compose.self_s": "series.compose",
    "series.pow.self_s": "series.pow",
    "cli.render_s": "cli.main",
}
_CALLS = {
    "exact.format_rational.calls": "exact.format_rational",
    "poly.mul.calls": "poly.mul",
    "series.mul.calls": "series.mul",
    "sequences.stirling1.calls": "sequences.stirling1",
}
_MEMO_LAYERS = ("sequences", "second_kind")


class Tracer:
    """Records spans while installed; one tracer per process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("H")
        self.parent = array.array("q")
        self.run = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = [-1]
        self.run_id = 0
        self._fractions = itertools.count()
        self.poly_coeffs = 0
        self._stirling = None
        self._memos: dict[str, list] = {}
        self._memo_base: dict[str, tuple[int, int]] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap the layers of the imported ``polycauchy`` package."""
        import importlib

        package = importlib.import_module("polycauchy")
        modules = {layer: importlib.import_module(f"polycauchy.{layer}") for layer in LAYERS}
        for layer in _MEMO_LAYERS:
            module = modules[layer]
            self._memos[layer] = [
                obj for obj in vars(module).values()
                if callable(getattr(obj, "cache_info", None))
                and getattr(obj, "__module__", None) == module.__name__
            ]
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                is_function = inspect.isfunction(obj) or callable(getattr(obj, "cache_info", None))
                if not is_function or getattr(obj, "__module__", None) != module.__name__:
                    continue
                replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])
        for (layer, cls_name), methods in _METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for method, suffix in methods.items():
                if method in vars(cls):
                    setattr(cls, method, self._wrap(vars(cls)[method], f"{layer}.{suffix}"))
        self._stirling = modules["sequences"]._TABLE
        self._count_constructors(modules["poly"].Polynomial)

    def _count_constructors(self, polynomial_cls) -> None:
        counter = self._fractions
        original_new = fractions.Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            next(counter)
            return original_new(cls, *args, **kwargs)

        fractions.Fraction.__new__ = staticmethod(counted_new)
        original_init = polynomial_cls.__init__
        tracer = self

        def counted_init(poly, *args, **kwargs):
            original_init(poly, *args, **kwargs)
            tracer.poly_coeffs += len(poly.coeffs)

        polynomial_cls.__init__ = counted_init

    def fraction_count(self) -> int:
        # repr(itertools.count(5)) == "count(5)"; reading it does not advance it.
        return int(repr(self._fractions)[6:-1])

    def _memo_totals(self, layer: str) -> tuple[int, int]:
        hits = misses = 0
        for memo in self._memos.get(layer, ()):
            info = memo.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def begin(self) -> None:
        """Open the root span; counters restart here."""
        self._fraction_base = self.fraction_count()
        self._poly_base = self.poly_coeffs
        self._stirling_base = len(self._stirling._rows)
        self._memo_base = {layer: self._memo_totals(layer) for layer in _MEMO_LAYERS}
        root = self._name_id(ROOT)
        self.name.append(root)
        self.parent.append(-1)
        self.run.append(-1)
        self.end.append(0)
        self.stack.append(len(self.start))
        self.start.append(time.perf_counter_ns())

    def finish(self) -> None:
        """Close the root span opened by ``begin``."""
        root = self.stack.pop()
        self.end[root] = time.perf_counter_ns()
        self._fraction_end = self.fraction_count()
        self._poly_end = self.poly_coeffs
        self._stirling_end = len(self._stirling._rows)
        self._memo_end = {layer: self._memo_totals(layer) for layer in _MEMO_LAYERS}

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the closed region (values in seconds or counts)."""
        count = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(count)]
        child = [0] * count
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                child[parent] += durations[i]
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for i in range(count):
            name = self.names[self.name[i]]
            self_ns[name] += durations[i] - child[i]
            total_ns[name] += durations[i]
            calls[name] += 1

        out: dict[str, float] = {}
        out["trace.wall_s"] = total_ns[ROOT] / 1e9
        out["trace.spans"] = count
        out["bench.self_s"] = self_ns[ROOT] / 1e9
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for name, v in self_ns.items() if name.startswith(layer + ".")
            ) / 1e9
        out["exact.fraction_new.calls"] = self._fraction_end - self._fraction_base
        for metric, span in _CALLS.items():
            out[metric] = calls[span]
        for metric, span in _SELF.items():
            out[metric] = self_ns[span] / 1e9
        out["poly.init.coeffs"] = self._poly_end - self._poly_base
        for metric, members in _GROUPS.items():
            layer = metric.split(".")[0]
            out[metric] = sum(self_ns[f"{layer}.{m}"] for m in members) / 1e9
        out["sequences.stirling_rows"] = self._stirling_end - self._stirling_base
        for layer in _MEMO_LAYERS:
            hits = self._memo_end[layer][0] - self._memo_base[layer][0]
            misses = self._memo_end[layer][1] - self._memo_base[layer][1]
            out[f"{layer}.memo.hits"] = hits
            out[f"{layer}.memo.misses"] = misses
            out[f"{layer}.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["verify.run_suite.s"] = total_ns["verify.run_suite"] / 1e9
        return out

    def write(self, path: str) -> None:
        """Write every span, gzipped: a JSON header line (span names, count,
        byte order and column layout), then the raw columns name, parent,
        run, start_ns and end_ns in that order.  A parent of -1 marks the root."""
        columns = (("name", self.name), ("parent", self.parent), ("run", self.run),
                   ("start_ns", self.start), ("end_ns", self.end))
        header = {
            "names": self.names,
            "count": len(self.start),
            "byteorder": sys.byteorder,
            "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
        }
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for _, col in columns:
                handle.write(col.tobytes())
