"""Spans around hadamard6's public functions, installed from outside the package.

A Tracer replaces each listed function at every module binding that holds it
(for example both `hadamard6.cli.charpoly_exact` and
`hadamard6.equivalence.charpoly_exact`) and the CycInt ring methods on the
class itself. Each call becomes a span [name, start_ns, end_ns, parent, op_id,
extra, error], kept in memory; `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

FUNCTIONS = [
    ("cli", "main"), ("cli", "build_claims"), ("catalog", "get"),
    ("matrices", "parse_matrix"), ("matrices", "is_hadamard_exact"),
    ("matrices", "dephase"), ("matrices", "format_matrix"),
    ("invariants", "charpoly_exact"), ("invariants", "spectrum_numeric"),
    ("invariants", "spectrum_distance"), ("invariants", "defect"),
    ("invariants", "haagerup_set"), ("invariants", "eig_real_symmetric"),
    ("equivalence", "standard_equivalent"), ("equivalence", "unitary_equivalent"),
    ("equivalence", "classify"),
]
CYCINT_METHODS = ["__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                  "__rmul__", "__pow__", "conjugate", "to_order", "__eq__"]
MODULES = ["cli", "catalog", "matrices", "cyclo", "invariants", "equivalence"]

# Per-layer metrics reported from the spans: (metric name, unit).
COUNTED = ["matrices.parse_matrix", "matrices.is_hadamard_exact", "matrices.dephase",
           "matrices.format_matrix", "invariants.charpoly_exact",
           "invariants.spectrum_numeric", "invariants.spectrum_distance",
           "invariants.defect", "invariants.haagerup_set", "invariants.eig_real_symmetric",
           "equivalence.standard_equivalent", "equivalence.unitary_equivalent",
           "equivalence.classify"]
LAYER_METRICS = (
    [("cli.import_ms", "ms"), ("cli.main.self_ms", "ms"), ("cli.build_claims.ms", "ms"),
     ("catalog.get.calls", "count")]
    + [(f"{name}.{kind}", unit) for name in COUNTED
       for kind, unit in (("calls", "count"), ("self_ms", "ms"))]
    + [("cyclo.CycInt.ops", "count"), ("cyclo.CycInt.self_ms", "ms"),
       ("invariants.charpoly_exact.distinct_ratio", "ratio"),
       ("equivalence.standard_equivalent.row_perms", "count"),
       ("equivalence.standard_equivalent.prescreen_refuted", "count")]
    + [(f"{m}.errors", "count") for m in MODULES]
    + [("trace.overhead_ratio", "ratio")]
)


def _charpoly_extra(args, kwargs, out):
    b = args[0]
    return hash((b.q, b.exponents))


def _standard_extra(args, kwargs, out):
    prescreen = kwargs.get("prescreen", args[2] if len(args) > 2 else True)
    return [out.search_stats, bool(prescreen and not out.equivalent and out.search_stats == 0)]


EXTRAS = {"invariants.charpoly_exact": _charpoly_extra,
          "equivalence.standard_equivalent": _standard_extra}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        extra = EXTRAS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                    self.op_id, None, False]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                span[6] = True
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        wrappers = {}
        for mod, attr in FUNCTIONS:
            module = sys.modules.get(f"hadamard6.{mod}")
            if module is not None:
                fn = getattr(module, attr)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{attr}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "hadamard6" and not modname.startswith("hadamard6."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        cycint = sys.modules["hadamard6.cyclo"].CycInt
        for meth in CYCINT_METHODS:
            fn = cycint.__dict__[meth]
            self._restore.append((cycint, meth, fn))
            setattr(cycint, meth, self._wrap(f"cyclo.CycInt.{meth}", fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


class LayerTotals:
    """Sums over traced ops; `metrics` divides by the op count."""

    def __init__(self) -> None:
        self.ops = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.row_perms = 0
        self.prescreen_refuted = 0
        self.charpoly_distinct = 0

    def add_op(self, spans) -> None:
        """Fold in the spans of one op; parents index into the same list."""
        self.ops += 1
        child_ns = [0] * len(spans)
        for name, start, end, parent, _op, _extra, _err in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        keys = set()
        for i, (name, start, end, parent, _op, extra, err) in enumerate(spans):
            module = name.split(".")[0]
            self.calls[name] += 1
            self.self_ns[name] += end - start - child_ns[i]
            self.total_ns[name] += end - start
            if err and (parent < 0 or spans[parent][0].split(".")[0] != module):
                self.errors[module] += 1
            if name == "invariants.charpoly_exact":
                keys.add(extra)
            elif name == "equivalence.standard_equivalent" and extra is not None:
                self.row_perms += extra[0]
                self.prescreen_refuted += extra[1]
        self.charpoly_distinct += len(keys)

    def metrics(self, overhead_ratio: float, import_ms: list[float]) -> dict[str, float]:
        ops = max(self.ops, 1)
        cyc = [k for k in self.calls if k.startswith("cyclo.CycInt.")]
        out = {
            "cli.import_ms": sum(import_ms) / len(import_ms),
            "cli.main.self_ms": self.self_ns["cli.main"] / 1e6 / ops,
            "cli.build_claims.ms": self.total_ns["cli.build_claims"] / 1e6 / ops,
            "catalog.get.calls": self.calls["catalog.get"] / ops,
            "cyclo.CycInt.ops": sum(self.calls[k] for k in cyc) / ops,
            "cyclo.CycInt.self_ms": sum(self.self_ns[k] for k in cyc) / 1e6 / ops,
            "invariants.charpoly_exact.distinct_ratio":
                self.charpoly_distinct / self.calls["invariants.charpoly_exact"]
                if self.calls["invariants.charpoly_exact"] else 0.0,
            "equivalence.standard_equivalent.row_perms": self.row_perms / ops,
            "equivalence.standard_equivalent.prescreen_refuted": self.prescreen_refuted / ops,
            "trace.overhead_ratio": overhead_ratio,
        }
        for name in COUNTED:
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6 / ops
        for m in MODULES:
            out[f"{m}.errors"] = self.errors[m] / ops
        return {name: out[name] for name, _ in LAYER_METRICS}
