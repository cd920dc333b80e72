"""Span tracing around the public functions of each ncvanish layer.

`Tracer.install` replaces every binding of each traced function, in every
loaded ncvanish module and class, by a wrapper that records a span.  A
function imported by name into several modules (``eval_poly`` lives in
``evaluate``, ``certify``, ``factorization``, ``lowrank``, ``serialize`` and
the package itself) is therefore traced whichever module calls it.
`Tracer.uninstall` puts every original back.

Spans nest on one stack (the benchmark is single-threaded); a span's self
time is its duration minus the durations of its direct children.  Spans are
aggregated per metric name as they close: calls, self time and total time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

# metric prefix -> (module, attribute path) of each function it covers
TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "certify.rref_insert": [("ncvanish.certify", "WordRREF.insert")],
    "certify.rref_reduce": [("ncvanish.certify", "WordRREF.reduce")],
    "certify.weak_basis": [("ncvanish.certify", "weak_basis")],
    "certify.engine": [
        ("ncvanish.certify", "left_ideal_membership"),
        ("ncvanish.certify", "hom_ideal_membership"),
        ("ncvanish.certify", "trace_membership"),
        ("ncvanish.certify", "span_membership"),
        ("ncvanish.certify", "in_univariate_subalgebra"),
    ],
    "linalg.matmul": [("ncvanish.linalg", "QMatrix.__matmul__")],
    "linalg.elementwise": [
        ("ncvanish.linalg", "QMatrix.__add__"),
        ("ncvanish.linalg", "QMatrix.__sub__"),
        ("ncvanish.linalg", "QMatrix.__mul__"),
        ("ncvanish.linalg", "QVector.__add__"),
        ("ncvanish.linalg", "QVector.__sub__"),
        ("ncvanish.linalg", "QVector.__mul__"),
    ],
    "linalg.rank_det_kernel": [("ncvanish.linalg", "rank_det_kernel")],
    "linalg.solve_span": [("ncvanish.linalg", "solve_span")],
    "evaluate.eval_poly": [("ncvanish.evaluate", "eval_poly")],
    "evaluate.eval_poly_vector": [("ncvanish.evaluate", "eval_poly_vector")],
    "evaluate.classify_point": [("ncvanish.evaluate", "classify_point")],
    "evaluate.from_json": [("ncvanish.evaluate", "MatTuple.from_json")],
    "evaluate.pi_test": [("ncvanish.evaluate", "pi_test")],
    "poly.parse": [("ncvanish.poly", "parse")],
    "poly.mul": [("ncvanish.poly", "NcPoly.__mul__")],
    "lowrank.search": [("ncvanish.lowrank", "lowrank_search")],
    "lowrank.rank_profile": [("ncvanish.lowrank", "rank_profile")],
    "factorization.factor": [("ncvanish.factorization", "factor")],
    "factorization.stable_assoc": [("ncvanish.factorization", "stable_assoc")],
    "factorization.detzero": [("ncvanish.factorization", "detzero_inclusion")],
    "serialize.encode": [("ncvanish.serialize", "encode_certificate")],
    "serialize.verify": [("ncvanish.serialize", "verify_certificate")],
    "serialize.io": [
        ("ncvanish.serialize", "save_document"),
        ("ncvanish.serialize", "load_document"),
    ],
    "cli.dispatch": [("ncvanish.cli", "dispatch")],
}

# work counters read off a traced call's result: span -> (counter, count)
RESULT_COUNTERS: Dict[str, Tuple[str, Callable[[object], int]]] = {
    "lowrank.search": ("lowrank.iterations", lambda result: result.iterations),
}


def _namespaces() -> List[object]:
    """Every loaded ncvanish module and every class defined in one."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "ncvanish" or name.startswith("ncvanish."))]
    classes = []
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("ncvanish") \
                    and value not in classes:
                classes.append(value)
    return modules + classes


def _function_of(binding) -> Callable:
    return binding.__func__ if isinstance(binding, staticmethod) else binding


class Tracer:
    """Aggregated spans, `stats[name] = [calls, self_s, total_s]`; a result
    counter keeps its count in the calls slot."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self._children: List[float] = []
        # (namespace, attribute, original binding) for uninstall
        self._bound: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span called name."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        children.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if name in RESULT_COUNTERS:
                counter, count = RESULT_COUNTERS[name]
                self.stats.setdefault(counter, [0, 0.0, 0.0])[0] += count(result)
            return result
        finally:
            duration = time.perf_counter() - start
            child_time = children.pop()
            stat[0] += 1
            stat[1] += duration - child_time
            stat[2] += duration
            if children:
                children[-1] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__traced__ = fn
        return traced

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._bound:
            raise RuntimeError("tracer already installed")
        for module_name in {m for targets in TARGETS.values() for m, _ in targets}:
            importlib.import_module(module_name)
        namespaces = _namespaces()
        for name, targets in TARGETS.items():
            for module_name, path in targets:
                owner = sys.modules[module_name]
                for part in path.split("."):
                    owner = vars(owner)[part] if isinstance(owner, type) else getattr(owner, part)
                original = _function_of(owner)
                wrapper = self.wrap(name, original)
                for space in namespaces:
                    for attr, value in list(vars(space).items()):
                        if _function_of(value) is not original:
                            continue
                        new = staticmethod(wrapper) if isinstance(value, staticmethod) else wrapper
                        setattr(space, attr, new)
                        self._bound.append((space, attr, value))

    def uninstall(self) -> None:
        for space, attr, value in reversed(self._bound):
            setattr(space, attr, value)
        self._bound = []

    def bindings(self) -> List[Tuple[object, str]]:
        return [(space, attr) for space, attr, _ in self._bound]
