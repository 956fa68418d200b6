"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of solitonlab and patches the wrapper
into every solitonlab module that holds the function under any name
(for example `metric_at` is reached as `metrics.metric_at`,
`soliton.metric_at`, `cli.metric_at`, ...).  The package itself is not
edited.  Each call records a span `[name, parent, job, start, end]`;
the parent is the index of the enclosing span and `job` the index of
the benchmark job that caused it, so the spans of one job share an
identifier.  Spans stay in a list until the run writes them out.

`uninstall` puts every original back; `installed_wrappers` lets a
caller check that nothing is left patched.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Iterable, Sequence

__all__ = ["Tracer", "self_times", "aggregate", "tree_stats", "TARGETS",
           "families_targets"]

PACKAGE = "solitonlab"

# Functions traced in every workload, as (module, function).  The
# families module contributes all of its public functions on top.
TARGETS = [
    ("cli", "main"),
    ("expressions", "parse_expression"),
    ("expressions", "evaluate"),
    ("autodiff", "eval_jet2"),
    ("metrics", "metric_at"),
    ("curvature", "curvature_from"),
    ("curvature", "covariant_hessian"),
    ("soliton", "infer_lambda"),
    ("soliton", "residual_report"),
    ("soliton", "gqy_residual"),
    ("quadrature", "adaptive_simpson"),
    ("grids", "grid_points"),
]


def families_targets() -> list[tuple[str, str]]:
    module = sys.modules[f"{PACKAGE}.families"]
    return [("families", name) for name in module.__all__
            if inspect.isfunction(getattr(module, name))]


def tree_stats(root) -> tuple[int, bool]:
    """Distinct nodes reachable from an expression root (shared subtrees
    count once, as the jet walk's memo visits them once) and whether any
    of them is a variable."""
    seen: set[int] = set()
    stack = [root]
    has_var = False
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if type(node).__name__ == "Var":
            has_var = True
        for item in dataclasses.fields(node):
            child = getattr(node, item.name)
            if dataclasses.is_dataclass(child) and not isinstance(child, type):
                stack.append(child)
    return len(seen), has_var


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, Callable] = {}  # kept alive: ids stay unique
        self._tree_cache: dict[int, tuple[object, int, bool]] = {}

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> list:
        record = [name, self._stack[-1] if self._stack else -1, self.job,
                  time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        self._stack.pop()
        record[4] = time.perf_counter()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._tree_cache.clear()

    # -- wrapping ------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            record = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(record)
            if after is not None:
                after(result)
            return result

        functools.update_wrapper(traced, fn)
        self._wrappers[id(traced)] = traced
        return traced

    def _count_jet(self, args, kwargs):
        field = args[0] if args else kwargs["field"]
        root = field.root
        cached = self._tree_cache.get(id(root))
        if cached is None:
            # The root is kept alive so its id cannot be reused.
            cached = (root, *tree_stats(root))
            self._tree_cache[id(root)] = cached
        self.counts["autodiff.nodes_walked"] += cached[1]
        if not cached[2]:
            self.counts["autodiff.const_jets"] += 1
        return args, kwargs

    def _count_integrand(self, args, kwargs):
        counts = self.counts
        key = "fn" if "fn" in kwargs else None
        fn = kwargs["fn"] if key else args[0]

        def counted(x):
            counts["quadrature.integrand_evals"] += 1
            return fn(x)

        if key:
            return args, {**kwargs, "fn": counted}
        return (counted, *args[1:]), kwargs

    def _count_points(self, result) -> None:
        self.counts["grids.points"] += len(result)

    def install(self, targets: Iterable[tuple[str, str]]) -> None:
        """Patch a traced wrapper for each target everywhere it is bound."""
        hooks = {
            "autodiff.eval_jet2": (self._count_jet, None),
            "quadrature.adaptive_simpson": (self._count_integrand, None),
            "grids.grid_points": (None, self._count_points),
        }
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for module_name, func_name in targets:
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(home, func_name)
            name = f"{module_name}.{func_name}"
            before, after = hooks.get(name, (None, None))
            wrapper = self.wrap(name, original, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def installed_wrappers(self) -> list[str]:
        """Names still bound to one of this tracer's wrappers."""
        left = []
        for key, module in list(sys.modules.items()):
            if module is None or not (key == PACKAGE
                                      or key.startswith(PACKAGE + ".")):
                continue
            for attr, value in vars(module).items():
                if id(value) in self._wrappers:
                    left.append(f"{key}.{attr}")
        return left


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Duration of each span minus the time its direct children cover.
    Spans of one thread nest, so the children never overlap."""
    covered = [0.0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i]
            for i, (_, _, _, start, end) in enumerate(spans)]


def aggregate(spans: Sequence[Sequence]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self time, and inclusive time counted once
    where a function is re-entered inside itself."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, parent, _, start, end) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[i]
        outermost = True
        while parent >= 0:
            if spans[parent][0] == name:
                outermost = False
                break
            parent = spans[parent][1]
        if outermost:
            entry["s"] += end - start
    return out
