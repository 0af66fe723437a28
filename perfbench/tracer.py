"""Outside-in span tracing of the gossiptd layers.

Every public function of the layer modules is replaced, at every module
attribute that binds it, by a wrapper that records a span (op, name, start,
end, parent). Nothing under ``src/`` is edited: the wrappers are installed
into the imported modules of the benchmark process only.

Functions called once per transition or once per recorded snapshot are left
unwrapped; their time counts as self time of their caller. At 10^4-10^5
calls per op a span on them would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "chain",
    "features",
    "gossip",
    "augmented",
    "learner",
    "analysis",
    "harness",
    "cli",
)

# Per-transition step functions and per-snapshot norm helpers.
UNTRACED = {
    "learner": {
        "td0_centralized_step",
        "td0_distributed_step",
        "avgcost_centralized_step",
        "avgcost_distributed_step",
    },
    "chain": {"weighted_norm"},
    "features": {"projection_onto_ones_complement"},
}


class Tracer:
    """Collects spans for the op currently running; ``op`` None records nothing."""

    def __init__(self):
        self.op = None
        self.spans = []  # (op, name, start, end, parent index or -1)
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> key -> n
        self._stack = []
        self._restore = []

    def wrap(self, fn, name, label=None, count=None):
        """Wrapper recording one span per call.

        ``label(args, kwargs)`` refines the span name; ``count(args, kwargs,
        result)`` returns {key: amount} added to the op's counters.
        """
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            span_name = name if label is None else f"{name}.{label(args, kwargs)}"
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (op, span_name, start, end, stack[-1] if stack else -1)
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    counts[op][key] += amount
            return result

        return traced

    def install(self, package, extra=()):
        """Wrap every public function of the layer modules plus ``extra``.

        ``extra`` holds (owner, attribute, span name) for private functions
        and methods. Hooks come from ``LABELS``/``COUNTERS`` by span name.
        """
        modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in UNTRACED.get(layer, ())
                ):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(
                        obj, name, LABELS.get(name), COUNTERS.get(name)
                    )
        # Rebind every reference, including names imported into other modules.
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(mod, attr, wrappers[obj])
        for owner, attr, name in extra:
            self._rebind(owner, attr, self.wrap(getattr(owner, attr), name))

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def self_times(self):
        """{op: {span name: (self seconds, inclusive seconds, calls)}}."""
        child = [0.0] * len(self.spans)
        for op, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for i, (op, name, start, end, _) in enumerate(self.spans):
            entry = out[op][name]
            entry[0] += end - start - child[i]
            entry[1] += end - start
            entry[2] += 1
        return out


def _run_mode(args, kwargs):
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    return config.mode


def _run_steps(args, kwargs, result):
    return {f"steps.{_run_mode(args, kwargs)}": result.config.steps}


def _records(args, kwargs, result):
    return {"records": len(result.steps)}


def _lifted_bytes(args, kwargs, result):
    return {"lifted_bytes": result.rho.nbytes + result.Psi.nbytes}


LABELS = {"learner.run": _run_mode}
COUNTERS = {
    "learner.run": _run_steps,
    "analysis.metrics_over_time": _records,
    "augmented.build_augmented": _lifted_bytes,
}
