"""Spans around every call that crosses into an advlab module.

Each advlab module is one layer. `Tracer.install` rebinds every public
function that a calling module imported from another advlab module (for
example `advlab.train.pgd` or `advlab.attacks.input_gradient`) to a wrapper
that records a span named after the callee, `<module>.<function>`. Calls
inside one module are not spans, so a layer's self time holds its own
helpers; `OWN_MODULE_SPANS` lists the few in-module calls the per-layer
metrics need as sub-spans. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from dataclasses import dataclass

# in-module calls that still get a span: sub-steps named by the per-layer metrics
OWN_MODULE_SPANS = {
    ("advlab.train", "trades_gradients"),
    ("advlab.weight_stats", "laplace_stats_from_factors"),
}

BENCH = "bench"  # layer name of spans the benchmark records for its own checks


@dataclass
class Span:
    name: str  # "<layer>.<function>" of the callee
    caller: str  # layer the call came from
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    work: int = 0  # unit of work counted at the boundary, see `Tracer.counters`
    flops: int = 0  # GEMM flops computed from the layer shapes


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1] if module_name.startswith("advlab.") else BENCH


def advlab_modules(package) -> list:
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


class Tracer:
    """Records spans while installed; `counters` maps span name -> work function.

    A work function receives the bound call arguments and the result and
    returns `(work, flops)`. `checks` maps a span name to a function run on
    the same values after the span closes, inside a `bench.check` span, so
    the benchmark's own verification is never charged to a layer.
    """

    def __init__(self, counters=None, checks=None):
        self.spans: list[Span] = []
        self.counters = counters or {}
        self.checks = checks or {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self, callers):
        for module in callers:
            caller = layer_of(module.__name__)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                callee = fn.__module__
                if not callee.startswith("advlab."):
                    continue
                if callee == module.__name__ and (callee, attr) not in OWN_MODULE_SPANS:
                    continue
                self._patches.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, f"{layer_of(callee)}.{fn.__name__}", caller))

    def uninstall(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _open(self, name, caller) -> Span:
        span = Span(name, caller, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, caller):
        count = self.counters.get(name)
        check = self.checks.get(name)
        signature = inspect.signature(fn) if count or check else None

        if inspect.isgeneratorfunction(fn):
            # the work happens while the caller iterates: count items, no time
            def traced_gen(*args, **kwargs):
                span = self._open(name, caller)
                self._close(span)
                for item in fn(*args, **kwargs):
                    span.work += 1
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            span = self._open(name, caller)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                if count:
                    span.work, span.flops = count(bound, result)
                if check:
                    guard = self._open(f"{BENCH}.check", BENCH)
                    try:
                        check(bound, result)
                    finally:
                        self._close(guard)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def covered(self) -> float:
        """Wall time inside top-level spans."""
        return sum(s.end - s.start for s in self.spans if s.parent < 0)
