"""Layer tracing of balance_lab from outside the package.

``Tracer`` wraps every public function of each layer module in a timing
span, at every binding inside ``balance_lab.*`` that refers to it (``stream``
is imported by name into both ``permutation`` and ``simulation``, for
example), and replaces ``ProcessPoolExecutor`` in the modules that start
pools with a subclass that counts constructions. Leaving the ``with`` block
restores every binding. Spans stay in memory until ``summary()`` reduces
them. The program itself is never edited.

Pool workers are forked with the wrappers in place, but a span is recorded
only in the process that installed the tracer: spans raised inside workers
would be lost with the worker, so they are not taken at all.
"""

import functools
import importlib
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "cli",
    "data",
    "regression",
    "balance",
    "variance",
    "rng",
    "permutation",
    "simulation",
    "reports",
)
POOL_MODULES = ("simulation", "permutation")
PACKAGE = "balance_lab"


def public_functions(module) -> dict:
    """Functions a layer module defines and exports (its ``__all__``, else
    every name without a leading underscore)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


def package_modules() -> list:
    """The package and every imported submodule, the places a binding can live."""
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


class Tracer:
    """Context manager that records one span per call of a public function.

    ``spans`` holds ``[name, start, end, parent_index]`` lists in call order;
    ``pool_starts`` counts ``ProcessPoolExecutor`` constructions per module.
    """

    def __init__(self):
        self.spans: list = []
        self.pool_starts: Counter = Counter({m: 0 for m in POOL_MODULES})
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)
        self._pid = os.getpid()

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self) -> None:
        wrappers = {}
        for layer, module in layer_modules().items():
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for name in POOL_MODULES:
            module = sys.modules[f"{PACKAGE}.{name}"]
            self._patch(module, "ProcessPoolExecutor", self._counting_pool(name, module))

    def _patch(self, module, attr, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        pid = self._pid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        return traced

    def _counting_pool(self, name, module):
        base = module.ProcessPoolExecutor
        counts = self.pool_starts

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                counts[name] += 1
                super().__init__(*args, **kwargs)

        return CountingPool

    def summary(self) -> dict:
        """Per-function and per-layer numbers for the spans recorded so far.

        ``calls`` counts every span; ``s`` sums the spans that have no
        ancestor of the same name; ``self_s`` is a span's duration minus the
        durations of its direct children, summed. A layer's ``self_s`` sums
        the self times of its functions.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        functions: dict = {}
        for i, (name, start, end, parent) in enumerate(spans):
            entry = functions.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["s"] += end - start
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, entry in functions.items():
            layer = layers[name.split(".", 1)[0]]
            layer["calls"] += entry["calls"]
            layer["self_s"] += entry["self_s"]
        return {
            "functions": functions,
            "layers": layers,
            "pool_starts": dict(self.pool_starts),
        }

