"""Outside-in span recorder for the traced benchmark run.

The recorder replaces each listed library function, in every cyclonet
module that binds it, with a wrapper that records one span per call:
name, start, end, parent span and the benchmark op id.  Calls made inside
the library go through the module globals, so nested layer calls are
recorded too, without any change to the library.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

MODULES = ("linalg", "gates", "group", "spectral", "dynamics", "protocols", "cli")

# The functions whose calls and self time the traced run reports, per layer.
TRACED = {
    "linalg": ("dense_eigendecomposition", "check_unitary", "unitarity_defect"),
    "gates": ("gate_matrix", "compile_cycle"),
    "group": ("classify",),
    "spectral": (
        "spectrum_closed_form",
        "cubic_coefficients",
        "solve_cubic",
        "block_form_eigenstates",
        "alternating_pair_root",
    ),
    "dynamics": (
        "matrix_power_spectral",
        "perturbed_amplitude_series",
        "closed_form_amplitude",
        "chain_evolve",
    ),
    "protocols": ("memory_store", "memory_retrieve"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Closed-form entry points of the spectral layer; an oracle call beneath one
# of them is a fallback.
CLOSED_FORM_ATTEMPTS = ("spectral.spectrum_closed_form", "spectral.alternating_pair_root")
ORACLE = "linalg.dense_eigendecomposition"


class SpanRecorder:
    """Wraps the traced functions while installed and keeps their spans.

    A span is (name, start_ns, end_ns, parent index or -1, op id).
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.op_id = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self.op_id)
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Patch every cyclonet module binding of each traced function."""
        package = importlib.import_module("cyclonet")
        modules = [package] + [importlib.import_module(f"cyclonet.{m}") for m in MODULES]
        self.absent = []
        for mod, fns in TRACED.items():
            home = sys.modules[f"cyclonet.{mod}"]
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if not callable(original):
                    self.absent.append(f"{mod}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def summary(self) -> dict:
        """Calls, self time and child-span facts per span name.

        Self time is a span's duration minus the time its child spans cover;
        spans of one thread nest, so the children's durations add up.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = {name: 0 for name in SPAN_NAMES}
        self_ns = {name: 0 for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
        attempts = sum(
            1
            for name, _, _, parent, _ in self.spans
            if name in CLOSED_FORM_ATTEMPTS and (parent < 0 or not self.spans[parent][0].startswith("spectral."))
        )
        fallbacks = sum(
            1
            for name, _, _, parent, _ in self.spans
            if name == ORACLE and parent >= 0 and self.spans[parent][0].startswith("spectral.")
        )
        return {
            "calls": calls,
            "self_s": {name: ns / 1e9 for name, ns in self_ns.items()},
            "closed_form_attempts": attempts,
            "oracle_fallbacks": fallbacks,
        }

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: index, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{op}\n")
