"""Spans around the public functions of each layer, installed from outside.

`install` replaces every reference to a layer's public functions in the
already imported `hypertail` modules (the package namespace, the layer
modules, and names bound by `from ... import`, such as montecarlo's
`halfwidth_for_confidence`) with a wrapper that records a span.  Calls
between layers go through module globals, so nested calls such as
two_sided_exact -> lower_tail are seen, and each span's self time is
its duration minus the time of the spans it caused.
"""

from __future__ import annotations

import re
import sys
import time
from collections import defaultdict

LAYERS = {
    "exact": ("pmf", "lower_tail", "upper_tail", "two_sided_exact"),
    "bounds": (
        "kl_upper_tail_bound", "b1_tail", "b2_tail", "b3_tail", "b4_tail",
        "best_bound", "concentration_bound",
    ),
    "inference": (
        "halfwidth_for_confidence", "confidence_for_halfwidth",
        "b1_halfwidth_for_confidence", "b1_confidence_for_halfwidth",
        "required_sample_size", "sample_size_lower_estimate",
    ),
    "montecarlo": ("draw_without_replacement", "coverage_experiment"),
    "cli": ("run",),
}

# The launcher's last stderr line: this prefix, then the layer totals as JSON.
TRACE_PREFIX = "bench-trace "

_KEYS = {
    ("bounds", "kl_upper_tail_bound"): "bounds.kl",
    ("montecarlo", "draw_without_replacement"): "montecarlo.draw",
    ("montecarlo", "coverage_experiment"): "montecarlo.tally",
    ("cli", "run"): "cli.run",
}


class Tracer:
    """Per-key call counts, total and self times, and optionally spans.

    A span is (id, request, key, function, start, end, parent id).
    """

    def __init__(self, keep_spans: bool = False):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.spans = []
        self.keep_spans = keep_spans
        self.request = None
        self._ids = 0
        self._stack = []  # [child seconds, span id] per open call

    def wrap(self, layer: str, name: str, fn):
        fixed = _KEYS.get((layer, name), layer)
        stack = self._stack

        def traced(*args, **kwargs):
            self._ids += 1
            frame = [0.0, self._ids]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                key = fixed
                if layer == "exact":
                    key = "exact.rational" if getattr(result, "is_exact", False) else "exact.log"
                elapsed = end - start
                self.calls[key] += 1
                self.total_s[key] += elapsed
                self.self_s[key] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if self.keep_spans:
                    self.spans.append((frame[1], self.request, key, name, start, end, parent))

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
        }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every imported hypertail layer."""
    wrappers = {}
    for layer, names in LAYERS.items():
        module = sys.modules.get(f"hypertail.{layer}")
        if module is None:
            continue
        for name in names:
            fn = getattr(module, name)
            wrappers[id(fn)] = (fn, tracer.wrap(layer, name, fn))
    for modname in [m for m in sys.modules if m == "hypertail" or m.startswith("hypertail.")]:
        module = sys.modules[modname]
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$")


def parse_importtime(stderr: str) -> dict:
    """Cumulative import times (ms) of `hypertail` and `numpy` from the
    stderr of `python -X importtime`; 0 for a module not imported."""
    out = {"hypertail": 0.0, "numpy": 0.0}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(2) in out:
            out[m.group(2)] = int(m.group(1)) / 1000
    return out
