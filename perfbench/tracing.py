"""Outside-in tracing of k3cycles: run-time wrappers, no change under src/.

`Tracer.install` replaces each traced function with a wrapper in every
k3cycles module that bound the same function object, so calls made inside the
library are caught as well as the benchmark's own.  A wrapper records one span
(name, start, end, parent) per call; spans stay in memory until the run ends.
Self time is a span's duration minus the time its child spans cover.
Counters wrap without spans.  `FractionCounter` counts Python-level calls into
the stdlib `fractions` module with a profile hook, in a pass of its own,
because the hook slows every call and would distort the span timings.
"""

from __future__ import annotations

import fractions
import json
import sys
import time

# Layer -> traced public functions (spans, self time).
SPANNED = {
    "linalg": ("mat_mul", "det", "inverse", "rank", "int_kernel", "hnf"),
    "quadspace": ("bilinear", "signature", "hermitian_signature", "is_isometry"),
    "rootenum": (
        "orthogonal_complement_lattice",
        "enumerate_norm_vectors",
        "roots_orthogonal_to_threespace",
        "bounded_root_search",
        "_ldl",
        "_enumerate_up_to",
    ),
    "cyclespace": ("classify_cycle", "is_twistor", "apply_isometry", "_sample_domain"),
    "weyl": (
        "reflect",
        "reflection_matrix",
        "is_in_O_plus",
        "partition_by_chamber",
        "check_partition_property",
        "delta_p_bounded",
    ),
    "jsonio": ("threespace_from_json", "classification_to_json"),
}
# Metric name -> counted function (calls only, no span).
COUNTED = {
    "rootenum.fp_nodes": ("rootenum", "_int_interval"),  # one call per Fincke-Pohst interior node
    "cyclespace.conic_attempts": ("cyclespace", "_second_intersection"),
}


def per_layer_names():
    """Every per-layer metric name with its unit and direction."""
    out = []
    for mod, fns in SPANNED.items():
        for fn in fns:
            out.append((f"{mod}.{fn}.calls", "count", "lower"))
            out.append((f"{mod}.{fn}.self_ms", "ms", "lower"))
    out.append(("rootenum.fp_nodes", "count", "lower"))
    out.append(("cyclespace.conic_attempts", "count", "lower"))
    out.append(("cyclespace.conic_accept_ratio", "ratio", "higher"))
    out.append(("fractions.calls", "count", "lower"))
    return out


def _library_modules(package):
    prefix = package.__name__ + "."
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == package.__name__ or name.startswith(prefix))]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []  # span name table; spans refer to it by index
        self.spans = []  # [name_index, start_ns, end_ns, parent_span_index]
        self.counts = {name: 0 for name in COUNTED}
        self.accepted_samples = 0
        self.missing = []
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _replace(self, original, wrapper):
        for mod in _library_modules(self.package):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def _spanning(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        on_domain = name == "cyclespace._sample_domain"

        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent)
            if on_domain:
                self.accepted_samples += result.samples or 0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, metric, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        lib = self.package
        for mod_name, fns in SPANNED.items():
            mod = getattr(lib, mod_name, None)
            for fn_name in fns:
                fn = getattr(mod, fn_name, None) if mod is not None else None
                if not callable(fn):
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                self._replace(fn, self._spanning(f"{mod_name}.{fn_name}", fn))
        for metric, (mod_name, fn_name) in COUNTED.items():
            fn = getattr(getattr(lib, mod_name, None), fn_name, None)
            if not callable(fn):
                self.missing.append(metric)
                continue
            self._replace(fn, self._counting(metric, fn))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times_ns(self):
        """Per span name: (calls, total self time in ns)."""
        child = [0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0] for name in self.names}
        for i, (index, start, end, parent) in enumerate(self.spans):
            acc = out[self.names[index]]
            acc[0] += 1
            acc[1] += (end - start) - child[i]
        return out

    def metrics(self, ops):
        """Per-operation figures; missing names are left out, never 0."""
        out = {}
        totals = self.self_times_ns()
        for name, (calls, self_ns) in totals.items():
            out[f"{name}.calls"] = calls / ops
            out[f"{name}.self_ms"] = self_ns / 1e6 / ops
        for metric, n in self.counts.items():
            if metric not in self.missing:
                out[metric] = n / ops
        if "cyclespace.conic_attempts" not in self.missing:
            attempts = self.counts["cyclespace.conic_attempts"]
            out["cyclespace.conic_accept_ratio"] = self.accepted_samples / attempts if attempts else 0.0
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


class FractionCounter:
    """Counts Python-level calls of functions defined in fractions.py."""

    def __init__(self):
        self.calls = 0

    def _hook(self, frame, event, arg):
        if event == "call" and frame.f_code.co_filename == _FRACTIONS_FILE:
            self.calls += 1

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False


_FRACTIONS_FILE = fractions.__file__
