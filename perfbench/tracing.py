"""Benchmark-side tracing of deltashell's public functions.

The tracer replaces module attributes with wrappers that record one span per
call: (name, start, end, parent span, operation, failed, key). Spans stay in
memory and are written out when the run ends. A layer's self time is its
span's duration minus the time covered by its direct child spans (calls are
sequential in one thread, so children never overlap).

Nothing in deltashell is edited: every binding of a traced function in the
package's modules (``from .poles import find_poles`` makes one per importer)
is swapped for the wrapper, so internal calls are caught as well.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

# (span name, defining module, attribute, modules whose binding is replaced;
#  None = every deltashell module holding the same function object)
SPANNED = [
    ("poles.find_poles", "poles", "find_poles", None),
    ("poles.count_roots_in_rectangle", "poles", "count_roots_in_rectangle", None),
    ("poles.newton_polish", "poles", "newton_polish", ["poles"]),
    ("basis.build_basis", "basis", "build_basis", None),
    ("expansion.build_overlaps", "expansion", "build_overlaps", None),
    ("expansion.survival_series", "expansion", "survival_series", None),
    ("expansion.wavefunction", "expansion", "wavefunction", None),
    ("expansion.transition_time", "expansion", "transition_time", None),
    ("expansion.closure_sum", "expansion", "closure_sum", None),
    ("expansion.two_pole_amplitude", "expansion", "two_pole_amplitude", None),
    ("oracle.survival_amplitude_exact", "oracle", "survival_amplitude_exact", None),
    ("singularity.find_singularity", "singularity", "find_singularity", None),
    ("singularity.track_pole", "singularity", "track_pole", None),
    ("singularity.newton_polish", "singularity", "newton_polish", ["singularity"]),
    ("verify.run_verification", "verify", "run_verification", None),
] + [("io.serialize", "io", fn, None) for fn in (
    "pole_set_to_csv", "pole_set_to_json", "survival_to_csv", "survival_to_json",
    "trajectory_to_csv", "singularity_report_json")]

# counted without a span: they run thousands of times per operation
COUNTED = [
    ("oracle.quad_calls", "oracle", "quad", ["oracle"]),
    ("oracle.quad_calls", "expansion", "quad", ["expansion"]),
    ("oracle.integrand_evals", "oracle", "resolvent_matrix_element", ["oracle"]),
]


# a cold oracle call is the first one for its (potential, state)
_KEYS = {"oracle.survival_amplitude_exact": lambda args: (args[0].b, args[0].a, args[1].k_c)}
_RESULT_TAGS = {"expansion.build_overlaps": lambda ov: sum(
    tag == "quadrature" for pair in ov.provenance for tag in pair)}


def _modules():
    return {name[len("deltashell."):]: mod for name, mod in list(sys.modules.items())
            if name.startswith("deltashell.") and mod is not None}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, op, failed, key]
        self.counts = {}
        self.bytes_out = 0
        self._stack = []
        self.op = None
        self.active = True   # cleared before the checks, which must not be traced

    def span(self, name, fn, key=None, result_tag=None):
        """Wrap fn so each call records a span, tagged by key(args) or result_tag(result)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1,
                   tracer.op, 0, key(args) if key else None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if result_tag:
                    rec[6] = result_tag(result)
                return result
            except BaseException:
                rec[5] = 1
                raise
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Swap the traced functions of an imported deltashell for wrappers."""
        import deltashell.cli  # noqa: F401  (with the package, loads every submodule)
        mods = _modules()
        for name, home, attr, only in SPANNED + COUNTED:
            original = getattr(mods[home], attr)
            if (name, home, attr, only) in SPANNED:
                wrapped = self.span(name, original, key=_KEYS.get(name),
                                    result_tag=_RESULT_TAGS.get(name))
            else:
                wrapped = self._counter(name, original)
            targets = [mods[m] for m in only] if only else \
                [m for m in list(mods.values()) + [sys.modules["deltashell"]]
                 if getattr(m, attr, None) is original]
            for mod in targets:
                setattr(mod, attr, wrapped)
        write = mods["cli"]._write

        def counted_write(path, text):
            self.bytes_out += len(text.encode())
            return write(path, text)
        mods["cli"]._write = counted_write

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "bytes_out": self.bytes_out, **extra}, fh)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _ancestors(spans, i):
    p = spans[i][3]
    while p >= 0:
        yield spans[p][0]
        p = spans[p][3]


def layer_metrics(spans, counts, bytes_out, n_ops, import_ms):
    """The per-layer metrics of one traced run, normalized per workload operation."""
    selft = self_times(spans)
    calls, self_s, failed = {}, {}, {}
    for s, st in zip(spans, selft):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + st
        failed[s[0]] = failed.get(s[0], 0) + s[5]
    per_op = lambda x: x / n_ops if n_ops else 0.0  # noqa: E731

    seen, cold, warm = set(), [], []
    for s in spans:
        if s[0] == "oracle.survival_amplitude_exact":
            (warm if s[6] in seen else cold).append((s[2] - s[1]) * 1e3)
            seen.add(s[6])
    verify_calls = calls.get("verify.run_verification", 0)
    fp_under_verify = sum(1 for i, s in enumerate(spans) if s[0] == "poles.find_poles"
                          and "verify.run_verification" in _ancestors(spans, i))
    fallbacks = sum(s[6] for s in spans if s[0] == "expansion.build_overlaps" and s[6])

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for name in ("poles.find_poles", "poles.count_roots_in_rectangle",
                 "poles.newton_polish", "expansion.wavefunction",
                 "singularity.newton_polish"):
        put(f"{name}.calls", per_op(calls.get(name, 0)), "calls/op")
    for name in ("poles.find_poles", "poles.count_roots_in_rectangle", "basis.build_basis",
                 "expansion.build_overlaps", "expansion.survival_series",
                 "expansion.wavefunction", "expansion.transition_time",
                 "expansion.closure_sum", "singularity.find_singularity",
                 "singularity.track_pole", "verify.run_verification", "io.serialize",
                 "cli.main"):
        put(f"{name}.self_ms", per_op(self_s.get(name, 0.0)) * 1e3, "ms/op")
    for name in ("poles.find_poles", "poles.newton_polish"):
        put(f"{name}.failed", per_op(failed.get(name, 0)), "calls/op")
    put("expansion.overlap_quadrature_fallbacks", per_op(fallbacks), "count/op")
    put("oracle.survival_amplitude_exact.cold_ms", statistics.median(cold) if cold else 0, "ms")
    put("oracle.survival_amplitude_exact.warm_ms", statistics.median(warm) if warm else 0, "ms")
    put("oracle.quad_calls", per_op(counts.get("oracle.quad_calls", 0)), "calls/op")
    put("oracle.integrand_evals", per_op(counts.get("oracle.integrand_evals", 0)), "evals/op")
    put("verify.poles.find_poles.calls",
        fp_under_verify / verify_calls if verify_calls else 0, "calls/verify")
    put("io.bytes_out", per_op(bytes_out), "bytes/op")
    put("cli.import_ms", import_ms, "ms")
    return m
