"""Per-layer tracing of mindeg from outside the package.

`install()` replaces chosen public functions, in every mindeg module
namespace that binds them, by wrappers that either record a span (name,
duration, self time) or only count calls. Hot primitives are counted only,
and a memoized function's span covers only its misses, which keeps the
overhead of a traced run bounded. Spans are aggregated per
name in memory; the caller reads them when its repetition ends.

Self time is a span's duration minus the durations of the spans directly
inside it, so the self times of all spans, the root included, add up to the
root span's duration.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# (layer, module, function) for each span; the span is named "layer.function".
SPANS = (
    ("root_system", "root_system", "build_root_system"),
    ("weyl", "weyl", "hecke_product"),
    ("weyl", "weyl", "bruhat_leq"),
    ("curve_nbhd", "curve_nbhd", "point_class_degree"),
    ("curve_nbhd", "curve_nbhd", "minimal_degrees"),
    ("curve_nbhd", "curve_nbhd", "is_minimal_degree"),
    ("curve_nbhd", "curve_nbhd", "curve_neighborhood_element"),
    ("curve_nbhd", "curve_nbhd", "maximal_roots"),
    ("curve_nbhd", "curve_nbhd", "lifting"),
    ("cascade", "cascade", "cascade_roots"),
    ("tangent_directions", "tangent_directions", "tangent_direction_sets"),
    ("tangent_directions", "tangent_directions", "key_inequality"),
    ("tangent_directions", "tangent_directions", "quasi_homogeneity_verdict"),
    ("report", "report", "case_reports"),
    ("report", "report", "emit"),
    ("exactlinalg", "exactlinalg", "span_rank"),
    ("exactlinalg", "exactlinalg", "span_contains"),
    ("exactlinalg", "exactlinalg", "spans_equal"),
    ("exactlinalg", "exactlinalg", "intersect_spans"),
    ("so7", "so7", "build_tables"),
)

# Hot primitives: call counts only, no span.
COUNTED = (
    ("root_system", "root_system", "root_leq"),
    ("root_system", "root_system", "coroot_pairing"),
    ("weyl", "weyl", "mul_gen"),
    ("tangent_directions", "tangent_directions", "associated_pair"),
)

# lru_caches whose hit and miss counters are reported.
CACHES = (
    ("weyl", "weyl", "reduced_word"),
    ("parabolic", "parabolic", "project_coroot"),
    ("curve_nbhd", "curve_nbhd", "is_minimal_degree"),
    ("curve_nbhd", "curve_nbhd", "curve_neighborhood_element"),
    ("curve_nbhd", "curve_nbhd", "maximal_roots"),
    ("curve_nbhd", "curve_nbhd", "greedy_decomposition"),
    ("cascade", "cascade", "cascade_roots"),
)

# The ten so7 checks, each with the name it reports; each gets a span "so7.check.<name>".
SO7_CHECKS = (
    ("verify_bracket_rules", "e-basis-bracket-rules"),
    ("verify_skew_symmetry", "root-vectors-skew-symmetric"),
    ("verify_root_space_decomposition", "root-space-decomposition"),
    ("verify_g2_eigenvectors", "g2-root-vectors-eigen"),
    ("verify_g2_closure", "g2-closure-dimension"),
    ("verify_g2_structure_constants", "g2-structure-constants-nonzero"),
    ("verify_inclusions", "subalgebra-inclusions"),
    ("verify_levi_bracket_spans_quotient", "levi-bracket-spans-quotient"),
    ("verify_codimension_one", "restricted-bracket-codimension-one"),
    ("verify_longest_element_restriction", "longest-element-restriction"),
)

ROOT = "root"


def mindeg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mindeg" or name.startswith("mindeg."))]


def _unwrap_cache(obj):
    """The lru_cache under a tracing wrapper, or None if obj is not cached."""
    while obj is not None and not hasattr(obj, "cache_info"):
        obj = getattr(obj, "__wrapped__", None)
    return obj


def reachable_caches():
    """Every functools cache bound in a mindeg module namespace, once each."""
    found = {}
    for module in mindeg_modules():
        for value in vars(module).values():
            if callable(value):
                cached = _unwrap_cache(value)
                if cached is not None:
                    found[id(cached)] = cached
    return list(found.values())


def cache_entries() -> int:
    return sum(c.cache_info().currsize for c in reachable_caches())


def _rebind(original, wrapper) -> None:
    """Bind wrapper wherever a mindeg module namespace binds original."""
    for module in mindeg_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


def _module(name: str):
    return sys.modules[f"mindeg.{name}"]


class Tracer:
    """Aggregated spans and call counters for one repetition."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.nesting_errors = 0
        self.negative_self = 0
        self.found = {}       # Parabolic -> number of minimal degrees
        self.box = {}         # Parabolic -> size of the box below its point class
        self.emit_bytes = 0
        self._stack = []

    def span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, frame, t0)
                raise
            self._close(name, frame, t0)
            if on_result:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, name, frame, t0) -> float:
        dur = time.perf_counter() - t0
        if self._stack.pop() is not frame:
            self.nesting_errors += 1
        if self._stack:
            self._stack[-1][0] += dur
        own = dur - frame[0]
        if own < -1e-9:
            self.negative_self += 1
        self.self_s[name] += own
        self.calls[name] += 1
        return dur

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_root(self, fn):
        """Run fn under the root span; return (result, root duration)."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            dur = self._close(ROOT, frame, t0)
        return result, dur

    def install(self) -> None:
        hooks = {
            "minimal_degrees": lambda args, r: self.found.__setitem__(args[0], len(r)),
            "point_class_degree": lambda args, r: self.box.__setitem__(
                args[0], math.prod(c + 1 for c in r)),
            "emit": self._count_emit,
        }
        for layer, mod, fn in SPANS:
            self._trace(getattr(_module(mod), fn), f"{layer}.{fn}", hooks.get(fn))
        for layer, mod, fn in COUNTED:
            original = getattr(_module(mod), fn)
            _rebind(original, self.counter(f"{layer}.{fn}", original))
        so7 = _module("so7")
        for fn, check in SO7_CHECKS:
            self._trace(getattr(so7, fn), f"so7.check.{check}", None)

    def _trace(self, original, name, on_result) -> None:
        """Span original; for a memoized function, only its misses.

        A memoized function gets a fresh cache with the same parameters
        around the spanned body, so a hit costs a lookup, not a span, and
        its (small) time counts toward the caller's self time.
        """
        if hasattr(original, "cache_info"):
            span = self.span(name, original.__wrapped__, on_result)
            wrapper = functools.lru_cache(**original.cache_parameters())(span)
        else:
            wrapper = self.span(name, original, on_result)
        _rebind(original, wrapper)

    def _count_emit(self, args, text) -> None:
        self.emit_bytes += len(text.encode())

    def self_total(self) -> float:
        return sum(self.self_s.values())

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named as in BENCHMARK.json; 0 where a layer did not run."""
        out = {}
        for layer, _, fn in SPANS:
            out[f"{layer}.{fn}.calls"] = self.calls[f"{layer}.{fn}"]
            out[f"{layer}.{fn}.self_s"] = self.self_s[f"{layer}.{fn}"]
        for layer, _, fn in COUNTED:
            out[f"{layer}.{fn}.calls"] = self.calls[f"{layer}.{fn}"]
        for layer, mod, fn in CACHES:
            info = _unwrap_cache(getattr(_module(mod), fn)).cache_info()
            out[f"{layer}.{fn}.hits"] = info.hits
            out[f"{layer}.{fn}.misses"] = info.misses
        for _, check in SO7_CHECKS:
            out[f"so7.check.{check}.self_s"] = self.self_s[f"so7.check.{check}"]
        found = sum(self.found.values())
        tested = out["curve_nbhd.is_minimal_degree.misses"]
        out["curve_nbhd.minimal_degrees.found"] = found
        out["curve_nbhd.box_degrees"] = sum(self.box.values())
        out["curve_nbhd.minimal_yield"] = found / tested if tested else 0.0
        out["report.emit.bytes"] = self.emit_bytes
        out["cache.entries"] = cache_entries()
        return out
