"""In-memory span tracer for the traced benchmark run.

Each traced public function of freearr is replaced, at every place where it
is looked up (the module attribute in every freearr module that imported it,
or the class attribute for methods), by a wrapper that records a span: name,
parent span, start and end.  Self time is a span's duration minus the time
covered by its child spans.  Scalar operators are counted but not timed: a
timing wrapper costs more than the operation it wraps.

The tracer only records while ``enabled`` is true, so the benchmark can keep
its own checks and set-up out of the figures.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Optional

# (module, attribute) pairs timed as spans.  A dotted attribute is a method.
SPANNED = (
    ("geometry", "Arrangement.canonical_key"),
    ("lattice", "compute_lattice"),
    ("lattice", "extend_lattice"),
    ("lattice", "restrict_lattice"),
    ("lattice", "lattice_automorphisms"),
    ("lattice", "lattice_isomorphic"),
    ("freeness", "is_free"),
    ("freeness", "multi_exponents"),
    ("freeness", "ziegler_restriction"),
    ("search", "free_additions"),
    ("search", "free_deletions"),
    ("search", "is_inductively_free"),
    ("search", "verify_chain"),
    ("search", "recursive_freeness_bounded"),
    ("moduli", "generic_lattice"),
    ("moduli", "exceptional_values"),
    ("moduli", "classify_profiles"),
    ("scalar", "roots_low_degree"),
    ("arrio", "decode_arrangement"),
    ("arrio", "parse_param"),
    ("cli", "main"),
)

# (metric stem, module, attribute) pairs that are only counted.
COUNTED = (
    ("geometry.meet", "geometry", "meet"),
    ("scalar.quad_mul", "scalar", "QuadElem.__mul__"),
    ("scalar.quad_mul", "scalar", "QuadElem.__rmul__"),
    ("scalar.quad_inverse", "scalar", "QuadElem.inverse"),
    ("scalar.poly_mul", "scalar", "Poly.__mul__"),
    ("scalar.poly_divmod", "scalar", "Poly.__divmod__"),
)

MODULES = ("scalar", "geometry", "lattice", "freeness", "search", "catalog",
           "moduli", "arrio", "svg", "cli")


def _short(attr: str) -> str:
    return attr.rsplit(".", 1)[-1]


class Tracer:
    """Wraps freearr's public functions and aggregates their spans."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[str, int, float, float]] = []  # name, parent, start, end
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, time covered by children]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span_wrapper(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append((name, parent, 0.0, 0.0))
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                tracer.spans[frame[0]] = (name, parent, start, end)
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer._count(key)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        mod = importlib.import_module(f"freearr.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(mod, attr)
        wrapped = make(orig)
        for other in ("freearr",) + tuple(f"freearr.{m}" for m in MODULES):
            target = importlib.import_module(other)
            if target.__dict__.get(attr) is orig:
                self._undo.append((target, attr, orig))
                setattr(target, attr, wrapped)

    def install(self) -> None:
        for module, attr in SPANNED:
            name = f"{module}.{_short(attr)}"
            observe = _OBSERVERS.get(name)
            self._patch(module, attr, lambda fn, n=name, o=observe: self._span_wrapper(n, fn, o))
        for key, module, attr in COUNTED:
            self._patch(module, attr, lambda fn, k=key: self._count_wrapper(k, fn))
        self._patch("search", "SearchCache.is_free", self._cache_wrapper)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    def _cache_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        def wrapper(cache, A, lat=None):
            if not tracer.enabled:
                return fn(cache, A, lat)
            before = len(cache.freeness)
            result = fn(cache, A, lat)
            tracer._count("search.cache.lookups")
            if len(cache.freeness) == before:
                tracer._count("search.cache.hits")
            return result

        return wrapper

    # -- reporting ------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round figures: counts are exact, times are means over rounds."""
        out: dict[str, float] = {}
        for stem in {key for key, _, _ in COUNTED}:
            out[f"{stem}.calls"] = self.counts.get(stem, 0) / rounds
        for name in self.calls.keys() | {f"{m}.{_short(a)}" for m, a in SPANNED}:
            out[f"{name}.calls"] = self.calls.get(name, 0) / rounds
            out[f"{name}.self_ms"] = 1000.0 * self.self_s.get(name, 0.0) / rounds
        for route in ("chi_gate", "abt", "yoshinaga"):
            out[f"freeness.route.{route}"] = self.counts.get(f"route.{route}", 0) / rounds
        lookups = self.counts.get("search.cache.lookups", 0)
        out["search.cache.lookups"] = lookups / rounds
        out["search.cache.hit_ratio"] = (
            self.counts.get("search.cache.hits", 0) / lookups if lookups else 0.0
        )
        out["search.free_additions.found"] = self.counts.get("free_additions.found", 0) / rounds
        out["moduli.classify_profiles.results"] = (
            self.counts.get("classify_profiles.results", 0) / rounds
        )
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def _observe_is_free(tracer: Tracer, args, result) -> None:
    tracer._count(f"route.{result.route}")


def _observe_additions(tracer: Tracer, args, result) -> None:
    tracer._count("free_additions.found", len(result))


def _observe_classify(tracer: Tracer, args, result) -> None:
    tracer._count("classify_profiles.results", len(result))


_OBSERVERS = {
    "freeness.is_free": _observe_is_free,
    "search.free_additions": _observe_additions,
    "moduli.classify_profiles": _observe_classify,
}
