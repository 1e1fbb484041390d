"""In-memory spans around the public functions of each quadtower module.

A wrapper replaces a function at every name a module binds it to (the names
its callers look it up by, such as `quadtower.galois.stripped_cofactor` and
`quadtower.cli.certify_tower`), records a span (name, start, end, parent) per
call and is removed again when tracing ends.  Nothing under `src/` knows
about it.  Spans in forked density workers are not seen.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (defining module, function).  Span names are "<layer>.<function>".
TRACED = {
    "cli.main": ("quadtower.cli", "main"),
    "orbit.critical_orbit": ("quadtower.orbit", "critical_orbit"),
    "factor.squarefree_decompose": ("quadtower.factor", "squarefree_decompose"),
    "factor.factorize": ("quadtower.factor", "factorize"),
    "factor.is_probable_prime": ("quadtower.factor", "is_probable_prime"),
    "factor.stripped_cofactor": ("quadtower.factor", "stripped_cofactor"),
    "bigpoly.is_perfect_square": ("quadtower.bigpoly", "is_perfect_square"),
    "bigpoly.discriminant_direct": ("quadtower.bigpoly", "discriminant_direct"),
    "galois.certify_tower": ("quadtower.galois", "certify_tower"),
    "galois.curve_model": ("quadtower.galois", "curve_model"),
    "galois.verify_forced_point": ("quadtower.galois", "verify_forced_point"),
    "density.density_curve": ("quadtower.density", "density_curve"),
}

MODULES = ("quadtower", "quadtower.bigpoly", "quadtower.family", "quadtower.orbit",
           "quadtower.factor", "quadtower.density", "quadtower.galois", "quadtower.cli")


def _orbit_bits(result) -> int:
    return max((abs(v).bit_length() for v in result.values), default=0)


def _factorize_complete(result) -> bool:
    return result.complete


# What a span keeps of its function's return value.
RESULT_NOTES = {
    "orbit.critical_orbit": _orbit_bits,
    "factor.factorize": _factorize_complete,
    "galois.certify_tower": lambda report: report,
    "galois.curve_model": lambda model: model,
    "density.density_curve": lambda curve: curve,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "note")

    def __init__(self, name: str, start: float, parent: int):
        self.name, self.start, self.end, self.parent, self.note = name, start, start, parent, None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        note = RESULT_NOTES.get(name)

        def traced(*args, **kwargs):
            span = Span(name, 0.0, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.note = note(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Swap every binding of each traced function for its wrapper."""
        modules = [importlib.import_module(name) for name in MODULES]
        patched = []
        for name, (home, attr) in TRACED.items():
            original = getattr(importlib.import_module(home), attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        try:
            yield self
        finally:
            for module, key, original in patched:
                setattr(module, key, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children
        (children of one span run one after another in this single thread)."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def totals(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, summed self time)."""
        acc: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span, own in zip(self.spans, self.self_times()):
            acc[span.name][0] += 1
            acc[span.name][1] += own
        return {k: (v[0], v[1]) for k, v in acc.items()}

    def to_json(self) -> list[dict]:
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {"name": s.name, "start": s.start - origin, "end": s.end - origin, "parent": s.parent}
            for s in self.spans
        ]
