"""Spans around each layer's public functions, installed from outside.

:func:`instrument` replaces names in the ``cli``, ``tableio``, ``leontief``
and ``sensitivity`` module namespaces, where the program looks them up at
call time, with wrappers that record a span per call; leaving the context
restores the originals. The program's source is not touched. Spans stay in
memory until :meth:`Tracer.take` hands over one operation's worth.

Kernel counts are *computed* from matrix sizes, not measured: ``2/3 n^3``
flops per LU factorization, ``2 n^2 k`` per solve with ``k`` right-hand
sides, ``2 n^2`` per matrix-vector product in power iteration and in the
Neumann series. Bytes are the minimum traffic of the same kernels in
float64: the matrix read once (and written once for the factorization),
plus the right-hand sides and solutions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from dataclasses import dataclass, field

F64 = 8


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; the innermost open span is the parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _wrap(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if count is not None:
            span.counts.update(count(args, result))
        return result
    return traced


def _file_bytes(position: int, key: str):
    return lambda args, result: {key: os.path.getsize(args[position])}


def _matvecs(n: int, steps: int) -> dict:
    return {"matvec_flop": 2 * n * n * steps, "bytes": F64 * n * n * steps}


def _spectral(args, result):
    return {"iterations": result[1], **_matvecs(len(args[0]), result[1])}


def _neumann(args, result):
    return {"terms": result[1], **_matvecs(args[1].n, result[1])}


def _perturb(args, result):
    return {"samples": result.samples, "diverged": result.diverged_count}


def _factorization(tracer: Tracer, factorization):
    """Span the constructor, and every solve of the returned instance."""

    def solve_count(n):
        def count(args, result):
            k = 1 if args[0].ndim == 1 else args[0].shape[1]
            return {"solve_flop": 2 * n * n * k, "bytes": F64 * (n * n + 2 * n * k)}
        return count

    @functools.wraps(factorization)
    def traced(matrix, *args, **kwargs):
        span = tracer.begin("numerics.factorization")
        try:
            factored = factorization(matrix, *args, **kwargs)
        finally:
            tracer.end(span)
        n = len(matrix)
        span.counts.update(factor_flop=2 * n ** 3 / 3, bytes=2 * F64 * n * n)
        factored.solve = _wrap(tracer, "numerics.solve", factored.solve,
                               solve_count(n))
        return factored
    return traced


# module -> {name looked up there: (span name, counter)}
SPANS = {
    "cli": {
        "parse_table": ("tableio.parse_table", _file_bytes(0, "read_bytes")),
        "parse_emissions": ("tableio.parse_emissions", _file_bytes(0, "read_bytes")),
        "write_table": ("tableio.write_table", _file_bytes(1, "write_bytes")),
        "write_emissions": ("tableio.write_emissions", _file_bytes(2, "write_bytes")),
        "validate_balance": ("economy.validate_balance", None),
        "technical_coefficients": ("leontief.coefficients", None),
        "allocation_coefficients": ("leontief.coefficients", None),
        "direct_intensity": ("leontief.direct_intensity", None),
        "total_intensity": ("leontief.total_intensity", None),
        "total_intensity_neumann": ("leontief.neumann", _neumann),
        "systemic_intensity": ("leontief.systemic_intensity", None),
        "attribute_to_demand": ("leontief.attribute", None),
        "attribute_to_value_added": ("leontief.attribute", None),
        "perturb_inverse": ("sensitivity.perturb_inverse", _perturb),
        "generate_economy": ("synthetic.generate_economy", None),
        "render": ("reporting.render", lambda args, result: {"bytes": len(result)}),
    },
    "tableio": {"build_economy": ("economy.build_economy", None)},
    "leontief": {"spectral_radius_estimate": ("numerics.spectral", _spectral)},
    "sensitivity": {
        "leontief_inverse": ("leontief.leontief_inverse", None),
        "spectral_radius_estimate": ("numerics.spectral", _spectral),
    },
}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, names in SPANS.items():
            module = importlib.import_module(f"iofootprint.{module_name}")
            for attr, (span_name, count) in names.items():
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, _wrap(tracer, span_name, getattr(module, attr),
                                            count))
        leontief = importlib.import_module("iofootprint.leontief")
        saved.append((leontief, "Factorization", leontief.Factorization))
        leontief.Factorization = _factorization(tracer, leontief.Factorization)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def span_cost_s(calls: int = 20_000) -> float:
    """Time one span adds to a call, measured on a no-op function."""
    def noop():
        return None

    traced = _wrap(Tracer(), "calibration", noop)
    timings = []
    for fn in (noop, traced):
        begin = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter() - begin)
    return max(timings[1] - timings[0], 0.0) / calls


def summarize(spans: list[Span]) -> dict:
    """Per span name: summed self time, total time, calls and counters.

    Also ``covered_s``, the summed duration of the top-level spans, which
    equals the summed self time of every span, and the span count.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    layers: dict[str, dict] = {}
    covered = 0.0
    for span, children in zip(spans, child_time):
        duration = span.end - span.start
        if span.parent is None:
            covered += duration
        entry = layers.setdefault(span.name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        entry["self_s"] += duration - children
        entry["total_s"] += duration
        entry["calls"] += 1
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return {"covered_s": covered, "spans": len(spans), "layers": layers}
