"""End-to-end metrics from subprocess ops, per-layer metrics from span summaries.

Every per-layer metric is the median, over the traced ops in which its
layer ran, of that op's value (0 when no op ran the layer). Times ending
in ``_s`` are self times: a span's duration minus its child spans.
Flop and byte figures are computed from matrix sizes (see
:mod:`perfbench.tracing`), not read from hardware counters.
"""

from __future__ import annotations

import statistics

# The tail percentile is the highest one with at least this many samples
# beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mib": "MiB",
    "success_rate": "fraction",
}


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the tail sample with TAIL_BEYOND above it.

    With no more than TAIL_BEYOND samples it is the maximum, at 100.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def end_to_end(records, attempted: int, failed: int) -> dict[str, float]:
    """From untraced subprocess ops: see END_TO_END_UNITS for the units."""
    op_s = [r.op_s for r in records]
    return {
        "setup_s": statistics.median(r.setup_s for r in records),
        "op_s.p50": statistics.median(op_s),
        "op_s.tail": tail(op_s)[0],
        "ops_per_s": len(op_s) / sum(op_s),
        "peak_rss_mib": max(r.rss_kib for r in records) / 1024,
        "success_rate": (attempted - failed) / attempted,
    }


def _self(*names):
    def value(op):
        found = [op["layers"][n]["self_s"] for n in names if n in op["layers"]]
        return sum(found) if found else None
    return value


def _field(name, key, scale=1.0):
    def value(op):
        layer = op["layers"].get(name)
        return None if layer is None else layer.get(key, 0) * scale
    return value


def _summed(names, key, scale=1.0):
    def value(op):
        found = [op["layers"][n].get(key, 0) for n in names if n in op["layers"]]
        return sum(found) * scale if found else None
    return value


def _ratio(numerator, denominator):
    def value(op):
        top, bottom = numerator(op), denominator(op)
        return None if top is None or not bottom else top / bottom
    return value


def _useful(op):
    layer = op["layers"].get("sensitivity.perturb_inverse")
    if layer is None or not layer["samples"]:
        return None
    return (layer["samples"] - layer["diverged"]) / layer["samples"]


_PARSE = ("tableio.parse_table", "tableio.parse_emissions")
_WRITE = ("tableio.write_table", "tableio.write_emissions")
_KERNELS = ("numerics.factorization", "numerics.solve", "numerics.spectral",
            "leontief.neumann")
GIGA, MEGA, MIB = 1e-9, 1e-6, 1.0 / 2**20

# name -> (unit, value of one traced op or None when the layer did not run)
PER_OP = {
    "cli.command_s": ("s", lambda op: op["command_s"]),
    "cli.untraced_s": ("s", lambda op: op["command_s"] - op["covered_s"]),
    "tableio.parse_table_s": ("s", _self("tableio.parse_table")),
    "tableio.parse_emissions_s": ("s", _self("tableio.parse_emissions")),
    "tableio.write_table_s": ("s", _self("tableio.write_table")),
    "tableio.write_emissions_s": ("s", _self("tableio.write_emissions")),
    "tableio.read_bytes": ("bytes", _summed(_PARSE, "read_bytes")),
    "tableio.write_bytes": ("bytes", _summed(_WRITE, "write_bytes")),
    "tableio.parse_mb_per_s": ("MB/s", _ratio(_summed(_PARSE, "read_bytes", MEGA),
                                              _self(*_PARSE))),
    "tableio.write_mb_per_s": ("MB/s", _ratio(_summed(_WRITE, "write_bytes", MEGA),
                                              _self(*_WRITE))),
    "economy.build_economy_s": ("s", _self("economy.build_economy")),
    "economy.validate_balance_s": ("s", _self("economy.validate_balance")),
    "leontief.coefficients_s": ("s", _self("leontief.coefficients")),
    "leontief.direct_intensity_s": ("s", _self("leontief.direct_intensity")),
    "leontief.total_intensity_s": ("s", _self("leontief.total_intensity")),
    "leontief.systemic_intensity_s": ("s", _self("leontief.systemic_intensity")),
    "leontief.neumann_s": ("s", _self("leontief.neumann")),
    "leontief.neumann_terms": ("count", _field("leontief.neumann", "terms")),
    "leontief.attribute_s": ("s", _self("leontief.attribute")),
    "leontief.leontief_inverse_s": ("s", _self("leontief.leontief_inverse")),
    "leontief.leontief_inverse_count": ("count", _field("leontief.leontief_inverse",
                                                        "calls")),
    "numerics.factorization_s": ("s", _self("numerics.factorization")),
    "numerics.factorization_count": ("count", _field("numerics.factorization", "calls")),
    "numerics.solve_s": ("s", _self("numerics.solve")),
    "numerics.solve_count": ("count", _field("numerics.solve", "calls")),
    "numerics.spectral_s": ("s", _self("numerics.spectral")),
    "numerics.spectral_count": ("count", _field("numerics.spectral", "calls")),
    "numerics.spectral_iterations": ("count", _field("numerics.spectral",
                                                     "iterations")),
    "numerics.factor_gflop": ("GFLOP", _field("numerics.factorization",
                                              "factor_flop", GIGA)),
    "numerics.factor_gflop_per_s": ("GFLOP/s", _ratio(
        _field("numerics.factorization", "factor_flop", GIGA),
        _self("numerics.factorization"))),
    "numerics.solve_gflop": ("GFLOP", _field("numerics.solve", "solve_flop", GIGA)),
    "numerics.matvec_gflop": ("GFLOP", _summed(("numerics.spectral", "leontief.neumann"),
                                               "matvec_flop", GIGA)),
    "numerics.bytes_moved_mib": ("MiB", _summed(_KERNELS, "bytes", MIB)),
    "sensitivity.perturb_inverse_s": ("s", _self("sensitivity.perturb_inverse")),
    "sensitivity.per_sample_s": ("s", _ratio(
        _field("sensitivity.perturb_inverse", "total_s"),
        _field("sensitivity.perturb_inverse", "samples"))),
    "sensitivity.samples": ("count", _field("sensitivity.perturb_inverse", "samples")),
    "sensitivity.diverged_count": ("count", _field("sensitivity.perturb_inverse",
                                                   "diverged")),
    "sensitivity.useful_ratio": ("fraction", _useful),
    "reporting.render_s": ("s", _self("reporting.render")),
    "reporting.bytes": ("bytes", _field("reporting.render", "bytes")),
    "synthetic.generate_economy_s": ("s", _self("synthetic.generate_economy")),
}

RUN_LEVEL_UNITS = {
    "cli.import_s": "s",
    "cli.start_exit_s": "s",
    "cli.trace_overhead_s": "s",
    "cli.span_coverage": "fraction",
}


def per_layer(traced_ops, records, span_cost_s: float) -> dict[str, float]:
    """Per-layer medians, plus run-level figures for the CLI layer.

    ``cli.import_s`` is the median time of ``import iofootprint.cli`` in
    the untraced subprocess ops. ``cli.start_exit_s`` is what remains of
    the median subprocess op once that import and the median in-process
    command time are taken away: interpreter start and exit.
    ``cli.trace_overhead_s`` is the median number of spans per traced op
    times the measured cost of one span.
    """
    metrics = {}
    for name, (_, value) in PER_OP.items():
        found = [v for v in map(value, traced_ops) if v is not None]
        metrics[name] = statistics.median(found) if found else 0.0
    import_s = statistics.median(r.import_s for r in records)
    metrics["cli.import_s"] = import_s
    metrics["cli.start_exit_s"] = (statistics.median(r.op_s for r in records)
                                   - import_s - metrics["cli.command_s"])
    metrics["cli.trace_overhead_s"] = span_cost_s * statistics.median(
        op["spans"] for op in traced_ops)
    # Share of in-process command time that the spans account for.
    metrics["cli.span_coverage"] = (sum(op["covered_s"] for op in traced_ops)
                                    / sum(op["command_s"] for op in traced_ops))
    return metrics


def per_layer_units() -> dict[str, str]:
    return {**{name: unit for name, (unit, _) in PER_OP.items()}, **RUN_LEVEL_UNITS}
