"""Command-line interface.

Subcommands cover the full workflow: ``validate`` a table's balance
identities, compute ``intensity`` vectors, ``attribute`` the emission
total to demand or value added, probe inverse stability with ``perturb``,
and ``generate`` synthetic table/emissions pairs. Exit codes are a
contract: 0 success, 1 data or consistency failure, 2 usage error.

Each ``_cmd_*`` function computes its report and returns it as a nested
mapping together with its verdict; :func:`run_command` is the one place
that renders a report, writes it to stdout, turns the verdict into exit
code 0 or 1, and reports errors, warnings and the package's logged
messages as ``error.*`` and ``warning.*`` lines on stderr.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .economy import (
    DEFAULT_BALANCE_TOL,
    ZERO_TOTAL_DROP,
    ZERO_TOTAL_ERROR,
    validate_balance,
)
from .errors import FootprintError
from .leontief import (
    NEUMANN_TOL,
    allocation_coefficients,
    attribute_to_demand,
    attribute_to_value_added,
    direct_intensity,
    systemic_intensity,
    technical_coefficients,
    total_intensity,
    total_intensity_neumann,
)
from .reporting import render, sector_map
from .sensitivity import perturb_inverse
from .synthetic import GeneratorConfig, generate_economy
from .tableio import parse_emissions, parse_table, write_emissions, write_table

# Conservation residuals beyond this are treated as a failed attribution.
ATTRIBUTION_RESIDUAL_LIMIT = 1e-8

# Bounds on user-controlled sizes. Generation holds several n x n float
# arrays at once (the table file is written one row at a time), and
# perturbation spawns every sample's RNG substream up front; values outside
# these ranges are usage errors, rejected before anything is allocated.
GENERATE_MAX_SECTORS = 5000
PERTURB_MAX_SAMPLES = 100_000


def _int_in(low: int, high: int):
    """An argparse type: an int in ``low..high`` inclusive."""
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"must lie in {low}..{high}, got {value}"
            )
        return value
    parse.__name__ = "int"  # argparse names the type in its ValueError message
    return parse


def _tolerance(text: str) -> float:
    """An argparse type: a finite float, zero or more."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {value}")
    return value


_tolerance.__name__ = "float"  # argparse names the type in its ValueError message


def _load(args, tol_rel: float = DEFAULT_BALANCE_TOL):
    """Parse the command's table under its negative value-added and zero-total flags."""
    return parse_table(
        args.table, tol_rel=tol_rel,
        allow_negative_value_added=args.allow_negative_v,
        on_zero_total=ZERO_TOTAL_DROP if args.drop_zero_sectors else ZERO_TOTAL_ERROR,
    )


def _load_direct(args):
    """The table, its emission account and their direct intensity."""
    econ = _load(args)
    account = parse_emissions(args.emissions, econ)
    return econ, account, direct_intensity(econ, account)


def _cmd_validate(args) -> tuple[dict, bool]:
    # Parse with an unbounded balance tolerance so an imbalanced table still
    # comes back as an economy; the report below carries the verdict.
    econ = _load(args, tol_rel=math.inf)
    report = validate_balance(econ, tol_rel=args.tol)
    return {
        "balance": {
            "ok": report.ok,
            "max_residual": report.max_residual,
            "row_residuals": sector_map(econ.sectors, report.row_residuals),
            "col_residuals": sector_map(econ.sectors, report.col_residuals),
        }
    }, report.ok


def _cmd_intensity(args) -> tuple[dict, bool]:
    econ, account, direct = _load_direct(args)
    coefficients = technical_coefficients(econ)
    report = {
        "method": args.method,
        "emission_unit": account.emission_unit,
        "money_unit": econ.money_unit,
        "direct": sector_map(econ.sectors, direct.values),
    }
    if args.method == "neumann":
        total, report["terms"] = total_intensity_neumann(direct, coefficients,
                                                         tol=args.tol)
    else:
        total = total_intensity(direct, coefficients)
    report["total"] = sector_map(econ.sectors, total.values)
    return {"intensity": report}, True


def _cmd_attribute(args) -> tuple[dict, bool]:
    econ, account, direct = _load_direct(args)
    if args.basis == "demand":
        total = total_intensity(direct, technical_coefficients(econ))
        report = attribute_to_demand(total, econ.demand, account)
    else:
        systemic = systemic_intensity(direct, allocation_coefficients(econ))
        report = attribute_to_value_added(systemic, econ.value_added, account)
    return {
        "attribution": {
            "basis": args.basis,
            "emission_unit": account.emission_unit,
            "per_sector": sector_map(econ.sectors, report.per_sector),
            "total_attributed": report.total_attributed,
            "total_emissions": report.total_emissions,
            "conservation_residual": report.conservation_residual,
        }
    }, report.conservation_residual <= ATTRIBUTION_RESIDUAL_LIMIT


def _cmd_perturb(args) -> tuple[dict, bool]:
    coefficients = technical_coefficients(_load(args))
    report = perturb_inverse(coefficients, args.epsilon, args.samples, args.seed)
    return {
        "perturbation": {
            "epsilon": report.epsilon,
            "samples": report.samples,
            "seed": report.seed,
            "baseline_norm": report.baseline_norm,
            "max_deviation": report.max_deviation,
            "amplification": report.amplification,
            "diverged_count": report.diverged_count,
        }
    }, True


def _cmd_generate(args) -> tuple[dict, bool]:
    econ, account = generate_economy(GeneratorConfig(n=args.n, seed=args.seed))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / "table.csv"
    emissions_path = out_dir / "emissions.csv"
    write_table(econ, table_path)
    write_emissions(account, econ, emissions_path)
    return {
        "generate": {
            "n": econ.n,
            "seed": args.seed,
            "table": str(table_path),
            "emissions": str(emissions_path),
        }
    }, True


def _add_table_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--allow-negative-v", action="store_true",
                        help="accept negative value-added entries")
    parser.add_argument("--drop-zero-sectors", action="store_true",
                        help="drop zero-output sectors instead of failing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iofootprint",
        description="Footprint attribution on closed-economy transaction tables.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the balance identities of a table")
    p.add_argument("table")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_BALANCE_TOL,
                   help="relative balance tolerance (default %(default)g)")
    _add_table_options(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("intensity", help="compute direct and total intensity")
    p.add_argument("table")
    p.add_argument("emissions")
    p.add_argument("--method", choices=["solve", "neumann"], default="solve",
                   help="linear solve or series accumulation (default %(default)s)")
    p.add_argument("--tol", type=_tolerance, default=NEUMANN_TOL,
                   help="series stopping tolerance for --method neumann "
                        "(default %(default)g)")
    _add_table_options(p)
    p.set_defaults(func=_cmd_intensity)

    p = sub.add_parser("attribute",
                       help="attribute the emission total to demand or value added")
    p.add_argument("table")
    p.add_argument("emissions")
    p.add_argument("--basis", choices=["demand", "value-added"], default="demand")
    _add_table_options(p)
    p.set_defaults(func=_cmd_attribute)

    p = sub.add_parser("perturb",
                       help="sample coefficient perturbations and report "
                            "inverse deviation")
    p.add_argument("table")
    p.add_argument("--epsilon", type=float, required=True,
                   help="entrywise perturbation bound")
    p.add_argument("--samples", type=_int_in(0, PERTURB_MAX_SAMPLES), default=100)
    p.add_argument("--seed", type=_int_in(0, math.inf), default=0)
    _add_table_options(p)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("generate",
                       help="write a synthetic table and emissions pair")
    p.add_argument("--n", type=_int_in(1, GENERATE_MAX_SECTORS), required=True,
                   help="sector count")
    p.add_argument("--seed", type=_int_in(0, math.inf), default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    return parser


def _write_warning(kind: str, message) -> None:
    """Write a warning as report lines, in the style of ``error.*``."""
    sys.stderr.write(render({"warning": {"type": kind, "message": str(message)}}))


def _show_warning(message, category, filename, lineno, file=None, line=None):
    _write_warning(category.__name__, message)


class _WarningLines(logging.Handler):
    """Writes each logged record as warning lines typed by its logger's name."""

    def emit(self, record: logging.LogRecord) -> None:
        _write_warning(record.name, record.getMessage())


def run_command(argv) -> int:
    """Run one command and return its exit code (0 ok, 1 data, 2 usage)."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exit_:  # argparse exits 2 on usage errors, 0 on --help
        return int(exit_.code or 0)
    package_logger = logging.getLogger("iofootprint")
    handler = _WarningLines(logging.WARNING)
    package_logger.addHandler(handler)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            tree, ok = args.func(args)
            sys.stdout.write(render(tree))
        except (FootprintError, OSError) as err:
            kind = "FileError" if isinstance(err, OSError) else type(err).__name__
            sys.stderr.write(render({"error": {"type": kind, "message": str(err)}}))
            return 1
        finally:
            package_logger.removeHandler(handler)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
