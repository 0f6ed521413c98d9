"""Independent references for the workload commands, and the report checks.

Every reference is computed with plain numpy from the benchmark's own
input arrays, outside the timed region: dense ``numpy.linalg.solve`` for
intensities and attributions, explicit balance residuals, and
``numpy.linalg.inv`` on the same ``SeedSequence`` substreams for the
perturbation study. A report passes when it has exactly the expected keys
in the expected order and every value meets its stated tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import inputs

# Dense LAPACK solve against the program's pivoted LU solve.
RTOL_SOLVE = 1e-9
# The series stops once a term is 1e-10 of the partial sum; with every
# column sum at most 0.9 the remaining tail is below 1e-9 of it.
RTOL_SERIES = 1e-7
# Elementwise quotients and compensated sums of identical inputs.
RTOL_EXACT = 1e-14
# Balance residuals of a table balanced up to roundoff.
ATOL_RESIDUAL = 1e-12
CONSERVATION_LIMIT = 1e-10
BALANCE_TOL = 1e-6
# Max-norm of a difference of two inverses, each accurate to ~1e-15 relative.
RTOL_PERTURB = 1e-7
# The program's divergence margin on the spectral radius estimate.
RHO_MARGIN = 1e-12

TOLERANCES = {
    "solve_rtol": RTOL_SOLVE, "series_rtol": RTOL_SERIES,
    "exact_rtol": RTOL_EXACT, "residual_atol": ATOL_RESIDUAL,
    "conservation_residual_max": CONSERVATION_LIMIT,
    "perturb_rtol": RTOL_PERTURB,
}


class Mismatch(Exception):
    """A report or an output file disagrees with its reference."""


@dataclass(frozen=True)
class Exact:
    text: str

    def check(self, value: str) -> bool:
        return value == self.text


@dataclass(frozen=True)
class Close:
    value: float
    rtol: float
    atol: float = 0.0

    def check(self, value: str) -> bool:
        got = float(value)
        return math.isfinite(got) and abs(got - self.value) <= (
            self.atol + self.rtol * abs(self.value))


@dataclass(frozen=True)
class AtMost:
    limit: float

    def check(self, value: str) -> bool:
        return float(value) <= self.limit


@dataclass(frozen=True)
class PositiveInt:
    def check(self, value: str) -> bool:
        return value.isdigit() and int(value) > 0


def parse_report(text: str) -> dict[str, str]:
    """A flat ``key = value`` report as an ordered mapping."""
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep or key in report:
            raise Mismatch(f"malformed or repeated report line {line!r}")
        report[key] = value
    return report


def check_report(text: str, expected: dict) -> None:
    """Raise :class:`Mismatch` unless ``text`` meets ``expected`` key by key."""
    report = parse_report(text)
    if list(report) != list(expected):
        missing = [k for k in expected if k not in report]
        extra = [k for k in report if k not in expected]
        raise Mismatch(f"report keys differ: missing {missing[:3]}, "
                       f"unexpected {extra[:3]} (or out of order)")
    for key, want in expected.items():
        try:
            passed = want.check(report[key])
        except ValueError:  # not a number
            passed = False
        if not passed:
            raise Mismatch(f"{key} = {report[key]} fails {want}")


def _per_sector(prefix: str, sectors, values, rtol: float) -> dict:
    return {f"{prefix}.{s}": Close(float(v), rtol) for s, v in zip(sectors, values)}


def validate_reference(data: inputs.TableData) -> dict:
    C, T = data.transactions, data.totals
    row = np.abs(T - (C.sum(axis=1) + data.demand)) / T
    col = np.abs(T - (data.value_added + C.sum(axis=0))) / T
    worst = float(max(row.max(), col.max()))
    if worst > BALANCE_TOL:
        raise ValueError(f"input table is not balanced ({worst:.3e})")
    expected = {"balance.ok": Exact("true"),
                "balance.max_residual": Close(worst, 0.0, ATOL_RESIDUAL)}
    for name, res in (("row_residuals", row), ("col_residuals", col)):
        for s, r in zip(data.sectors, res):
            expected[f"balance.{name}.{s}"] = Close(float(r), 0.0, ATOL_RESIDUAL)
    return expected


def _direct(data: inputs.TableData) -> np.ndarray:
    return data.emissions / data.totals


def _technical(data: inputs.TableData) -> np.ndarray:
    return data.transactions / data.totals[np.newaxis, :]


def intensity_reference(data: inputs.TableData, method: str) -> dict:
    total = np.linalg.solve((np.eye(data.n) - _technical(data)).T, _direct(data))
    expected = {
        "intensity.method": Exact(method),
        "intensity.emission_unit": Exact(inputs.EMISSION_UNIT),
        "intensity.money_unit": Exact(inputs.MONEY_UNIT),
        **_per_sector("intensity.direct", data.sectors, _direct(data), RTOL_EXACT),
    }
    if method == "neumann":
        expected["intensity.terms"] = PositiveInt()
    rtol = RTOL_SERIES if method == "neumann" else RTOL_SOLVE
    expected.update(_per_sector("intensity.total", data.sectors, total, rtol))
    return expected


def attribute_reference(data: inputs.TableData, basis: str) -> dict:
    n, f = data.n, _direct(data)
    if basis == "demand":
        per_sector = np.linalg.solve((np.eye(n) - _technical(data)).T, f) * data.demand
    else:
        B = data.transactions / data.totals[:, np.newaxis]
        per_sector = np.linalg.solve(np.eye(n) - B, f) * data.value_added
    total = math.fsum(data.emissions)
    return {
        "attribution.basis": Exact(basis),
        "attribution.emission_unit": Exact(inputs.EMISSION_UNIT),
        **_per_sector("attribution.per_sector", data.sectors, per_sector, RTOL_SOLVE),
        "attribution.total_attributed": Close(total, RTOL_SOLVE),
        "attribution.total_emissions": Close(total, RTOL_EXACT),
        "attribution.conservation_residual": AtMost(CONSERVATION_LIMIT),
    }


def _diverges(perturbed: np.ndarray) -> bool:
    # Column sums bound the Perron root; only near the bound is the
    # eigenvalue itself needed.
    if perturbed.sum(axis=0).max() < 1.0 - RHO_MARGIN:
        return False
    return float(np.abs(np.linalg.eigvals(perturbed)).max()) >= 1.0 - RHO_MARGIN


def perturb_reference(data: inputs.TableData, epsilon: float, samples: int,
                      seed: int) -> dict:
    """The perturbation report recomputed with explicit ``numpy.linalg.inv``."""
    n, A = data.n, _technical(data)
    identity = np.eye(n)
    base = np.linalg.inv(identity - A)
    deviation, diverged = 0.0, 0
    for stream in np.random.SeedSequence(seed).spawn(samples):
        noise = np.random.default_rng(stream).uniform(-epsilon, epsilon, size=(n, n))
        perturbed = np.maximum(A + noise, 0.0)
        if _diverges(perturbed):
            diverged += 1
            continue
        moved = np.linalg.inv(identity - perturbed) - base
        deviation = max(deviation, float(np.abs(moved).sum(axis=1).max()))
    return {
        "perturbation.epsilon": Close(epsilon, 0.0),
        "perturbation.samples": Exact(str(samples)),
        "perturbation.seed": Exact(str(seed)),
        "perturbation.baseline_norm": Close(float(np.abs(base).sum(axis=1).max()),
                                            RTOL_SOLVE),
        "perturbation.max_deviation": Close(deviation, RTOL_PERTURB),
        "perturbation.amplification": Close(deviation / epsilon, RTOL_PERTURB),
        "perturbation.diverged_count": Exact(str(diverged)),
    }


def generate_reference(n: int, seed: int, table: str, emissions: str) -> dict:
    return {
        "generate.n": Exact(str(n)),
        "generate.seed": Exact(str(seed)),
        "generate.table": Exact(table),
        "generate.emissions": Exact(emissions),
    }


def check_generated(table_path, emissions_path, n: int, seed: int) -> None:
    """Re-read what ``generate`` wrote and hold it to both identities and
    to ``generate_economy`` for the same seed, bit for bit."""
    from iofootprint.synthetic import GeneratorConfig, generate_economy

    try:
        got = inputs.read_table_csv(table_path)
        unit, emissions = inputs.read_emissions_csv(emissions_path, got.sectors)
    except (OSError, ValueError) as err:
        raise Mismatch(f"generated files unreadable: {err}") from None
    if got.n != n or unit != inputs.EMISSION_UNIT:
        raise Mismatch(f"generated {got.n} sectors in {unit!r}, expected {n}")
    C, T = got.transactions, got.totals
    row = np.abs(T - (C.sum(axis=1) + got.demand)) / T
    col = np.abs(T - (got.value_added + C.sum(axis=0))) / T
    if not max(row.max(), col.max()) <= BALANCE_TOL:
        raise Mismatch("generated table violates a balance identity")
    econ, account = generate_economy(GeneratorConfig(n=n, seed=seed))
    for name, written, want in (
        ("transactions", C, econ.transactions), ("demand", got.demand, econ.demand),
        ("value_added", got.value_added, econ.value_added), ("totals", T, econ.totals),
        ("emissions", emissions, account.emissions),
    ):
        if not np.array_equal(written, want):
            raise Mismatch(f"generated {name} differ from generate_economy "
                           f"(n={n}, seed={seed})")
