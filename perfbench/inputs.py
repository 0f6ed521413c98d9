"""Seeded workload inputs, made and read without the program's own code.

The benchmark owns its generator and its 17-digit CSV writer, so a change
to ``iofootprint.synthetic`` or ``iofootprint.tableio`` cannot change the
inputs a workload runs on. The construction is the usual backwards one:
draw a coefficient matrix with column sums below one, draw final demand,
solve for the totals that balance them and scale the coefficients up into
money flows. Value added is derived from the column balance, so both
balance identities hold up to roundoff.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MONEY_UNIT = "MU"
EMISSION_UNIT = "kt CO2"
# Column sums of the coefficient matrix stay at or below this, so the
# spectral radius does too and every perturbation in the workloads stays
# convergent.
COLUMN_SUM_CAP = 0.9


@dataclass(frozen=True)
class TableData:
    """One balanced economy and its emission account, as plain arrays."""

    sectors: tuple[str, ...]
    transactions: np.ndarray
    demand: np.ndarray
    value_added: np.ndarray
    totals: np.ndarray
    emissions: np.ndarray

    @property
    def n(self) -> int:
        return len(self.sectors)


def draw_economy(n: int, seed: int) -> TableData:
    """The same ``(n, seed)`` always gives the bit-identical economy."""
    rng = np.random.default_rng([seed, n])
    raw = rng.uniform(0.0, 1.0, size=(n, n))
    targets = COLUMN_SUM_CAP * rng.uniform(0.5, 1.0, size=n)
    coefficients = raw * (targets / raw.sum(axis=0))[np.newaxis, :]
    demand = 100.0 * rng.uniform(0.1, 1.0, size=n)
    totals = np.linalg.solve(np.eye(n) - coefficients, demand)
    transactions = coefficients * totals[np.newaxis, :]
    value_added = totals - transactions.sum(axis=0)
    emissions = 10.0 * rng.uniform(0.05, 1.0, size=n)
    sectors = tuple(f"S{i + 1}" for i in range(n))
    return TableData(sectors, transactions, demand, value_added, totals, emissions)


def _cells(values) -> list[str]:
    return ["%.17g" % v for v in values]


def write_table_csv(data: TableData, path: Path) -> None:
    """Table layout with a T column and trailing V and T rows."""
    lines = [",".join([MONEY_UNIT, *data.sectors, "D", "T"])]
    for i, label in enumerate(data.sectors):
        lines.append(",".join([
            label, *_cells(data.transactions[i]),
            *_cells((data.demand[i], data.totals[i])),
        ]))
    lines.append(",".join(["V", *_cells(data.value_added), "", ""]))
    lines.append(",".join(["T", *_cells(data.totals), "", ""]))
    _write_durably(path, "\n".join(lines) + "\n")


def write_emissions_csv(data: TableData, path: Path, seed: int) -> None:
    """Emission rows in a seeded shuffled order; the CLI matches by label."""
    order = np.random.default_rng([seed, data.n, 1]).permutation(data.n)
    lines = [f"sector,{EMISSION_UNIT}"]
    lines += [f"{data.sectors[i]},{data.emissions[i]:.17g}" for i in order]
    _write_durably(path, "\n".join(lines) + "\n")


def _write_durably(path: Path, text: str) -> None:
    # Flushed to disk now, so writeback of the inputs cannot stall a timed op.
    with open(path, "w", encoding="utf-8") as out:
        out.write(text)
        out.flush()
        os.fsync(out.fileno())


def read_table_csv(path: Path) -> TableData:
    """Read a table written in the layout above (header, n rows, V, T).

    Only the layout the program's ``generate`` writes is accepted; any
    other shape raises ``ValueError``. Emissions are left empty.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    if header[-2:] != ["D", "T"]:
        raise ValueError(f"header does not end in D,T: {header[-2:]}")
    sectors = tuple(header[1:-2])
    n = len(sectors)
    if len(lines) != n + 3:
        raise ValueError(f"expected {n + 3} lines, found {len(lines)}")
    rows = [line.split(",") for line in lines[1:n + 1]]
    if [row[0] for row in rows] != list(sectors):
        raise ValueError("row labels do not follow the header order")
    body = np.array([row[1:] for row in rows], dtype=float)
    tail = {}
    for line in lines[n + 1:]:
        cells = line.split(",")
        if cells[n + 1:] != ["", ""]:
            raise ValueError(f"{cells[0]} row has cells past the sectors")
        tail[cells[0]] = np.array(cells[1:n + 1], dtype=float)
    if sorted(tail) != ["T", "V"]:
        raise ValueError(f"expected trailing V and T rows, found {sorted(tail)}")
    if not np.array_equal(tail["T"], body[:, n + 1]):
        raise ValueError("T row and T column differ")
    return TableData(sectors, body[:, :n], body[:, n], tail["V"], body[:, n + 1],
                     np.empty(0))


def read_emissions_csv(path: Path, sectors) -> tuple[str, np.ndarray]:
    """Unit and emission vector in ``sectors`` order."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    unit = lines[0].split(",", 1)[1]
    values = dict(line.split(",") for line in lines[1:])
    if sorted(values) != sorted(sectors):
        raise ValueError("emission sectors do not match the table")
    return unit, np.array([values[s] for s in sectors], dtype=float)
