"""Closed-economy transaction table model and balance validation.

An economy is a square table of inter-sector money flows together with
final demand, value added, and total output per sector. Two double-entry
identities make the table meaningful: each sector's total output equals
its sales (row sum plus demand) and also its costs (column sum plus value
added). Everything downstream, from coefficient matrices to footprint
attribution, silently assumes these identities, so this module enforces
them at construction time and exposes them for auditing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateSector,
    ImbalancedTable,
    NegativeEntry,
    ZeroTotal,
)

logger = logging.getLogger(__name__)

DEFAULT_BALANCE_TOL = 1e-6

# Policies for sectors whose total output is zero. Normalizing by totals
# divides by them, so they cannot be kept.
ZERO_TOTAL_ERROR = "error"
ZERO_TOTAL_DROP = "drop"


def _as_readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _check_shape(arr: np.ndarray, shape: tuple, name: str) -> None:
    if arr.shape != shape:
        raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {shape}")


def _check_entries(arr: np.ndarray, name: str, *, nonnegative: bool = True) -> None:
    """Raise :class:`NegativeEntry` at the first non-finite (or negative) entry.

    Negative entries are rejected only with ``nonnegative``. The error's
    index is an int for vectors and a tuple of ints for matrices.
    """
    bad = ~np.isfinite(arr)
    if nonnegative:
        bad |= arr < 0
    if bad.any():
        index = tuple(int(k) for k in np.unravel_index(int(np.argmax(bad)), arr.shape))
        index = index[0] if arr.ndim == 1 else index
        rule = "negative or not finite" if nonnegative else "not finite"
        raise NegativeEntry(f"{name} entry {index} is {rule} ({float(arr[index])!r})",
                            index=index)


def _fsum(values, name: str) -> float:
    """The compensated (``math.fsum``) sum of finite ``values``.

    A sum beyond the float range raises :class:`NegativeEntry`, the error
    for every value that is not finite, in place of fsum's OverflowError.
    """
    try:
        return math.fsum(values)
    except OverflowError:
        raise NegativeEntry(f"{name} overflows the float range") from None


@dataclass(frozen=True)
class Economy:
    """An immutable closed-economy transaction table.

    ``transactions[i, j]`` is the money flow from sector ``i`` (seller) to
    sector ``j`` (buyer). ``demand``, ``value_added`` and ``totals`` are
    per-sector column vectors in the same money unit. Construction through
    :func:`build_economy` guarantees positive totals and balance within
    tolerance; direct construction only checks shapes.
    """

    sectors: tuple[str, ...]
    transactions: np.ndarray
    demand: np.ndarray
    value_added: np.ndarray
    totals: np.ndarray
    money_unit: str = ""

    def __post_init__(self):
        object.__setattr__(self, "sectors", tuple(self.sectors))
        n = len(self.sectors)
        object.__setattr__(self, "transactions", _as_readonly(self.transactions))
        _check_shape(self.transactions, (n, n), "transaction matrix")
        for name in ("demand", "value_added", "totals"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
            _check_shape(getattr(self, name), (n,), name)

    @property
    def n(self) -> int:
        """Number of sectors."""
        return len(self.sectors)


@dataclass(frozen=True)
class EmissionAccount:
    """Per-sector emission totals, aligned to an economy's sector order.

    Entries must be finite and nonnegative; the unit label is free-form
    (for example ``"kt CO2"``) and is carried through reports unchanged.
    """

    emissions: np.ndarray
    emission_unit: str = ""

    def __post_init__(self):
        object.__setattr__(self, "emissions", _as_readonly(self.emissions))
        if self.emissions.ndim != 1:
            raise DimensionMismatch(
                f"emissions must be a vector, got shape {self.emissions.shape}"
            )
        _check_entries(self.emissions, "emission")

    @property
    def total(self) -> float:
        """Total emissions over all sectors, as a compensated (``fsum``) sum."""
        return _fsum(self.emissions, "emission total")


@dataclass(frozen=True)
class BalanceReport:
    """Relative residuals of the two balance identities, per sector.

    ``row_residuals[i]`` measures output-side balance
    ``|t_i - (sum_j c_ij + d_i)| / t_i`` and ``col_residuals[i]`` the
    input-side ``|t_i - (v_i + sum_j c_ji)| / t_i``. ``max_residual`` is the
    maximum over both vectors and ``ok`` is True when it is within the
    tolerance the report was computed at.
    """

    row_residuals: np.ndarray = field(repr=False)
    col_residuals: np.ndarray = field(repr=False)
    max_residual: float = 0.0
    ok: bool = True

    def __post_init__(self):
        object.__setattr__(self, "row_residuals", _as_readonly(self.row_residuals))
        object.__setattr__(self, "col_residuals", _as_readonly(self.col_residuals))


def _check_sector_labels(sectors) -> tuple[str, ...]:
    labels = tuple(str(s) for s in sectors)
    if not labels:
        raise DimensionMismatch("an economy needs at least one sector")
    seen = set()
    for label in labels:
        if not label.strip():
            raise DimensionMismatch("sector labels must be non-empty strings")
        if label in seen:
            raise DuplicateSector(f"duplicate sector label {label!r}")
        seen.add(label)
    return labels


# Derived sums that overflow become inf or NaN, which the balance gate at the
# end rejects as a typed error; numpy's warnings about them would be noise.
@np.errstate(over="ignore", invalid="ignore")
def build_economy(sectors, transactions, demand, value_added=None, totals=None,
                  *, money_unit: str = "", tol_rel: float = DEFAULT_BALANCE_TOL,
                  allow_negative_value_added: bool = False,
                  on_zero_total: str = ZERO_TOTAL_ERROR) -> Economy:
    """Assemble and validate an economy from its table components.

    When ``totals`` is absent it is derived from row sums plus demand, and
    when ``value_added`` is absent it is derived as totals minus column
    sums, so a table given only as flows and demand balances exactly by
    construction. Supplied totals and value added win over derived ones
    (published figures take precedence) but must balance within ``tol_rel``
    relative tolerance, or :class:`ImbalancedTable` is raised with the
    offending residuals attached.

    Sectors with zero total output cannot be normalized; by default they
    raise :class:`ZeroTotal` naming the sector. ``on_zero_total="drop"``
    removes them, logging one warning, and runs every step above again on
    the kept rows and columns (and the kept supplied totals and value
    added), so the reduced table takes every check of a whole table. A
    sector whose output falls to zero with a removal is dropped on that
    next pass, with a warning of its own; :class:`ZeroTotal` is raised
    when no sector is left.

    Value added may legitimately be negative in published tables; pass
    ``allow_negative_value_added=True`` to accept that. Transactions,
    demand, and totals must always be nonnegative and finite.
    """
    while True:  # once, and again on the kept sectors after each removal
        labels = _check_sector_labels(sectors)
        n = len(labels)
        if on_zero_total not in (ZERO_TOTAL_ERROR, ZERO_TOTAL_DROP):
            raise ValueError(f"unknown zero-total policy {on_zero_total!r}")

        C = np.array(transactions, dtype=float)
        D = np.array(demand, dtype=float)
        _check_shape(C, (n, n), "transaction matrix")
        _check_shape(D, (n,), "demand")
        _check_entries(C, "transaction")
        _check_entries(D, "demand")

        if totals is not None:
            T = np.array(totals, dtype=float)
            _check_shape(T, (n,), "totals")
            _check_entries(T, "totals")
        else:
            T = C.sum(axis=1) + D
        if value_added is not None:
            V = np.array(value_added, dtype=float)
            _check_shape(V, (n,), "value added")
            _check_entries(V, "value added", nonnegative=False)
        else:
            V = T - C.sum(axis=0)

        zero = T <= 0
        if not zero.any():
            break
        names = [labels[i] for i in np.flatnonzero(zero)]
        if on_zero_total == ZERO_TOTAL_ERROR:
            raise ZeroTotal(
                f"sector {names[0]!r} has zero total output "
                "(use the drop policy to remove such sectors)",
                sector=names[0],
            )
        logger.warning("dropping zero-output sectors: %s", ", ".join(names))
        keep = np.flatnonzero(~zero)
        if not keep.size:
            raise ZeroTotal("all sectors have zero total output")
        sectors = [labels[i] for i in keep]
        transactions, demand = C[np.ix_(keep, keep)], D[keep]
        value_added = None if value_added is None else V[keep]
        totals = None if totals is None else T[keep]

    if (V < 0).any() and not allow_negative_value_added:
        i = int(np.argmax(V < 0))
        raise NegativeEntry(
            f"value added of sector {labels[i]!r} is negative ({float(V[i])!r}); "
            "pass allow_negative_value_added=True to accept it",
            index=i,
        )

    econ = Economy(labels, C, D, V, T, money_unit)
    report = validate_balance(econ, tol_rel)
    if not report.ok:
        raise ImbalancedTable(
            f"supplied table violates the balance identities "
            f"(max relative residual {report.max_residual:.3e} is not within "
            f"tolerance {tol_rel:.1e})",
            report=report,
        )
    return econ


def validate_balance(econ: Economy, tol_rel: float = DEFAULT_BALANCE_TOL) -> BalanceReport:
    """Check both balance identities of an economy; never raises.

    A residual that is NaN (an overflowed sum) propagates into
    ``max_residual`` and fails the check. Pure function: the economy is
    not modified and repeated calls yield identical reports.
    """
    totals = econ.totals
    with np.errstate(over="ignore", invalid="ignore"):
        row = np.abs(totals - (econ.transactions.sum(axis=1) + econ.demand)) / totals
        col = np.abs(totals - (econ.value_added + econ.transactions.sum(axis=0))) / totals
    max_res = float(np.maximum(row.max(), col.max()))
    return BalanceReport(row, col, max_res, ok=bool(max_res <= tol_rel))

