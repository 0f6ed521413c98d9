"""``build_economy`` against the pass-by-pass loop it replaced.

The reference below re-runs the whole body on the kept sectors after each
removal, as ``build_economy`` did before it found every drop pass up
front. Both must give the same labels, the same array bytes, the same
logged records in the same order, and the same exception type and
message.
"""

import logging
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iofootprint import FootprintError, ZeroTotal, build_economy
from iofootprint.economy import (
    DEFAULT_BALANCE_TOL,
    ZERO_TOTAL_DROP,
    ZERO_TOTAL_ERROR,
    Economy,
    ImbalancedTable,
    NegativeEntry,
    _check_entries,
    _check_sector_labels,
    _check_shape,
    validate_balance,
)

logger = logging.getLogger("iofootprint.economy")


# Derived sums that overflow become inf or NaN, which the balance gate at the
# end rejects as a typed error; numpy's warnings about them would be noise.
@np.errstate(over="ignore", invalid="ignore")
def reference_build_economy(sectors, transactions, demand, value_added=None,
                            totals=None, *, money_unit: str = "",
                            tol_rel: float = DEFAULT_BALANCE_TOL,
                            allow_negative_value_added: bool = False,
                            on_zero_total: str = ZERO_TOTAL_ERROR) -> Economy:
    """The loop ``build_economy`` ran before it found drop passes up front.

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


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append((record.name, record.levelno, record.getMessage()))


ARRAYS = ("transactions", "demand", "value_added", "totals")


def outcome(build, args, kwargs):
    """What one build gives: its economy's fields or its error, and its log."""
    handler = _Messages()
    logger.addHandler(handler)
    try:
        econ = build(*args, **kwargs)
    except (FootprintError, ValueError) as err:
        result = (type(err), str(err), getattr(err, "index", None),
                  getattr(err, "sector", None))
    else:
        result = (econ.sectors, econ.money_unit,
                  *((getattr(econ, name).dtype, getattr(econ, name).tobytes())
                    for name in ARRAYS))
    finally:
        logger.removeHandler(handler)
    return result, handler.records


@st.composite
def drop_cases(draw):
    """Small tables with sparse sign patterns: zero rows, zero demand and
    removal chains are common."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    zero = draw(st.sampled_from([0.0, -0.0]))
    sells = rng.random((n, n)) < density
    if draw(st.booleans()):  # acyclic: with zero demand, removals cascade
        order = rng.permutation(n)
        sells &= order[:, None] > order[None, :]
    C = np.where(sells, rng.uniform(0.1, 10.0, (n, n)), zero)
    demand_density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    D = np.where(rng.random(n) < demand_density, rng.uniform(0.1, 10.0, n), zero)
    derived = C.sum(axis=1) + D

    totals_kind = draw(st.sampled_from(["derived", "supplied", "noisy"]))
    totals = {
        "derived": None,
        "supplied": derived,
        # positive totals for some zero rows, zero totals for some others
        "noisy": np.where(rng.random(n) < 0.3, 0.0, derived + rng.uniform(0, 2, n)),
    }[totals_kind]
    base = derived if totals is None else totals
    va_kind = draw(st.sampled_from(["derived", "supplied", "noisy"]))
    value_added = {
        "derived": None,
        "supplied": base - C.sum(axis=0),
        "noisy": base - C.sum(axis=0) + rng.uniform(-3, 3, n),
    }[va_kind]

    if draw(st.booleans()):  # the builder also takes nested lists
        C, D = C.tolist(), D.tolist()
    kwargs = {
        "money_unit": "MU",
        "tol_rel": draw(st.sampled_from([DEFAULT_BALANCE_TOL, 1e-2, math.inf])),
        "allow_negative_value_added": draw(st.booleans()),
        "on_zero_total": draw(st.sampled_from([ZERO_TOTAL_ERROR, ZERO_TOTAL_DROP])),
    }
    return ([f"s{k}" for k in range(n)], C, D, value_added, totals), kwargs


@settings(max_examples=400, deadline=None)
@given(drop_cases())
def test_build_matches_the_pass_by_pass_reference(case):
    args, kwargs = case
    copies = [None if a is None else np.array(a, dtype=float) for a in args[1:]]
    expected = outcome(reference_build_economy, args, kwargs)
    assert outcome(build_economy, args, kwargs) == expected
    for before, after in zip(copies, args[1:]):  # inputs are read, not written
        if after is not None:
            assert np.array(after, dtype=float).tobytes() == before.tobytes()


def test_economy_arrays_are_copies_of_the_inputs():
    C, D = np.array([[1.0, 2.0], [0.0, 3.0]]), np.array([1.0, 1.0])
    V, T = np.array([3.0, -1.0]), np.array([4.0, 4.0])
    econ = build_economy(["a", "b"], C, D, V, T, allow_negative_value_added=True)
    for built, given_ in zip((econ.transactions, econ.demand, econ.value_added,
                              econ.totals), (C, D, V, T)):
        assert not np.shares_memory(built, given_)
        assert not built.flags.writeable


@pytest.mark.parametrize("n", [600, 1200])
def test_removal_chain_is_found_in_one_pass_over_the_matrix(n):
    # Sector k sells only to sector k - 1: every pass drops one sector.
    C = np.zeros((n, n))
    C[np.arange(1, n), np.arange(n - 1)] = 1.0
    handler = _Messages()
    logger.addHandler(handler)
    start = time.perf_counter()
    try:
        with pytest.raises(ZeroTotal, match="^all sectors have zero total output$"):
            build_economy([f"s{k}" for k in range(n)], C, np.zeros(n),
                          on_zero_total=ZERO_TOTAL_DROP,
                          allow_negative_value_added=True)
    finally:
        logger.removeHandler(handler)
    assert time.perf_counter() - start < 1.0
    assert [message for _, _, message in handler.records] == [
        f"dropping zero-output sectors: s{k}" for k in range(n)]
