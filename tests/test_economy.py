import logging

import numpy as np
import pytest

from iofootprint import (
    DimensionMismatch,
    DuplicateSector,
    Economy,
    EmissionAccount,
    ImbalancedTable,
    KindMismatch,
    NegativeEntry,
    ZeroTotal,
    allocation_coefficients,
    build_economy,
    demand_identity_residual,
    technical_coefficients,
    validate_balance,
)
from iofootprint.economy import ZERO_TOTAL_DROP


class TestBuildEconomy:
    def test_single_sector_derivation(self):
        econ = build_economy(["s1"], [[50.0]], [50.0])
        assert econ.totals.tolist() == [100.0]
        assert econ.value_added.tolist() == [50.0]

    def test_two_sector_derivation(self, worked_economy):
        # row sums 150, 50 plus demand; column sums 130, 70 off the totals
        assert worked_economy.totals.tolist() == [200.0, 100.0]
        assert worked_economy.value_added.tolist() == [70.0, 30.0]

    def test_supplied_totals_win_when_consistent(self):
        econ = build_economy(
            ["s1", "s2"], [[100, 50], [30, 20]], [50, 50],
            totals=[200.0, 100.0],
        )
        assert econ.totals.tolist() == [200.0, 100.0]

    def test_inconsistent_totals_rejected(self):
        with pytest.raises(ImbalancedTable) as exc:
            build_economy(["s1", "s2"], [[100, 50], [30, 20]], [50, 50],
                          totals=[999.0, 100.0])
        report = exc.value.report
        assert report is not None and not report.ok
        assert report.max_residual > 0.5

    def test_order_preserving_and_deterministic(self):
        labels = ["zulu", "alpha", "mike"]
        C = np.diag([1.0, 2.0, 3.0])
        econ1 = build_economy(labels, C, [1.0, 2.0, 3.0])
        econ2 = build_economy(labels, C, [1.0, 2.0, 3.0])
        assert econ1.sectors == tuple(labels)
        assert np.array_equal(econ1.totals, econ2.totals)
        assert np.array_equal(econ1.value_added, econ2.value_added)

    def test_dimension_mismatches(self):
        with pytest.raises(DimensionMismatch):
            build_economy(["s1", "s2"], [[1, 2, 3], [4, 5, 6]], [1, 1])
        with pytest.raises(DimensionMismatch):
            build_economy(["s1", "s2"], [[1, 2], [3, 4]], [1.0])
        with pytest.raises(DimensionMismatch):
            build_economy([], [], [])

    def test_negative_entry_reports_index(self):
        with pytest.raises(NegativeEntry) as exc:
            build_economy(["s1", "s2"], [[1.0, -2.0], [0.0, 1.0]], [1, 1])
        assert exc.value.index == (0, 1)
        with pytest.raises(NegativeEntry):
            build_economy(["s1"], [[1.0]], [-1.0])
        with pytest.raises(NegativeEntry):
            build_economy(["s1"], [[np.nan]], [1.0])

    def test_duplicate_and_empty_labels(self):
        with pytest.raises(DuplicateSector):
            build_economy(["a", "a"], np.eye(2), [1, 1])
        with pytest.raises(DimensionMismatch):
            build_economy(["a", " "], np.eye(2), [1, 1])

    def test_zero_total_default_names_sector(self):
        with pytest.raises(ZeroTotal) as exc:
            build_economy(["live", "dead"], [[10.0, 0.0], [0.0, 0.0]], [10.0, 0.0])
        assert exc.value.sector == "dead"

    def test_zero_total_drop_policy(self, caplog):
        with caplog.at_level(logging.WARNING, logger="iofootprint.economy"):
            econ = build_economy(
                ["live", "dead"], [[10.0, 0.0], [0.0, 0.0]], [10.0, 0.0],
                on_zero_total="drop",
            )
        assert econ.sectors == ("live",)
        assert econ.totals.tolist() == [20.0]
        assert "dead" in caplog.text

    def test_negative_value_added_policy(self):
        # column sum of sector 2 exceeds its total, so derived V goes negative
        C = [[0.0, 150.0], [0.0, 0.0]]
        D = [50.0, 50.0]
        with pytest.raises(NegativeEntry):
            build_economy(["s1", "s2"], C, D)
        econ = build_economy(["s1", "s2"], C, D, allow_negative_value_added=True)
        assert econ.value_added.tolist() == [200.0, -100.0]
        assert validate_balance(econ).ok

    def test_supplied_negative_value_added_needs_flag(self):
        econ_kwargs = dict(
            sectors=["s1"], transactions=[[0.0]], demand=[10.0],
            value_added=[-2.0], totals=[10.0],
        )
        with pytest.raises(NegativeEntry):
            build_economy(
                econ_kwargs["sectors"], econ_kwargs["transactions"],
                econ_kwargs["demand"], econ_kwargs["value_added"],
                econ_kwargs["totals"],
            )
        # with the flag the table must still balance, and -2 != 10 does not
        with pytest.raises(ImbalancedTable):
            build_economy(
                econ_kwargs["sectors"], econ_kwargs["transactions"],
                econ_kwargs["demand"], econ_kwargs["value_added"],
                econ_kwargs["totals"], allow_negative_value_added=True,
            )

    def test_arrays_are_immutable(self, worked_economy):
        with pytest.raises(ValueError):
            worked_economy.transactions[0, 0] = 7.0
        with pytest.raises(ValueError):
            worked_economy.totals[0] = 7.0


class TestValidateBalance:
    def test_derived_economy_balances_exactly(self, worked_economy):
        report = validate_balance(worked_economy, tol_rel=1e-6)
        assert report.ok
        assert report.max_residual == 0.0
        assert report.row_residuals.tolist() == [0.0, 0.0]
        assert report.col_residuals.tolist() == [0.0, 0.0]

    def test_perturbed_total_detected(self, worked_economy):
        totals = worked_economy.totals.copy()
        totals[0] *= 1.01
        perturbed = Economy(
            worked_economy.sectors, worked_economy.transactions,
            worked_economy.demand, worked_economy.value_added, totals,
        )
        report = validate_balance(perturbed, tol_rel=1e-6)
        assert not report.ok
        # |202 - 200| / 202, on both sides of the identity
        assert report.row_residuals[0] == pytest.approx(0.009900990099009901)
        assert report.col_residuals[0] == pytest.approx(0.009900990099009901)
        assert report.row_residuals[1] == 0.0

    def test_no_intersector_flows(self):
        econ = build_economy(["s1"], [[0.0]], [10.0],
                             value_added=[10.0], totals=[10.0])
        report = validate_balance(econ)
        assert report.ok and report.max_residual == 0.0

    def test_pure_function_repeatable(self, worked_economy):
        first = validate_balance(worked_economy)
        second = validate_balance(worked_economy)
        assert np.array_equal(first.row_residuals, second.row_residuals)
        assert np.array_equal(first.col_residuals, second.col_residuals)
        assert first.max_residual == second.max_residual
        assert first.ok == second.ok


class TestDemandIdentity:
    def test_worked_economy(self, worked_economy):
        A = technical_coefficients(worked_economy)
        assert demand_identity_residual(worked_economy, A) <= 1e-14

    def test_single_sector_exact(self):
        econ = build_economy(["s1"], [[50.0]], [50.0])
        A = technical_coefficients(econ)
        assert demand_identity_residual(econ, A) == 0.0

    def test_purely_intermediate_sector(self):
        # reverse construction with d_1 = 0: totals from the solve, flows
        # scaled back up from the sampled coefficients
        A = np.array([[0.2, 0.3], [0.4, 0.1]])
        D = np.array([0.0, 100.0])
        T = np.linalg.solve(np.eye(2) - A, D)
        C = A * T[np.newaxis, :]
        econ = build_economy(["s1", "s2"], C, D)
        coeff = technical_coefficients(econ)
        assert demand_identity_residual(econ, coeff) <= 1e-14

    def test_rejects_allocation_kind(self, worked_economy):
        B = allocation_coefficients(worked_economy)
        with pytest.raises(KindMismatch):
            demand_identity_residual(worked_economy, B)


class TestEmissionAccount:
    def test_total(self):
        acct = EmissionAccount([20.0, 10.0], "kt CO2")
        assert acct.total == 30.0
        assert acct.emission_unit == "kt CO2"

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(NegativeEntry):
            EmissionAccount([1.0, -0.5])
        with pytest.raises(NegativeEntry):
            EmissionAccount([np.inf])

    def test_immutable(self):
        acct = EmissionAccount([1.0])
        with pytest.raises(ValueError):
            acct.emissions[0] = 2.0


class TestNonFiniteBalance:
    @pytest.mark.parametrize("transactions", [
        [[1e308, 1e308], [1.0, 1.0]],  # row sum overflows: derived total is inf
        [[1e308, 0.0], [1e308, 0.0]],  # column sum overflows: derived V is -inf
    ])
    def test_overflowing_table_is_imbalanced(self, transactions):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ImbalancedTable) as exc:
                build_economy(["a", "b"], transactions, [1.0, 1.0],
                              allow_negative_value_added=True)
        assert exc.value.report.ok is False


def test_emission_total_is_compensated():
    assert EmissionAccount([1e16, 1.0, 1.0]).total == 1.0000000000000002e16


class TestGuards:
    def test_matrix_emission_account(self):
        with pytest.raises(DimensionMismatch, match=r"got shape \(2, 2\)"):
            EmissionAccount([[1.0, 2.0], [3.0, 4.0]])

    def test_unknown_zero_total_policy(self):
        with pytest.raises(ValueError, match="unknown zero-total policy 'keep'"):
            build_economy(["a"], [[1.0]], [1.0], on_zero_total="keep")

    def test_dropping_every_sector(self, caplog):
        with pytest.raises(ZeroTotal, match="^all sectors have zero total output$"):
            with caplog.at_level(logging.WARNING, logger="iofootprint.economy"):
                build_economy(["a", "b"], np.zeros((2, 2)), [0.0, 0.0],
                              on_zero_total=ZERO_TOTAL_DROP)

    def test_negative_value_added_message_prints_a_plain_float(self):
        with pytest.raises(NegativeEntry) as exc:
            build_economy(["a", "b"], [[0.0, 4.0], [0.0, 1.0]], [1.0, 0.0])
        assert str(exc.value) == (
            "value added of sector 'b' is negative (-4.0); "
            "pass allow_negative_value_added=True to accept it"
        )


def test_overflowing_emission_total_is_a_typed_error():
    account = EmissionAccount([1e308, 1e308])
    with pytest.raises(NegativeEntry, match="^emission total overflows"):
        account.total
