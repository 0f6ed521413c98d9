import tracemalloc

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from iofootprint import (
    DomainError,
    EmissionAccount,
    GeneratorConfig,
    allocation_coefficients,
    attribute_to_demand,
    attribute_to_value_added,
    build_economy,
    direct_intensity,
    generate_economy,
    spectral_radius,
    systemic_intensity,
    technical_coefficients,
    total_intensity,
    validate_balance,
)
from iofootprint.leontief import _one_blas_thread


class TestGeneratorConfig:
    def test_negative_seed_is_a_domain_error(self):
        with pytest.raises(DomainError, match="seed must be nonnegative, got -1"):
            GeneratorConfig(n=3, seed=-1)
        econ, _ = generate_economy(GeneratorConfig(n=3, seed=2**70))
        assert econ.n == 3

    def test_validation(self):
        with pytest.raises(DomainError):
            GeneratorConfig(n=0, seed=1)
        with pytest.raises(DomainError):
            GeneratorConfig(n=3, seed=1, column_sum_cap=1.0)
        with pytest.raises(DomainError):
            GeneratorConfig(n=3, seed=1, column_sum_cap=0.0)
        with pytest.raises(DomainError):
            GeneratorConfig(n=3, seed=1, demand_scale=0.0)
        with pytest.raises(DomainError):
            GeneratorConfig(n=3, seed=1, emission_scale=-1.0)


class TestGenerateEconomy:
    def test_deterministic_bit_identical(self):
        cfg = GeneratorConfig(n=7, seed=123)
        econ1, acct1 = generate_economy(cfg)
        econ2, acct2 = generate_economy(cfg)
        assert econ1.sectors == econ2.sectors
        assert np.array_equal(econ1.transactions, econ2.transactions)
        assert np.array_equal(econ1.demand, econ2.demand)
        assert np.array_equal(econ1.value_added, econ2.value_added)
        assert np.array_equal(econ1.totals, econ2.totals)
        assert np.array_equal(acct1.emissions, acct2.emissions)

    @pytest.mark.parametrize("seed", [1, 2, 17, 99])
    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_generated_economies_are_valid(self, n, seed):
        cfg = GeneratorConfig(n=n, seed=seed)
        econ, acct = generate_economy(cfg)
        assert validate_balance(econ, tol_rel=1e-10).ok
        assert (econ.totals > 0).all()
        assert (econ.value_added > 0).all()
        assert (econ.value_added >= (1 - cfg.column_sum_cap) * econ.totals).all()
        assert (acct.emissions >= 0).all()
        est = spectral_radius(technical_coefficients(econ))
        assert est.rho <= cfg.column_sum_cap

    def test_single_sector_construction(self):
        econ, _ = generate_economy(GeneratorConfig(n=1, seed=5))
        a = econ.transactions[0, 0] / econ.totals[0]
        assert a <= 0.9
        assert econ.totals[0] == pytest.approx(econ.demand[0] / (1 - a), rel=1e-12)
        assert econ.value_added[0] == pytest.approx(
            (1 - a) * econ.totals[0], rel=1e-12
        )

    def test_zero_emission_scale(self):
        econ, acct = generate_economy(
            GeneratorConfig(n=4, seed=9, emission_scale=0.0)
        )
        assert acct.total == 0.0
        F = direct_intensity(econ, acct)
        X = total_intensity(F, technical_coefficients(econ))
        Y = systemic_intensity(F, allocation_coefficients(econ))
        demand_report = attribute_to_demand(X, econ.demand, acct)
        value_report = attribute_to_value_added(Y, econ.value_added, acct)
        assert demand_report.total_attributed == 0.0
        assert value_report.total_attributed == 0.0
        assert demand_report.conservation_residual == 0.0


def reference_generate_economy(config):
    """Reference construction, with one fresh n-by-n array per step.

    The solve runs at one BLAS thread, as ``generate_economy``'s does.
    """
    n = config.n
    rng = np.random.default_rng(config.seed)
    raw = rng.uniform(0.0, 1.0, size=(n, n))
    col_sums = raw.sum(axis=0)
    col_sums[col_sums == 0.0] = 1.0
    targets = config.column_sum_cap * rng.uniform(0.5, 1.0, size=n)
    coefficients = raw * (targets / col_sums)[np.newaxis, :]
    demand = config.demand_scale * rng.uniform(0.1, 1.0, size=n)
    with _one_blas_thread(_umath_linalg):
        totals = np.linalg.solve(np.eye(n) - coefficients, demand)
    transactions = coefficients * totals[np.newaxis, :]
    emissions = config.emission_scale * rng.uniform(0.0, 1.0, size=n)
    sectors = [f"S{i + 1}" for i in range(n)]
    economy = build_economy(sectors, transactions, demand, money_unit="MU")
    return economy, EmissionAccount(emissions, emission_unit="kt CO2")


class TestInPlaceConstruction:
    @pytest.mark.parametrize("seed", [0, 3, 2**70])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
    def test_bit_identical_to_reference(self, n, seed):
        configs = [GeneratorConfig(n=n, seed=seed, column_sum_cap=cap)
                   for cap in (1e-6, 0.9, 0.99)]
        configs.append(GeneratorConfig(n=n, seed=seed, emission_scale=0.0))
        for config in configs:
            econ, acct = generate_economy(config)
            ref, ref_acct = reference_generate_economy(config)
            assert econ.sectors == ref.sectors
            for got, want in ((econ.transactions, ref.transactions),
                              (econ.demand, ref.demand),
                              (econ.value_added, ref.value_added),
                              (econ.totals, ref.totals),
                              (acct.emissions, ref_acct.emissions)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), config

    def test_holds_two_matrices_at_most(self):
        # The drawn matrix and the economy's copy; the solve's own copy of
        # I - A lives in memory numpy does not report to tracemalloc.
        n = 400
        generate_economy(GeneratorConfig(n=n, seed=1))  # one-time allocations
        tracemalloc.start()
        try:
            generate_economy(GeneratorConfig(n=n, seed=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n * n
