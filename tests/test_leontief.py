import math
import tracemalloc
import warnings

import numpy as np
import pytest

from iofootprint import (
    CoefficientKind,
    CoefficientMatrix,
    DimensionMismatch,
    Divergent,
    DomainError,
    Economy,
    EmissionAccount,
    GeneratorConfig,
    IntensityKind,
    IntensityVector,
    KindMismatch,
    NegativeEntry,
    SingularSystem,
    Truncated,
    ZeroTotal,
    allocation_coefficients,
    attribute_to_demand,
    attribute_to_value_added,
    build_economy,
    consumer_direct_footprint,
    direct_intensity,
    generate_economy,
    leontief_inverse,
    systemic_intensity,
    systemic_intensity_from_technical,
    technical_coefficients,
    total_intensity,
    total_intensity_neumann,
)
from iofootprint.leontief import Factorization

# Frozen oracle values for the worked 2-sector economy, computed with the
# explicit 2x2 cofactor inverse (det(I-A) = det(I-B^T) = 0.325) and plain
# scalar arithmetic; see the matching assertions for the derivations.
WORKED_A = [[0.5, 0.5], [0.15, 0.2]]
WORKED_B = [[0.5, 0.25], [0.3, 0.2]]
WORKED_L = [
    [2.4615384615384617, 1.5384615384615383],
    [0.4615384615384615, 1.5384615384615383],
]
WORKED_F = [0.1, 0.1]
WORKED_X = [0.2923076923076923, 0.3076923076923077]
WORKED_Y = [0.3230769230769231, 0.24615384615384617]
WORKED_Y_LITERAL = [0.4, 0.2]
WORKED_PER_DEMAND = [14.615384615384617, 15.384615384615385]
WORKED_PER_VALUE_ADDED = [22.615384615384617, 7.384615384615385]


def inv2x2(M):
    """Independent closed-form inverse used only as a test oracle."""
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det


@pytest.fixture
def worked_account():
    return EmissionAccount([20.0, 10.0], "kt CO2")


class TestCoefficients:
    def test_technical_worked(self, worked_economy):
        A = technical_coefficients(worked_economy)
        assert A.kind is CoefficientKind.TECHNICAL
        assert np.array_equal(A.values, np.array(WORKED_A))

    def test_allocation_worked(self, worked_economy):
        B = allocation_coefficients(worked_economy)
        assert B.kind is CoefficientKind.ALLOCATION
        assert np.array_equal(B.values, np.array(WORKED_B))

    def test_zero_transactions_give_zero_matrices(self):
        econ = build_economy(["a", "b", "c"], np.zeros((3, 3)), [1.0, 2.0, 3.0])
        assert not technical_coefficients(econ).values.any()
        assert not allocation_coefficients(econ).values.any()

    def test_single_sector_normalizations_coincide(self):
        econ = build_economy(["s1"], [[50.0]], [50.0])
        A = technical_coefficients(econ)
        B = allocation_coefficients(econ)
        assert A.values.tolist() == [[0.5]]
        assert np.array_equal(A.values, B.values)

    def test_column_and_row_sum_identities(self, worked_economy):
        A = technical_coefficients(worked_economy)
        B = allocation_coefficients(worked_economy)
        T, V, D = (worked_economy.totals, worked_economy.value_added,
                   worked_economy.demand)
        np.testing.assert_allclose(A.values.sum(axis=0), (T - V) / T, atol=1e-12)
        np.testing.assert_allclose(B.values.sum(axis=1), (T - D) / T, atol=1e-12)

    def test_zero_total_rejected(self):
        econ = Economy(("s1",), [[0.0]], [0.0], [0.0], [0.0])
        with pytest.raises(ZeroTotal):
            technical_coefficients(econ)
        with pytest.raises(ZeroTotal):
            allocation_coefficients(econ)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(Exception):
            CoefficientMatrix(CoefficientKind.TECHNICAL, [[-0.1]])


class TestDirectIntensity:
    def test_worked(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        assert F.kind is IntensityKind.DIRECT
        assert F.values.tolist() == WORKED_F

    def test_zero_emissions(self, worked_economy):
        F = direct_intensity(worked_economy, EmissionAccount([0.0, 0.0]))
        assert not F.values.any()

    def test_single_sector(self):
        econ = build_economy(["s1"], [[50.0]], [50.0])
        F = direct_intensity(econ, EmissionAccount([10.0]))
        assert F.values.tolist() == [0.1]

    def test_length_mismatch(self, worked_economy):
        with pytest.raises(DimensionMismatch):
            direct_intensity(worked_economy, EmissionAccount([1.0, 2.0, 3.0]))


class TestLeontiefInverse:
    def test_zero_matrix_gives_identity(self):
        A = CoefficientMatrix(CoefficientKind.TECHNICAL, np.zeros((3, 3)))
        assert np.array_equal(leontief_inverse(A), np.eye(3))

    def test_worked_against_cofactor_oracle(self, worked_economy):
        A = technical_coefficients(worked_economy)
        L = leontief_inverse(A)
        np.testing.assert_allclose(L, WORKED_L, atol=1e-12)
        np.testing.assert_allclose(L, inv2x2(np.eye(2) - A.values), atol=1e-12)

    def test_inverse_property(self, worked_economy):
        A = technical_coefficients(worked_economy)
        L = leontief_inverse(A)
        np.testing.assert_allclose((np.eye(2) - A.values) @ L, np.eye(2),
                                   atol=1e-14)

    def test_identity_coefficients_singular(self):
        A = CoefficientMatrix(CoefficientKind.TECHNICAL, np.eye(2))
        with pytest.raises(SingularSystem) as exc:
            leontief_inverse(A)
        assert exc.value.rcond is not None and exc.value.rcond < 1e-14

    def test_near_singular_warns_but_solves(self):
        from iofootprint import ConditioningWarning

        A = CoefficientMatrix(
            CoefficientKind.TECHNICAL, [[0.5, 0.5], [0.49999999999, 0.5]]
        )
        with pytest.warns(ConditioningWarning):
            L = leontief_inverse(A)
        assert np.isfinite(L).all()

    def test_accepts_allocation_kind(self, worked_economy):
        B = allocation_coefficients(worked_economy)
        G = leontief_inverse(B)
        np.testing.assert_allclose(G, inv2x2(np.eye(2) - B.values), atol=1e-12)


class TestTotalIntensity:
    def test_no_exchanges_returns_direct(self):
        F = IntensityVector(IntensityKind.DIRECT, [0.3, 0.7])
        A = CoefficientMatrix(CoefficientKind.TECHNICAL, np.zeros((2, 2)))
        X = total_intensity(F, A)
        assert X.kind is IntensityKind.TOTAL_CONSUMER
        np.testing.assert_allclose(X.values, F.values, atol=1e-15)

    def test_single_sector_geometric(self):
        F = IntensityVector(IntensityKind.DIRECT, [0.1])
        A = CoefficientMatrix(CoefficientKind.TECHNICAL, [[0.5]])
        X = total_intensity(F, A)
        assert X.values[0] == pytest.approx(0.2, abs=1e-15)

    def test_worked(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        X = total_intensity(F, technical_coefficients(worked_economy))
        np.testing.assert_allclose(X.values, WORKED_X, atol=1e-12)

    def test_kind_checks(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        A = technical_coefficients(worked_economy)
        B = allocation_coefficients(worked_economy)
        X = total_intensity(F, A)
        with pytest.raises(KindMismatch):
            total_intensity(F, B)
        with pytest.raises(KindMismatch):
            total_intensity(X, A)

    def test_dimension_check(self):
        F = IntensityVector(IntensityKind.DIRECT, [0.1])
        A = CoefficientMatrix(CoefficientKind.TECHNICAL, np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            total_intensity(F, A)


class TestNeumannSeries:
    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
    def test_tolerance_outside_its_range_is_a_domain_error(self, tol):
        F = IntensityVector(IntensityKind.DIRECT, [0.1])
        divergent = CoefficientMatrix(CoefficientKind.TECHNICAL, [[1.0]])
        with pytest.raises(DomainError, match="tol must be nonnegative"):
            total_intensity_neumann(F, divergent, tol=tol)  # checked first

    def test_zero_matrix_one_term(self):
        F = IntensityVector(IntensityKind.DIRECT, [0.3, 0.7])
        A = CoefficientMatrix(CoefficientKind.TECHNICAL, np.zeros((2, 2)))
        X, terms = total_intensity_neumann(F, A)
        assert terms == 1
        assert np.array_equal(X.values, F.values)

    def test_scalar_geometric_series(self):
        F = IntensityVector(IntensityKind.DIRECT, [0.1])
        A = CoefficientMatrix(CoefficientKind.TECHNICAL, [[0.5]])
        X, terms = total_intensity_neumann(F, A, tol=1e-12)
        assert abs(X.values[0] - 0.2) <= 1e-12
        assert 35 <= terms <= 45

    def test_matches_solve_path(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        A = technical_coefficients(worked_economy)
        X_solve = total_intensity(F, A)
        X_series, _ = total_intensity_neumann(F, A, tol=1e-12)
        np.testing.assert_allclose(X_series.values, X_solve.values, atol=1e-10)

    def test_divergent_matrix_rejected(self):
        F = IntensityVector(IntensityKind.DIRECT, [0.1])
        with pytest.raises(Divergent):
            total_intensity_neumann(
                F, CoefficientMatrix(CoefficientKind.TECHNICAL, [[1.0]])
            )

    def test_truncation_carries_partial_sums(self):
        F = IntensityVector(IntensityKind.DIRECT, [0.1])
        A = CoefficientMatrix(CoefficientKind.TECHNICAL, [[0.5]])
        partials = []
        for cap in range(1, 8):
            with pytest.raises(Truncated) as exc:
                total_intensity_neumann(F, A, tol=1e-15, max_terms=cap)
            assert exc.value.terms == cap
            assert exc.value.residual > 1e-15
            partials.append(exc.value.partial.values[0])
        # partial sums are entrywise nondecreasing in the term count
        assert all(a <= b for a, b in zip(partials, partials[1:]))
        assert partials[0] == 0.1  # S_1 is the direct intensity itself

    def test_zero_direct_intensity(self):
        F = IntensityVector(IntensityKind.DIRECT, [0.0, 0.0])
        A = CoefficientMatrix(CoefficientKind.TECHNICAL, [[0.1, 0.2], [0.3, 0.4]])
        X, terms = total_intensity_neumann(F, A)
        assert terms == 1
        assert not X.values.any()


class TestConsumerDirectFootprint:
    def test_worked_undercounts(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        value = consumer_direct_footprint(F, worked_economy.demand)
        assert value == 10.0
        assert value < worked_account.total  # misses intermediate exchanges

    def test_zero_demand(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        assert consumer_direct_footprint(F, np.zeros(2)) == 0.0

    def test_single_sector(self):
        F = IntensityVector(IntensityKind.DIRECT, [0.1])
        assert consumer_direct_footprint(F, np.array([50.0])) == 5.0

    def test_checks(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        X = total_intensity(F, technical_coefficients(worked_economy))
        with pytest.raises(DimensionMismatch):
            consumer_direct_footprint(F, np.zeros(3))
        with pytest.raises(KindMismatch):
            consumer_direct_footprint(X, worked_economy.demand)


class TestDemandAttribution:
    def test_worked(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        X = total_intensity(F, technical_coefficients(worked_economy))
        report = attribute_to_demand(X, worked_economy.demand, worked_account)
        np.testing.assert_allclose(report.per_sector, WORKED_PER_DEMAND,
                                   atol=1e-10)
        assert report.total_emissions == 30.0
        assert report.total_attributed == pytest.approx(30.0, abs=1e-12)
        assert report.conservation_residual <= 1e-12

    def test_single_sector(self):
        X = IntensityVector(IntensityKind.TOTAL_CONSUMER, [0.2])
        report = attribute_to_demand(X, np.array([50.0]), EmissionAccount([10.0]))
        assert report.per_sector.tolist() == [10.0]
        assert report.conservation_residual == 0.0

    def test_empty_economy_convention(self):
        X = IntensityVector(IntensityKind.TOTAL_CONSUMER, [0.0, 0.0])
        report = attribute_to_demand(X, np.zeros(2), EmissionAccount([0.0, 0.0]))
        assert report.total_attributed == 0.0
        assert report.conservation_residual == 0.0  # absolute when |E| = 0

    def test_total_is_exact_sum_of_per_sector(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        X = total_intensity(F, technical_coefficients(worked_economy))
        r1 = attribute_to_demand(X, worked_economy.demand, worked_account)
        r2 = attribute_to_demand(X, worked_economy.demand, worked_account)
        assert r1.total_attributed == r2.total_attributed

    def test_kind_check(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        with pytest.raises(KindMismatch):
            attribute_to_demand(F, worked_economy.demand, worked_account)


class TestSystemicIntensity:
    def test_worked(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        Y = systemic_intensity(F, allocation_coefficients(worked_economy))
        assert Y.kind is IntensityKind.TOTAL_SYSTEMIC
        np.testing.assert_allclose(Y.values, WORKED_Y, atol=1e-12)

    def test_single_sector_equals_consumer_total(self):
        econ = build_economy(["s1"], [[50.0]], [50.0])
        acct = EmissionAccount([10.0])
        F = direct_intensity(econ, acct)
        X = total_intensity(F, technical_coefficients(econ))
        Y = systemic_intensity(F, allocation_coefficients(econ))
        assert Y.values[0] == pytest.approx(X.values[0], abs=1e-15)
        assert Y.values[0] == pytest.approx(0.2, abs=1e-15)

    def test_zero_matrix_returns_direct(self):
        F = IntensityVector(IntensityKind.DIRECT, [0.3, 0.7])
        B = CoefficientMatrix(CoefficientKind.ALLOCATION, np.zeros((2, 2)))
        np.testing.assert_allclose(systemic_intensity(F, B).values, F.values,
                                   atol=1e-15)

    def test_rejects_technical_kind(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        with pytest.raises(KindMismatch):
            systemic_intensity(F, technical_coefficients(worked_economy))

    def test_value_added_attribution(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        Y = systemic_intensity(F, allocation_coefficients(worked_economy))
        report = attribute_to_value_added(
            Y, worked_economy.value_added, worked_account
        )
        np.testing.assert_allclose(report.per_sector, WORKED_PER_VALUE_ADDED,
                                   atol=1e-10)
        assert report.total_attributed == pytest.approx(30.0, abs=1e-12)
        assert report.conservation_residual <= 1e-12

    def test_single_sector_attribution(self):
        Y = IntensityVector(IntensityKind.TOTAL_SYSTEMIC, [0.2])
        report = attribute_to_value_added(Y, np.array([50.0]),
                                          EmissionAccount([10.0]))
        assert report.per_sector.tolist() == [10.0]

    def test_attribution_kind_check(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        with pytest.raises(KindMismatch):
            attribute_to_value_added(F, worked_economy.value_added, worked_account)


class TestTransposedTechnicalComparison:
    def test_worked_counterexample(self, worked_economy, worked_account):
        # the transposed-technical variant overcounts: 34 attributed vs 30
        # measured, a relative residual of 2/15
        F = direct_intensity(worked_economy, worked_account)
        Y_lit = systemic_intensity_from_technical(
            F, technical_coefficients(worked_economy)
        )
        np.testing.assert_allclose(Y_lit.values, WORKED_Y_LITERAL, atol=1e-12)
        report = attribute_to_value_added(
            Y_lit, worked_economy.value_added, worked_account
        )
        assert report.total_attributed == pytest.approx(34.0, abs=1e-9)
        assert report.conservation_residual == pytest.approx(
            0.13333333333333333, abs=1e-6
        )

    def test_coincides_with_allocation_on_uniform_totals(self):
        # equal totals make the two normalizations identical
        A = np.array([[0.2, 0.3, 0.1], [0.25, 0.1, 0.3], [0.15, 0.2, 0.2]])
        t = 100.0
        D = t * (1.0 - A.sum(axis=1))
        C = A * t
        econ = build_economy(["a", "b", "c"], C, D)
        acct = EmissionAccount([5.0, 7.0, 3.0])
        F = direct_intensity(econ, acct)
        Y_alloc = systemic_intensity(F, allocation_coefficients(econ))
        Y_lit = systemic_intensity_from_technical(F, technical_coefficients(econ))
        np.testing.assert_allclose(Y_alloc.values, Y_lit.values, atol=1e-12)

    def test_kind_check(self, worked_economy, worked_account):
        F = direct_intensity(worked_economy, worked_account)
        with pytest.raises(KindMismatch):
            systemic_intensity_from_technical(
                F, allocation_coefficients(worked_economy)
            )


class TestOverflowingNorm:
    """A finite matrix whose 1-norm overflows is singular, without a raw warning."""

    A = CoefficientMatrix(CoefficientKind.TECHNICAL, [[1e308, 1e308], [1e308, 1e308]])

    @pytest.mark.parametrize("call", [
        lambda A: total_intensity(IntensityVector(IntensityKind.DIRECT, [1.0, 1.0]), A),
        leontief_inverse,
    ], ids=["total_intensity", "leontief_inverse"])
    def test_singular_without_warnings(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem) as exc:
                call(self.A)
        assert exc.value.rcond is None


class TestShapeGuards:
    def test_non_square_coefficient_matrix(self):
        with pytest.raises(DimensionMismatch, match=r"square, got shape \(2, 3\)"):
            CoefficientMatrix(CoefficientKind.TECHNICAL, np.zeros((2, 3)))

    def test_matrix_intensity(self):
        with pytest.raises(DimensionMismatch, match=r"vector, got shape \(2, 2\)"):
            IntensityVector(IntensityKind.DIRECT, np.zeros((2, 2)))

    def test_nonfinite_intensity_message_prints_a_plain_float(self):
        with pytest.raises(NegativeEntry) as exc:
            IntensityVector(IntensityKind.DIRECT, [np.inf, 1.0])
        assert str(exc.value) == "intensity entry 0 is not finite (inf)"


def test_factorization_rcond_is_the_reciprocal_condition_number():
    # For a 2x2 matrix the 1-norm estimate is exact: 1 / (||M||_1 ||M^-1||_1).
    M = np.eye(2) - np.array(WORKED_A)
    exact = 1.0 / (np.abs(M).sum(axis=0).max() * np.abs(inv2x2(M)).sum(axis=0).max())
    assert Factorization(np.array(WORKED_A)).rcond == pytest.approx(exact, rel=1e-12)


class TestOverflow:
    """Results beyond the float range are typed errors, not warnings or tracebacks."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_direct_intensity_quotient(self):
        econ = build_economy(["a", "b"], [[1e-300, 0.0], [0.0, 1e-300]],
                             [1e-300, 1e-300])
        with pytest.raises(NegativeEntry,
                           match=r"^intensity entry 0 is not finite \(inf\)$"):
            direct_intensity(econ, EmissionAccount([1e10, 1e10]))

    def test_series_partial_sum(self):
        econ = build_economy(["a", "b"], [[0.5, 0.49], [0.49, 0.5]], [0.01, 0.01])
        direct = direct_intensity(econ, EmissionAccount([1e307, 1e307]))
        with pytest.raises(NegativeEntry, match="is not finite"):
            total_intensity_neumann(direct, technical_coefficients(econ))

    def test_attributed_total(self):
        econ = build_economy(["a", "b"], [[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0])
        account = EmissionAccount([1e308, 1e308])
        direct = direct_intensity(econ, account)
        total = total_intensity(direct, technical_coefficients(econ))
        with pytest.raises(NegativeEntry, match="^attributed emission total "
                                                "overflows the float range$"):
            attribute_to_demand(total, econ.demand, account)
        systemic = systemic_intensity(direct, allocation_coefficients(econ))
        with pytest.raises(NegativeEntry, match="overflows the float range"):
            attribute_to_value_added(systemic, econ.value_added, account)

    def test_attributed_entry(self):
        total = IntensityVector(IntensityKind.TOTAL_CONSUMER, [1e300, 1.0])
        with pytest.raises(NegativeEntry, match=r"^attributed emission entry 0 "
                                                r"is not finite \(inf\)$"):
            attribute_to_demand(total, [1e10, 1.0], EmissionAccount([1.0, 1.0]))


class TestCoefficientsBuiltOnce:
    """Normalization fills one n x n array and checks it in place."""

    @pytest.mark.parametrize("normalize", [technical_coefficients,
                                           allocation_coefficients])
    def test_one_matrix(self, normalize):
        n = 400
        econ = generate_economy(GeneratorConfig(n=n, seed=3))[0]
        normalize(econ)  # one-time allocations
        tracemalloc.start()
        try:
            coefficients = normalize(econ)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not coefficients.values.flags.writeable
        assert peak <= 1.5 * 8 * n * n

    @pytest.mark.parametrize("normalize, kind", [
        (technical_coefficients, CoefficientKind.TECHNICAL),
        (allocation_coefficients, CoefficientKind.ALLOCATION),
    ])
    @pytest.mark.parametrize("entry", [-1.0, math.nan])
    def test_same_error_as_the_constructor(self, normalize, kind, entry):
        # Direct construction checks only shapes, so a bad flow reaches here.
        econ = Economy(("a", "b"), [[1.0, 0.0], [entry, 1.0]], [1.0, 1.0],
                       [1.0, 1.0], [2.0, 2.0])
        with pytest.raises(NegativeEntry) as expected:
            CoefficientMatrix(kind, econ.transactions / 2.0)
        with pytest.raises(NegativeEntry) as got:
            normalize(econ)
        assert str(got.value) == str(expected.value)
        assert got.value.index == expected.value.index == (1, 0)
