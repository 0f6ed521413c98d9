import math
import warnings

import numpy as np
import pytest

from iofootprint import (
    CoefficientKind,
    CoefficientMatrix,
    Divergent,
    DomainError,
    GeneratorConfig,
    IntensityKind,
    IntensityVector,
    amplification_curve,
    generate_economy,
    perturb_inverse,
    spectral_radius,
    technical_coefficients,
    total_intensity_neumann,
)


def coeff(values):
    return CoefficientMatrix(CoefficientKind.TECHNICAL, values)


class TestSpectralRadius:
    def test_zero_matrix(self):
        est = spectral_radius(coeff(np.zeros((4, 4))))
        assert est.rho == 0.0
        assert est.converged

    def test_diagonal(self):
        est = spectral_radius(coeff(np.diag([0.5, 0.2])))
        assert est.rho == pytest.approx(0.5, abs=1e-9)
        assert est.converged

    def test_worked_two_by_two(self, worked_economy):
        # dominant root of the characteristic polynomial: (0.7 + sqrt(0.39)) / 2
        expected = (0.7 + math.sqrt(0.39)) / 2
        est = spectral_radius(technical_coefficients(worked_economy))
        assert est.rho == pytest.approx(expected, abs=1e-6)
        assert est.converged

    def test_periodic_matrix(self):
        # plain power iteration oscillates on this one; the estimate must not
        est = spectral_radius(coeff([[0.0, 2.0], [0.5, 0.0]]))
        assert est.rho == pytest.approx(1.0, abs=1e-9)

    def test_against_eigenvalue_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            values = rng.uniform(0.0, 1.0, (n, n)) * rng.uniform(0.05, 1.2)
            expected = float(np.abs(np.linalg.eigvals(values)).max())
            est = spectral_radius(coeff(values))
            assert est.rho == pytest.approx(expected, rel=1e-6, abs=1e-9)

    def test_bounded_by_column_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            values = rng.uniform(0.0, 1.0, (n, n))
            est = spectral_radius(coeff(values), max_iter=7)  # mid-iteration too
            assert est.rho <= values.sum(axis=0).max()

    def test_iteration_cap_flags_unconverged(self):
        # two decoupled blocks with close roots mix out very slowly
        values = np.diag([0.9, 0.89])
        est = spectral_radius(coeff(values), tol=1e-12, max_iter=5)
        assert not est.converged
        assert 0.89 <= est.rho <= 0.9 + 1e-12


class TestPerturbInverse:
    def test_scalar_near_one_hits_endpoint(self):
        # endpoint probe at a + eps: 1/(1-0.995) = 200 vs baseline 100
        report = perturb_inverse(coeff([[0.99]]), epsilon=0.005, samples=16, seed=3)
        assert report.baseline_norm == pytest.approx(100.0, rel=1e-12)
        assert report.max_deviation == pytest.approx(100.0, rel=1e-9)
        assert report.amplification == pytest.approx(2.0e4, rel=1e-9)
        assert report.diverged_count == 0

    def test_scalar_midrange_bound(self):
        # worst case is the upper endpoint: 1/0.495 - 1/0.5
        expected = 1.0 / 0.495 - 1.0 / 0.5
        report = perturb_inverse(coeff([[0.5]]), epsilon=0.005, samples=16, seed=3)
        assert report.max_deviation == pytest.approx(expected, rel=1e-12)
        assert report.amplification == pytest.approx(4.040404040404066, rel=1e-9)

    def test_zero_matrix_small_deviations(self):
        n, eps = 3, 0.01
        report = perturb_inverse(coeff(np.zeros((n, n))), epsilon=eps,
                                 samples=32, seed=11)
        assert report.baseline_norm == 1.0
        # series bound: ||(I-B)^-1 - I|| <= ||B|| / (1 - ||B||), ||B|| <= n*eps
        assert 0.0 < report.max_deviation <= n * eps / (1.0 - n * eps)
        assert report.diverged_count == 0

    def test_deterministic_and_seed_sensitivity(self, worked_economy):
        A = technical_coefficients(worked_economy)
        first = perturb_inverse(A, 0.01, 25, seed=42)
        second = perturb_inverse(A, 0.01, 25, seed=42)
        other = perturb_inverse(A, 0.01, 25, seed=43)
        assert first == second
        assert other.baseline_norm == first.baseline_norm
        assert other.max_deviation != first.max_deviation

    def test_divergent_baseline(self):
        with pytest.raises(Divergent):
            perturb_inverse(coeff([[1.0]]), 0.01, 4, seed=0)

    def test_argument_validation(self, worked_economy):
        A = technical_coefficients(worked_economy)
        with pytest.raises(DomainError):
            perturb_inverse(A, 0.0, 4, seed=0)
        with pytest.raises(DomainError):
            perturb_inverse(A, 0.01, -1, seed=0)

    @pytest.mark.parametrize("samples", [0, 4])
    def test_negative_seed_is_a_domain_error(self, worked_economy, samples):
        A = technical_coefficients(worked_economy)
        with pytest.raises(DomainError, match="seed must be nonnegative, got -1"):
            perturb_inverse(A, 0.01, samples, seed=-1)
        assert perturb_inverse(A, 0.01, samples, seed=2**70).seed == 2**70

    @pytest.mark.parametrize("epsilon", [math.inf, 1e308, math.nan])
    @pytest.mark.parametrize("samples", [0, 4])
    def test_epsilon_outside_the_float_range(self, worked_economy, epsilon, samples):
        # 2 * epsilon is the width of the noise interval; it must be finite.
        with pytest.raises(DomainError, match="epsilon must be"):
            perturb_inverse(technical_coefficients(worked_economy), epsilon, samples,
                            seed=0)

    def test_largest_epsilon_whose_range_is_finite(self):
        epsilon = np.nextafter(np.finfo(float).max / 2, 0.0)
        report = perturb_inverse(coeff([[0.5]]), epsilon, 3, seed=0)
        assert math.isfinite(report.amplification)

    def test_report_invariants(self, worked_economy):
        A = technical_coefficients(worked_economy)
        report = perturb_inverse(A, 0.02, 40, seed=1)
        assert report.amplification >= 0.0
        assert 0 <= report.diverged_count <= report.samples
        assert report.seed == 1 and report.samples == 40

    def test_safe_regime_never_diverges(self):
        # column sums below 0.5 plus total perturbation mass n * (0.01 / n)
        # keep every draw strictly convergent
        for n, seed in [(1, 5), (4, 6), (9, 7)]:
            econ, _ = generate_economy(
                GeneratorConfig(n=n, seed=seed, column_sum_cap=0.5)
            )
            A = technical_coefficients(econ)
            report = perturb_inverse(A, epsilon=0.01 / n, samples=50, seed=seed)
            assert report.diverged_count == 0


class TestSubstreams:
    """Draw k uses child k of ``SeedSequence(seed).spawn(samples)``, made when drawn."""

    @staticmethod
    def state(sequence):
        return (sequence.entropy, sequence.spawn_key, sequence.pool_size,
                sequence.generate_state(8).tolist())

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**63, 2**70])
    @pytest.mark.parametrize("samples", [0, 1, 7])
    def test_each_draw_is_the_spawned_child(self, worked_economy, monkeypatch,
                                            seed, samples):
        used = []
        default_rng = np.random.default_rng

        def spy(seed_sequence):
            used.append(self.state(seed_sequence))
            return default_rng(seed_sequence)

        monkeypatch.setattr(np.random, "default_rng", spy)
        perturb_inverse(technical_coefficients(worked_economy), 0.01, samples, seed)
        assert used == [self.state(child)
                        for child in np.random.SeedSequence(seed).spawn(samples)]


class TestDivergingDraws:
    def test_some_draws_diverge_deterministically(self):
        first = perturb_inverse(coeff([[0.995]]), 0.01, 50, seed=1)
        assert 0 < first.diverged_count < first.samples
        assert perturb_inverse(coeff([[0.995]]), 0.01, 50, seed=1) == first


class TestOverflowingMatrix:
    """Power iteration overflows to a NaN estimate; every gate calls it divergent."""

    MATRIX = [[1e308, 1e308], [1e308, 1e308]]

    def test_estimate_is_nan(self):
        assert math.isnan(spectral_radius(coeff(self.MATRIX)).rho)

    @pytest.mark.parametrize("call", [
        lambda A: total_intensity_neumann(
            IntensityVector(IntensityKind.DIRECT, [1.0, 1.0]), A),
        lambda A: perturb_inverse(A, epsilon=1e-3, samples=3, seed=0),
    ], ids=["neumann", "perturb"])
    def test_divergent_without_warnings(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Divergent, match="nan"):
                call(coeff(self.MATRIX))


class TestAmplificationCurve:
    def test_closed_form_values(self):
        curve = dict(amplification_curve([0.5, 0.9], 0.005))
        assert curve[0.5] == pytest.approx(4.040404040404041, abs=1e-12)
        assert curve[0.9] == pytest.approx(105.2631578947369, abs=1e-10)

    def test_small_coefficient_limit(self):
        ((_, amp),) = amplification_curve([0.0], 1e-9)
        assert amp == pytest.approx(1.0, abs=1e-8)

    def test_monotone_in_coefficient(self):
        grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
        values = [amp for _, amp in amplification_curve(grid, 0.005)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            amplification_curve([0.999], 0.005)
        with pytest.raises(DomainError):
            amplification_curve([0.5], 0.0)
        with pytest.raises(DomainError):
            amplification_curve([-0.1], 0.005)
