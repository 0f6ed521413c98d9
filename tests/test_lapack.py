"""Differential tests of the direct LAPACK path against ``scipy.linalg``.

:class:`~iofootprint.leontief.Factorization` calls ``dgetrf``, ``dgecon``
and ``dgetrs`` itself, and ``perturb_inverse`` reuses its buffers across
draws. Both must reproduce, bit for bit, what the ``scipy.linalg`` route
they replace computes; that route is kept here as the reference.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve

from iofootprint import (
    CoefficientKind,
    CoefficientMatrix,
    ConditioningWarning,
    Divergent,
    GeneratorConfig,
    SingularSystem,
    generate_economy,
    leontief_inverse,
    perturb_inverse,
    technical_coefficients,
)
from iofootprint.leontief import (
    RCOND_FAIL,
    RCOND_WARN,
    Factorization,
    _divergent_radius,
)
from iofootprint.sensitivity import PerturbationReport


class ReferenceFactorization:
    """``I - A`` factored through ``scipy.linalg``, with the same gates."""

    def __init__(self, values):
        matrix = np.eye(len(values)) - values
        with np.errstate(over="ignore"):
            anorm = float(np.abs(matrix).sum(axis=0).max()) if matrix.size else 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(matrix)
        gecon = get_lapack_funcs(("gecon",), (lu,))[0]
        rcond, info = gecon(lu, anorm, norm="1")
        if info != 0:
            raise SingularSystem(
                f"condition estimation failed (LAPACK info={info})", rcond=None
            )
        rcond = float(rcond)
        if not np.isfinite(rcond) or rcond < RCOND_FAIL:
            raise SingularSystem(
                "matrix is singular to working precision "
                f"(estimated reciprocal condition number {rcond:.3e})",
                rcond=rcond,
            )
        if rcond < RCOND_WARN:
            warnings.warn(f"matrix is poorly conditioned (rcond {rcond:.3e}); "
                          "results may lose accuracy", ConditioningWarning)
        self.lu_piv = (lu, piv)
        self.rcond = rcond

    def solve(self, rhs, transposed=False):
        return lu_solve(self.lu_piv, rhs, trans=1 if transposed else 0)


def reference_perturb_inverse(coefficients, epsilon, samples, seed):
    """The per-draw loop that allocates fresh arrays, on the reference factorization."""
    base = coefficients.values
    rho = _divergent_radius(base)
    if rho is not None:
        raise Divergent(f"baseline spectral radius estimate {rho:.12g} is not below 1; "
                        "the requirements inverse does not exist")
    identity = np.eye(coefficients.n)
    base_inverse = ReferenceFactorization(base).solve(identity)

    def deviation(perturbed):
        if _divergent_radius(perturbed) is not None:
            return None
        try:
            inv = ReferenceFactorization(perturbed).solve(identity)
        except SingularSystem:
            return None
        return float(np.abs(inv - base_inverse).sum(axis=1).max())

    deviations = [0.0]
    if coefficients.n == 1:
        for endpoint in (-epsilon, epsilon):
            dev = deviation(np.maximum(base + endpoint, 0.0))
            if dev is not None:
                deviations.append(dev)
    diverged = 0
    for stream in np.random.SeedSequence(seed).spawn(samples):
        rng = np.random.default_rng(stream)
        noise = rng.uniform(-epsilon, epsilon, size=base.shape)
        dev = deviation(np.maximum(base + noise, 0.0))
        if dev is None:
            diverged += 1
        else:
            deviations.append(dev)
    max_deviation = max(deviations)
    return PerturbationReport(
        epsilon=float(epsilon), samples=int(samples),
        baseline_norm=float(np.abs(base_inverse).sum(axis=1).max()),
        max_deviation=max_deviation, amplification=max_deviation / epsilon,
        diverged_count=diverged, seed=int(seed),
    )


def outcome(make):
    """``("ok", result, warnings)`` or ``("singular", message, rcond)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = make()
        except SingularSystem as err:
            return "singular", str(err), err.rcond
    return "ok", result, [(w.category, str(w.message)) for w in caught]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def coefficient_values(draw):
    """Nonnegative n-by-n values, n in 1..60, each column sum at most 0.99."""
    n = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.sampled_from([1.0, 0.3, 0.05]))
    cap = draw(st.floats(min_value=1e-6, max_value=0.99))
    rng = np.random.default_rng(seed)
    values = rng.random((n, n)) * (rng.random((n, n)) < density)
    sums = values.sum(axis=0)
    scale = np.divide(cap * rng.random(n), sums, out=np.zeros(n), where=sums > 0)
    return np.minimum(values * scale, 0.99), seed


# Exactly singular (I - A has a zero column or is rank one) and near-singular
# (rcond between RCOND_FAIL and RCOND_WARN) matrices.
EDGE_VALUES = {
    "one": [[1.0]],
    "rank_one": [[0.5, 0.5], [0.5, 0.5]],
    "zero_column": [[0.0, 0.3, 0.0], [0.1, 0.5, 0.0], [0.4, 0.0, 1.0]],
    "ill_conditioned": [[0.5, 0.4999999999], [0.4999999999, 0.5]],
    "overflowing_norm": [[1e308, 1e308], [1e308, 1e308]],
    "zero": [[0.0, 0.0], [0.0, 0.0]],
}


def assert_factorizations_agree(values, seed=0):
    got = outcome(lambda: Factorization(values))
    want = outcome(lambda: ReferenceFactorization(values))
    assert got[0] == want[0]
    if got[0] == "singular":
        assert got[1:] == want[1:]
        return
    factored, reference = got[1], want[1]
    assert got[2] == want[2]  # the same ConditioningWarning, or none
    assert factored.rcond == reference.rcond
    n = len(values)
    rng = np.random.default_rng(seed)
    vector = rng.standard_normal(n)
    block = rng.standard_normal((n, 3))
    for transposed in (False, True):
        for rhs in (vector, block, np.eye(n)):
            assert same_bits(factored.solve(rhs, transposed),
                             reference.solve(rhs, transposed))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        inverse = leontief_inverse(CoefficientMatrix(CoefficientKind.TECHNICAL, values))
    assert same_bits(inverse, reference.solve(np.eye(n)))


class TestFactorizationAgainstScipyLinalg:
    @settings(max_examples=150, deadline=None)
    @given(coefficient_values())
    def test_random_matrices(self, drawn):
        values, seed = drawn
        assert_factorizations_agree(values, seed)

    @pytest.mark.parametrize("name", sorted(EDGE_VALUES))
    def test_edge_matrices(self, name):
        assert_factorizations_agree(np.array(EDGE_VALUES[name]))

    def test_singular_outcomes_are_exercised(self):
        kinds = {name: outcome(lambda: Factorization(np.array(v)))[0]
                 for name, v in EDGE_VALUES.items()}
        assert kinds["one"] == kinds["rank_one"] == kinds["zero_column"] == "singular"
        assert kinds["overflowing_norm"] == "singular"
        assert kinds["ill_conditioned"] == kinds["zero"] == "ok"

    def test_work_buffer_holds_the_factors(self):
        values = np.array([[0.2, 0.1], [0.3, 0.4]])
        work = np.empty((2, 2), order="F")
        factored = Factorization(values, work=work)
        assert same_bits(factored.solve(np.ones(2)),
                         ReferenceFactorization(values).solve(np.ones(2)))
        assert same_bits(work, ReferenceFactorization(values).lu_piv[0])

    def test_overwrite_solves_in_place(self):
        values = np.array([[0.2, 0.1], [0.3, 0.4]])
        rhs = np.asfortranarray(np.eye(2))
        solution = Factorization(values).solve(rhs, overwrite=True)
        assert solution is rhs or np.shares_memory(solution, rhs)
        assert same_bits(solution, ReferenceFactorization(values).solve(np.eye(2)))

    def test_inverse_into_buffers(self):
        values = np.array([[0.2, 0.1], [0.3, 0.4]])
        out = np.full((2, 2), np.nan, order="F")
        work = np.empty((2, 2), order="F")
        inverse = leontief_inverse(CoefficientMatrix(CoefficientKind.TECHNICAL, values),
                                   out=out, work=work)
        assert np.shares_memory(inverse, out)
        assert same_bits(inverse, ReferenceFactorization(values).solve(np.eye(2)))


def coeff(values):
    return CoefficientMatrix(CoefficientKind.TECHNICAL, values)


class TestPerturbationAgainstFreshArrays:
    @pytest.mark.parametrize("n, seed, epsilon, samples", [
        (2, 1, 1e-3, 40), (5, 2, 0.05, 30), (17, 3, 1e-2, 20), (40, 4, 1e-4, 10),
        (1, 5, 0.1, 25),
    ])
    def test_generated_economies(self, n, seed, epsilon, samples):
        A = technical_coefficients(generate_economy(GeneratorConfig(n=n, seed=seed))[0])
        for draw_seed in (0, 1, 12345):
            assert perturb_inverse(A, epsilon, samples, draw_seed) == \
                reference_perturb_inverse(A, epsilon, samples, draw_seed)

    @pytest.mark.parametrize("values, epsilon", [
        ([[0.5]], 0.1),      # both one-sector endpoints converge
        ([[0.0]], 0.3),      # the lower endpoint clamps to zero
        ([[0.95]], 0.1),     # the upper endpoint diverges
        ([[0.995]], 0.01),   # about half of the draws diverge
    ])
    def test_one_sector(self, values, epsilon):
        for seed in (0, 3, 99):
            got = perturb_inverse(coeff(values), epsilon, 30, seed)
            assert got == reference_perturb_inverse(coeff(values), epsilon, 30, seed)

    def test_diverging_draws_are_counted_alike(self):
        got = perturb_inverse(coeff([[0.995]]), 0.01, 200, 7)
        assert 0 < got.diverged_count < 200
        assert got == reference_perturb_inverse(coeff([[0.995]]), 0.01, 200, 7)

    def test_singular_draws(self):
        # Draws near the rank-one singular matrix are refused, not crashed on.
        values = [[0.49, 0.49], [0.49, 0.49]]
        for seed in (0, 1):
            assert perturb_inverse(coeff(values), 0.02, 50, seed) == \
                reference_perturb_inverse(coeff(values), 0.02, 50, seed)

    @pytest.mark.parametrize("epsilon", [1e-300, 1e-3, 0.5, 1e100, 8e307])
    def test_scaled_random_equals_uniform(self, epsilon):
        for seed in (0, 1, 2**40 + 3):
            want = np.random.default_rng(seed).uniform(-epsilon, epsilon, size=(7, 9))
            got = np.random.default_rng(seed).random((7, 9))
            got *= 2.0 * epsilon
            got -= epsilon
            assert same_bits(got, want)

    def test_draws_allocate_no_matrix(self):
        # Draws may allocate vectors and numpy's fixed-size ufunc buffer
        # (8192 elements), never a fresh n-by-n array.
        n = 200
        A = technical_coefficients(generate_economy(GeneratorConfig(n=n, seed=8))[0])
        perturb_inverse(A, 1e-3, 2, 0)  # load LAPACK outside the measurement

        def peak(samples):
            tracemalloc.start()
            try:
                perturb_inverse(A, 1e-3, samples, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        matrix_bytes = 8 * n * n
        assert peak(8) - peak(0) < matrix_bytes / 2
