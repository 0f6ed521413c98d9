import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iofootprint import (
    ConditioningWarning,
    Economy,
    EmissionAccount,
    FootprintError,
    GeneratorConfig,
    allocation_coefficients,
    attribute_to_demand,
    attribute_to_value_added,
    build_economy,
    demand_identity_residual,
    direct_intensity,
    generate_economy,
    leontief_inverse,
    parse_emissions,
    parse_table,
    serialize_emissions,
    serialize_table,
    systemic_intensity,
    technical_coefficients,
    total_intensity,
    total_intensity_neumann,
)
from iofootprint.cli import run_command

economies = st.builds(
    GeneratorConfig,
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    column_sum_cap=st.floats(min_value=0.05, max_value=0.95),
)


@settings(max_examples=60, deadline=None)
@given(economies)
def test_conservation_on_random_economies(config):
    econ, acct = generate_economy(config)
    F = direct_intensity(econ, acct)
    X = total_intensity(F, technical_coefficients(econ))
    report = attribute_to_demand(X, econ.demand, acct)
    assert report.conservation_residual <= 1e-10


@settings(max_examples=60, deadline=None)
@given(economies)
def test_dual_conservation_on_random_economies(config):
    econ, acct = generate_economy(config)
    F = direct_intensity(econ, acct)
    Y = systemic_intensity(F, allocation_coefficients(econ))
    report = attribute_to_value_added(Y, econ.value_added, acct)
    assert report.conservation_residual <= 1e-10


@settings(max_examples=60, deadline=None)
@given(economies)
def test_demand_identity_on_random_economies(config):
    econ, _ = generate_economy(config)
    assert demand_identity_residual(econ, technical_coefficients(econ)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(economies)
def test_series_matches_solve_on_random_economies(config):
    econ, acct = generate_economy(config)
    A = technical_coefficients(econ)
    F = direct_intensity(econ, acct)
    X = total_intensity(F, A)
    X_series, _ = total_intensity_neumann(F, A, tol=1e-10)
    assert float(np.abs(X_series.values - X.values).max()) <= 1e-9
    assert np.all(X_series.values >= F.values)


@settings(max_examples=40, deadline=None)
@given(st.builds(
    GeneratorConfig,
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    column_sum_cap=st.floats(min_value=0.05, max_value=0.99),
))
def test_solve_series_and_inverse_agree(config):
    econ, acct = generate_economy(config)
    A = technical_coefficients(econ)
    F = direct_intensity(econ, acct)
    X = total_intensity(F, A).values
    X_series, _ = total_intensity_neumann(F, A, tol=1e-12)
    X_inverse = F.values @ leontief_inverse(A)
    scale = float(np.abs(X).max())
    # the series stops at a term of 1e-12 relative size; its tail is at most
    # 1 / (1 - 0.99) = 100 such terms
    assert float(np.abs(X_series.values - X).max()) <= 1e-9 * scale
    assert float(np.abs(X_inverse - X).max()) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(economies, st.floats(min_value=1e-6, max_value=1e6))
def test_scale_invariance(config, scale):
    econ, acct = generate_economy(config)
    scaled = build_economy(
        econ.sectors,
        scale * econ.transactions,
        scale * econ.demand,
        scale * econ.value_added,
        scale * econ.totals,
    )
    A, A_scaled = technical_coefficients(econ), technical_coefficients(scaled)
    B, B_scaled = allocation_coefficients(econ), allocation_coefficients(scaled)
    np.testing.assert_allclose(A_scaled.values, A.values, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(B_scaled.values, B.values, rtol=1e-12, atol=1e-15)

    # with emissions fixed, intensities scale by 1/scale ...
    F, F_scaled = direct_intensity(econ, acct), direct_intensity(scaled, acct)
    X = total_intensity(F, A)
    X_scaled = total_intensity(F_scaled, A_scaled)
    np.testing.assert_allclose(X_scaled.values, X.values / scale,
                               rtol=1e-12, atol=1e-300)
    Y = systemic_intensity(F, B)
    Y_scaled = systemic_intensity(F_scaled, B_scaled)
    np.testing.assert_allclose(Y_scaled.values, Y.values / scale,
                               rtol=1e-12, atol=1e-300)

    # ... so attributed totals and their residuals are scale-free
    before = attribute_to_demand(X, econ.demand, acct)
    after = attribute_to_demand(X_scaled, scaled.demand, acct)
    assert after.total_attributed == pytest.approx(
        before.total_attributed, rel=1e-12
    )
    assert after.conservation_residual <= 1e-10
    dual_after = attribute_to_value_added(Y_scaled, scaled.value_added, acct)
    assert dual_after.conservation_residual <= 1e-10


@settings(max_examples=40, deadline=None)
@given(economies)
def test_coefficient_sum_identities(config):
    econ, _ = generate_economy(config)
    A = technical_coefficients(econ)
    B = allocation_coefficients(econ)
    T, V, D = econ.totals, econ.value_added, econ.demand
    np.testing.assert_allclose(A.values.sum(axis=0), (T - V) / T, atol=1e-12)
    np.testing.assert_allclose(B.values.sum(axis=1), (T - D) / T, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_emission_order_is_irrelevant(tmp_path, seed):
    econ, acct = generate_economy(GeneratorConfig(n=8, seed=seed))
    table = tmp_path / "table.csv"
    table.write_text(serialize_table(econ), encoding="utf-8")
    econ = parse_table(table)

    lines = serialize_emissions(acct, econ).splitlines()
    header, rows = lines[0], lines[1:]
    np.random.default_rng(seed).shuffle(rows)
    shuffled = tmp_path / "emissions.csv"
    shuffled.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")

    parsed = parse_emissions(shuffled, econ)
    assert np.array_equal(parsed.emissions, acct.emissions)


@st.composite
def adversarial_economies(draw):
    """Flows, demand and emissions from 1e-300 to 1e300, spectral radius near 1.

    Every column of the coefficient matrix sums to ``rho``, so ``rho`` is
    its Perron root. Returns the ``build_economy`` arguments and the
    emissions; overflowing or underflowing inputs are left for the
    package to reject.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rho = 1.0 - 10.0 ** -draw(st.integers(min_value=1, max_value=14))
    exponents = st.lists(st.integers(min_value=-300, max_value=300),
                         min_size=n, max_size=n)
    demand = rng.uniform(0.1, 1.0, n) * 10.0 ** np.array(draw(exponents), float)
    emissions = rng.uniform(0.0, 1.0, n) * 10.0 ** np.array(draw(exponents), float)
    raw = rng.uniform(0.0, 1.0, (n, n))
    with np.errstate(all="ignore"):
        coefficients = raw * (rho / raw.sum(axis=0))
        totals = np.linalg.solve(np.eye(n) - coefficients, demand)
        transactions = coefficients * totals
    sectors = [f"S{i + 1}" for i in range(n)]
    return (sectors, transactions, demand), emissions


def _typed(step):
    """``step()``, or None when it raises a FootprintError."""
    try:
        return step()
    except FootprintError:
        return None


@settings(max_examples=150, deadline=None)
@given(adversarial_economies())
def test_adversarial_magnitudes_end_in_a_result_or_a_typed_error(case):
    table, emissions = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a raw RuntimeWarning fails the test
        warnings.simplefilter("ignore", ConditioningWarning)  # the package's own
        econ = _typed(lambda: build_economy(*table))
        account = _typed(lambda: EmissionAccount(emissions))
        if econ is None or account is None:
            return
        direct = _typed(lambda: direct_intensity(econ, account))
        if direct is None:
            return
        total = _typed(lambda: total_intensity(direct, technical_coefficients(econ)))
        if total is not None:
            _typed(lambda: attribute_to_demand(total, econ.demand, account))
        _typed(lambda: total_intensity_neumann(direct, technical_coefficients(econ),
                                               max_terms=2000))
        systemic = _typed(
            lambda: systemic_intensity(direct, allocation_coefficients(econ)))
        if systemic is not None:
            _typed(lambda: attribute_to_value_added(systemic, econ.value_added,
                                                    account))


def _run(argv) -> tuple[int, str, str]:
    """``run_command(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(adversarial_economies(), st.integers(min_value=-12, max_value=-1))
def test_adversarial_table_files_end_in_a_report_or_a_typed_error(
        tmp_path_factory, case, epsilon_exponent):
    """``validate`` and ``perturb`` on a written table: exit 0, or exit 1 with ``error.*``."""
    (sectors, transactions, demand), _ = case
    with np.errstate(all="ignore"):
        totals = transactions.sum(axis=1) + demand
        value_added = totals - transactions.sum(axis=0)
    table = tmp_path_factory.mktemp("adversarial") / "table.csv"
    table.write_text(serialize_table(
        Economy(sectors, transactions, demand, value_added, totals, "MU")),
        encoding="utf-8")
    for argv in (["validate", str(table)],
                 ["perturb", str(table), "--epsilon", f"1e{epsilon_exponent}",
                  "--samples", "3"]):
        code, out, err = _run(argv)
        if code == 0:
            assert out and "error." not in err
        else:
            assert code == 1
            assert "error.type = " in err and not out
        assert "RuntimeWarning" not in err
