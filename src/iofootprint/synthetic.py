"""Seeded generation of balanced economies for testing.

Construction runs backwards from coefficients to flows: sample a
nonnegative coefficient matrix with capped column sums, sample positive
demand, solve for the totals that balance them, and scale the
coefficients back up into money flows. Going in this direction the
balance identities hold by construction and every derived quantity stays
positive, so generation never needs rejection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .economy import Economy, EmissionAccount, build_economy
from .errors import DomainError
from .leontief import _one_blas_thread


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of one deterministic draw.

    ``column_sum_cap`` bounds every column sum of the sampled coefficient
    matrix (strictly below one, so the economy is always convergent and
    every sector keeps a positive value-added margin). ``demand_scale``
    and ``emission_scale`` set the magnitudes of demand and emissions;
    an ``emission_scale`` of zero produces an economy with no emissions.
    """

    n: int
    seed: int
    column_sum_cap: float = 0.9
    demand_scale: float = 100.0
    emission_scale: float = 10.0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"sector count must be at least 1, got {self.n}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed!r}")
        if not 0.0 < self.column_sum_cap < 1.0:
            raise DomainError(
                f"column_sum_cap must lie strictly in (0, 1), "
                f"got {self.column_sum_cap!r}"
            )
        if not self.demand_scale > 0:
            raise DomainError(
                f"demand_scale must be positive, got {self.demand_scale!r}"
            )
        if self.emission_scale < 0:
            raise DomainError(
                f"emission_scale must be nonnegative, got {self.emission_scale!r}"
            )


def generate_economy(config: GeneratorConfig) -> tuple[Economy, EmissionAccount]:
    """Draw one balanced economy and its emission account.

    The same config always yields the bit-identical pair on one numpy
    build, at any BLAS thread count: the solve for totals runs at one
    thread, since a split of its sums by thread moves their last bits. The
    result satisfies both balance identities exactly (totals and value
    added are derived, not sampled), has all totals and value added
    strictly positive, and has coefficient column sums, hence spectral
    radius, at most ``column_sum_cap``.

    One n-by-n matrix is drawn and turned into coefficients, ``I - A`` and
    transactions in place, so at most two are live at once: it and the
    solve's or the economy's own copy.
    """
    n = config.n
    rng = np.random.default_rng(config.seed)

    # Bit for bit what rng.uniform(0.0, 1.0, size=(n, n)) draws.
    matrix = rng.random((n, n))
    col_sums = matrix.sum(axis=0)
    col_sums[col_sums == 0.0] = 1.0  # all-zero column: leave it zero
    targets = config.column_sum_cap * rng.uniform(0.5, 1.0, size=n)
    matrix *= (targets / col_sums)[np.newaxis, :]

    demand = config.demand_scale * rng.uniform(0.1, 1.0, size=n)
    # I - A in place, entry for entry as np.eye(n) - A computes it (off
    # the diagonal 0.0 - a). 0.0 - (0.0 - a) is a again for finite a >= 0,
    # and the diagonal is restored from its copy.
    diagonal = np.diagonal(matrix).copy()
    np.subtract(0.0, matrix, out=matrix)
    np.fill_diagonal(matrix, 1.0 - diagonal)
    with _one_blas_thread(_umath_linalg):
        totals = np.linalg.solve(matrix, demand)
    np.subtract(0.0, matrix, out=matrix)
    np.fill_diagonal(matrix, diagonal)
    matrix *= totals[np.newaxis, :]
    emissions = config.emission_scale * rng.uniform(0.0, 1.0, size=n)

    sectors = [f"S{i + 1}" for i in range(n)]
    economy = build_economy(sectors, matrix, demand, money_unit="MU")
    account = EmissionAccount(emissions, emission_unit="kt CO2")
    return economy, account
