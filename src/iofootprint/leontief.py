"""Coefficient, intensity, and attribution mathematics.

The chain implemented here: normalize the transaction table into
coefficient matrices, turn a sectoral emission account into a direct
intensity (emissions per unit of money), propagate it through all
inter-sector exchange chains, and attribute the propagated total back to
final demand or to value added. The central identity is conservation:
applying the total intensity to demand recovers exactly the measured
emission total, so nothing is lost or double counted.

Two normalizations of the same table appear throughout:

* technical coefficients ``A`` with ``a[i, j] = c[i, j] / t[j]`` (column
  normalized; what sector j buys per unit of its own output), and
* allocation coefficients ``B`` with ``b[i, j] = c[i, j] / t[i]`` (row
  normalized; where sector i's output goes per unit of it).

The consumer-side total intensity is ``X = F (I - A)^-1``; the dual that
distributes emissions over value added is ``Y = F (I - B^T)^-1``. The
allocation matrix, not the transposed technical matrix, is what makes the
dual conserve: ``V = (I - B^T) T`` holds by the column balance, mirroring
``D = (I - A) T`` on the row side. The transposed-technical variant is
kept only as a comparison (it overcounts on economies with unequal
totals; see :func:`systemic_intensity_from_technical`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .economy import (
    Economy,
    EmissionAccount,
    _as_readonly,
    _check_entries,
    _check_shape,
)
from .errors import (
    DimensionMismatch,
    Divergent,
    KindMismatch,
    Truncated,
    ZeroTotal,
)
from .numerics import Factorization, perron_bound, spectral_radius_estimate

NEUMANN_TOL = 1e-10
NEUMANN_MAX_TERMS = 100_000
# A spectral radius estimate at or beyond 1 - RHO_MARGIN means the series
# cannot converge and the requirements inverse is treated as nonexistent.
RHO_MARGIN = 1e-12


class CoefficientKind(enum.Enum):
    TECHNICAL = "technical"
    ALLOCATION = "allocation"


class IntensityKind(enum.Enum):
    DIRECT = "direct"
    TOTAL_CONSUMER = "total_consumer"
    TOTAL_SYSTEMIC = "total_systemic"


@dataclass(frozen=True)
class CoefficientMatrix:
    """A dimensionless normalized transaction matrix, tagged by kind."""

    kind: CoefficientKind
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly(self.values))
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise DimensionMismatch(
                f"coefficient matrix must be square, got shape {self.values.shape}"
            )
        _check_entries(self.values, "coefficient")

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class IntensityVector:
    """A row functional on sector space, in emission-per-money units."""

    kind: IntensityKind
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly(self.values))
        if self.values.ndim != 1:
            raise DimensionMismatch(
                f"intensity must be a vector, got shape {self.values.shape}"
            )
        _check_entries(self.values, "intensity", nonnegative=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class AttributionReport:
    """Per-sector attributed emissions plus the conservation check.

    ``total_attributed`` is the compensated sum of ``per_sector`` taken in
    a fixed left-to-right order, so reports are bit-reproducible.
    ``conservation_residual`` compares it against the measured emission
    total, relatively when that total is nonzero and absolutely otherwise.
    """

    per_sector: np.ndarray
    total_attributed: float
    total_emissions: float
    conservation_residual: float

    def __post_init__(self):
        object.__setattr__(self, "per_sector", _as_readonly(self.per_sector))


def _divergent_radius(values: np.ndarray) -> float | None:
    """The spectral radius estimate of ``values`` if it is not below one, else None.

    "Below one" means below ``1 - RHO_MARGIN``. When the Perron-Frobenius
    bound is already below that, power iteration is skipped: the estimate
    is capped at the bound, so it could not reach the margin. A NaN
    estimate (overflowing iterates) counts as divergent.
    """
    if perron_bound(values) < 1.0 - RHO_MARGIN:
        return None
    rho, _, _ = spectral_radius_estimate(values)
    return None if rho < 1.0 - RHO_MARGIN else rho


def _require_kind(obj, kind, what: str):
    if obj.kind is not kind:
        raise KindMismatch(
            f"{what} requires kind {kind.value!r}, got {obj.kind.value!r}"
        )


def _require_operands(direct: IntensityVector, matrix: CoefficientMatrix,
                      kind: CoefficientKind, what: str) -> None:
    _require_kind(direct, IntensityKind.DIRECT, what)
    _require_kind(matrix, kind, what)
    _check_shape(matrix.values, (direct.n, direct.n), "coefficient matrix")


def _require_weights(intensity: IntensityVector, kind: IntensityKind,
                     weights, name: str, what: str) -> np.ndarray:
    _require_kind(intensity, kind, what)
    weights = np.asarray(weights, dtype=float)
    _check_shape(weights, intensity.values.shape, name)
    return weights


def _require_positive_totals(econ: Economy):
    if (econ.totals <= 0).any():
        i = int(np.argmax(econ.totals <= 0))
        raise ZeroTotal(
            f"sector {econ.sectors[i]!r} has zero total output; "
            "cannot normalize by it",
            sector=econ.sectors[i],
        )


def technical_coefficients(econ: Economy) -> CoefficientMatrix:
    """Column-normalized coefficients ``a[i, j] = c[i, j] / t[j]``.

    Column j sums to ``(t_j - v_j) / t_j``, the intermediate share of
    sector j's costs, which is strictly below one whenever its value added
    is positive.
    """
    _require_positive_totals(econ)
    values = econ.transactions / econ.totals[np.newaxis, :]
    return CoefficientMatrix(CoefficientKind.TECHNICAL, values)


def allocation_coefficients(econ: Economy) -> CoefficientMatrix:
    """Row-normalized coefficients ``b[i, j] = c[i, j] / t[i]``.

    Row i sums to ``(t_i - d_i) / t_i``, the intermediate share of sector
    i's sales. This is the normalization for which value added satisfies
    ``V = (I - B^T) T``, the input-side mirror of ``D = (I - A) T``.
    """
    _require_positive_totals(econ)
    values = econ.transactions / econ.totals[:, np.newaxis]
    return CoefficientMatrix(CoefficientKind.ALLOCATION, values)


def direct_intensity(econ: Economy, account: EmissionAccount) -> IntensityVector:
    """Emissions per unit of money of each sector's own operations, ``e_i / t_i``."""
    _require_positive_totals(econ)
    _check_shape(account.emissions, (econ.n,), "emission account")
    return IntensityVector(IntensityKind.DIRECT, account.emissions / econ.totals)


def _factor_requirements(coefficients: CoefficientMatrix) -> Factorization:
    n = coefficients.n
    return Factorization(np.eye(n) - coefficients.values)


def leontief_inverse(coefficients: CoefficientMatrix) -> np.ndarray:
    """The requirements inverse ``(I - A)^-1``, formed explicitly.

    Computed as n linear solves against the identity on a single
    row-pivoted factorization. :func:`~iofootprint.sensitivity.perturb_inverse`
    forms it for the baseline and for every non-divergent sample to measure
    how far the inverse moves; the intensity operations below solve against
    the factorization directly instead of multiplying by this inverse.

    Raises :class:`SingularSystem` (with the estimated reciprocal condition
    number) when ``I - A`` is singular to working precision.
    """
    factored = _factor_requirements(coefficients)
    return factored.solve(np.eye(coefficients.n))


def total_intensity(direct: IntensityVector,
                    technical: CoefficientMatrix) -> IntensityVector:
    """Total (direct plus all upstream) intensity ``X = F (I - A)^-1``.

    ``X`` is obtained from one transposed solve of ``X (I - A) = F``; the
    inverse is never formed.
    """
    _require_operands(direct, technical, CoefficientKind.TECHNICAL, "total intensity")
    factored = _factor_requirements(technical)
    values = factored.solve(direct.values, transposed=True)
    return IntensityVector(IntensityKind.TOTAL_CONSUMER, values)


def total_intensity_neumann(direct: IntensityVector,
                            technical: CoefficientMatrix,
                            tol: float = NEUMANN_TOL,
                            max_terms: int = NEUMANN_MAX_TERMS,
                            ) -> tuple[IntensityVector, int]:
    """Total intensity by accumulating the series ``F + FA + FA^2 + ...``.

    Terms are added until the next one is at most ``tol`` times the sup
    norm of the partial sum. Returns the partial sum and the number of
    terms it contains. Serves as the executable series form of the
    requirements inverse and as an independent cross-check of the solve
    path.

    Raises
    ------
    Divergent
        when the spectral radius estimate of the matrix reaches one, or is
        NaN because power iteration overflowed.
    Truncated
        when ``max_terms`` is hit first; the exception carries the partial
        sum, its term count, and the relative size of the next term.
    """
    _require_operands(direct, technical, CoefficientKind.TECHNICAL,
                      "series total intensity")
    rho = _divergent_radius(technical.values)
    if rho is not None:
        raise Divergent(
            f"series diverges: spectral radius estimate {rho:.12g} is not below 1"
        )
    A = technical.values
    partial = direct.values.copy()
    term = direct.values
    terms = 1
    while True:
        term = term @ A
        term_norm = float(np.abs(term).max())
        partial_norm = float(np.abs(partial).max())
        if term_norm <= tol * partial_norm:
            break
        if terms >= max_terms:
            raise Truncated(
                f"series not converged after {terms} terms "
                f"(next term relative size {term_norm / partial_norm:.3e})",
                residual=term_norm / partial_norm,
                partial=IntensityVector(IntensityKind.TOTAL_CONSUMER, partial),
                terms=terms,
            )
        partial = partial + term
        terms += 1
    return IntensityVector(IntensityKind.TOTAL_CONSUMER, partial), terms


def consumer_direct_footprint(direct: IntensityVector, demand: np.ndarray) -> float:
    """Footprint attributed to consumers by direct intensity alone, ``<D, F>``.

    Deliberately not conserved: it misses every intermediate exchange, so
    it undercounts the measured emission total whenever sectors trade.
    """
    demand = _require_weights(direct, IntensityKind.DIRECT, demand, "demand",
                              "direct consumer footprint")
    return float(direct.values @ demand)


def _attribution(weights: np.ndarray, intensity: np.ndarray,
                 account: EmissionAccount) -> AttributionReport:
    per_sector = intensity * weights
    # math.fsum: compensated, order-independent, bit-reproducible totals.
    total_attributed = math.fsum(per_sector)
    total_emissions = account.total
    diff = abs(total_attributed - total_emissions)
    residual = diff / total_emissions if total_emissions > 0 else diff
    return AttributionReport(per_sector, total_attributed, total_emissions, residual)


def attribute_to_demand(total: IntensityVector, demand: np.ndarray,
                        account: EmissionAccount) -> AttributionReport:
    """Attribute the emission total over final demand, ``x_i * d_i`` per sector.

    For a balanced economy this attribution conserves: the attributed total
    equals the measured emission total up to roundoff, because
    ``<X, D> = <F (I-A)^-1, (I-A) T> = F T = |E|``.
    """
    demand = _require_weights(total, IntensityKind.TOTAL_CONSUMER, demand, "demand",
                              "demand attribution")
    return _attribution(demand, total.values, account)


def systemic_intensity(direct: IntensityVector,
                       allocation: CoefficientMatrix) -> IntensityVector:
    """Value-added-side total intensity ``Y = F (I - B^T)^-1``.

    ``Y`` distributes the emission total over where margins are made rather
    than where demand is spent. Computed from one solve of
    ``(I - B) Y^T = F^T`` (transposing the defining equation), so the
    inverse is never formed.
    """
    _require_operands(direct, allocation, CoefficientKind.ALLOCATION,
                      "systemic intensity")
    factored = _factor_requirements(allocation)
    values = factored.solve(direct.values)
    return IntensityVector(IntensityKind.TOTAL_SYSTEMIC, values)


def systemic_intensity_from_technical(direct: IntensityVector,
                                      technical: CoefficientMatrix) -> IntensityVector:
    """The transposed-technical variant ``Y = F (I - A^T)^-1``, for comparison.

    This variant fails the conservation check ``<Y, V> = |E|`` on generic
    economies; it coincides with :func:`systemic_intensity` exactly when
    all sector totals are equal (then ``B = A``). It exists so tests and
    reports can demonstrate the discrepancy, not for production use.
    """
    _require_operands(direct, technical, CoefficientKind.TECHNICAL,
                      "systemic intensity comparison")
    factored = _factor_requirements(technical)
    values = factored.solve(direct.values)
    return IntensityVector(IntensityKind.TOTAL_SYSTEMIC, values)


def attribute_to_value_added(systemic: IntensityVector, value_added: np.ndarray,
                             account: EmissionAccount) -> AttributionReport:
    """Attribute the emission total over value added, ``y_i * v_i`` per sector.

    Conserves for the allocation-based systemic intensity on balanced
    economies, by the same argument as the demand-side attribution with
    ``V = (I - B^T) T`` in place of ``D = (I - A) T``.
    """
    value_added = _require_weights(systemic, IntensityKind.TOTAL_SYSTEMIC, value_added,
                                   "value added", "value-added attribution")
    return _attribution(value_added, systemic.values, account)


def demand_identity_residual(econ: Economy, coefficients: CoefficientMatrix) -> float:
    """Residual of the rewritten output balance ``D = (I - A) T``.

    For a balanced economy and its technical coefficient matrix the row
    balance identity rearranges exactly into ``D = (I - A) T``; this is the
    pivot of the conservation argument, so its numerical residual is worth
    monitoring on real data. Returns the sup-norm residual relative to
    ``max|D|`` (absolute when demand is identically zero).
    """
    _require_kind(coefficients, CoefficientKind.TECHNICAL, "demand identity")
    _check_shape(coefficients.values, (econ.n, econ.n), "coefficient matrix")
    lhs = econ.demand
    rhs = econ.totals - coefficients.values @ econ.totals
    residual = float(np.abs(lhs - rhs).max())
    scale = float(np.abs(lhs).max())
    return residual / scale if scale > 0 else residual
