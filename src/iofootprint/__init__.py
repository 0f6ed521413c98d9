"""Footprint attribution engine for closed-economy transaction tables.

Ingest a square inter-sector money-flow table plus a per-sector emission
account, normalize it into coefficient matrices, compute direct and total
footprint intensities, attribute every measured emission to final demand
or to value added with a verified conservation residual, and quantify how
unstable the underlying matrix inverse is near singularity.
"""

__version__ = "0.1.0"

from .economy import (
    BalanceReport,
    Economy,
    EmissionAccount,
    build_economy,
    validate_balance,
)
from .errors import (
    ConditioningWarning,
    DimensionMismatch,
    Divergent,
    DomainError,
    DuplicateSector,
    FootprintError,
    ImbalancedTable,
    KindMismatch,
    MissingSector,
    NegativeEntry,
    ParseError,
    SingularSystem,
    Truncated,
    UnknownSector,
    ZeroTotal,
)
from .leontief import (
    AttributionReport,
    CoefficientKind,
    CoefficientMatrix,
    IntensityKind,
    IntensityVector,
    allocation_coefficients,
    attribute_to_demand,
    attribute_to_value_added,
    consumer_direct_footprint,
    demand_identity_residual,
    direct_intensity,
    leontief_inverse,
    systemic_intensity,
    systemic_intensity_from_technical,
    technical_coefficients,
    total_intensity,
    total_intensity_neumann,
)
from .sensitivity import (
    PerturbationReport,
    SpectralEstimate,
    amplification_curve,
    perturb_inverse,
    spectral_radius,
)
from .synthetic import GeneratorConfig, generate_economy
from .tableio import (
    parse_emissions,
    parse_table,
    serialize_emissions,
    serialize_table,
    write_emissions,
    write_table,
)

__all__ = [
    "__version__",
    "AttributionReport",
    "BalanceReport",
    "CoefficientKind",
    "CoefficientMatrix",
    "ConditioningWarning",
    "DimensionMismatch",
    "Divergent",
    "DomainError",
    "DuplicateSector",
    "Economy",
    "EmissionAccount",
    "FootprintError",
    "GeneratorConfig",
    "ImbalancedTable",
    "IntensityKind",
    "IntensityVector",
    "KindMismatch",
    "MissingSector",
    "NegativeEntry",
    "ParseError",
    "PerturbationReport",
    "SingularSystem",
    "SpectralEstimate",
    "Truncated",
    "UnknownSector",
    "ZeroTotal",
    "allocation_coefficients",
    "amplification_curve",
    "attribute_to_demand",
    "attribute_to_value_added",
    "build_economy",
    "consumer_direct_footprint",
    "demand_identity_residual",
    "direct_intensity",
    "generate_economy",
    "leontief_inverse",
    "parse_emissions",
    "parse_table",
    "perturb_inverse",
    "serialize_emissions",
    "serialize_table",
    "spectral_radius",
    "systemic_intensity",
    "systemic_intensity_from_technical",
    "technical_coefficients",
    "total_intensity",
    "total_intensity_neumann",
    "validate_balance",
    "write_emissions",
    "write_table",
]
