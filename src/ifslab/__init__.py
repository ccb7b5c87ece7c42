"""Attractors, parameter loci, and boundary-accessibility certificates for
the planar IFS families {-1 + lz, lz, 1 + lz}."""

__version__ = "0.1.0"

from .errors import (
    BadIndices,
    DerivativeVanished,
    EnumerationTooLarge,
    HypothesisViolated,
    IfsLabError,
    InvalidLambda,
    LevelTooDeep,
    NoConvergence,
    NotARoot,
    ParseError,
    PoleAtUnity,
    ScaleUnderflow,
    UnknownLandmark,
    ZerosInPeriod,
)
from .numerics import newton_root, poly_eval
from .series import (
    RationalTypeSeries,
    coeff_at,
    derivative_eval,
    numerator_polynomial,
    overlap_set,
    rational_eval,
)
from .paramspace import (
    escape_grid,
    membership,
    survivors,
)
from .certificate import (
    certify,
    parameter_probe,
    report_from_dict,
    report_to_dict,
    selfsim_center,
    verify_chain,
    weakened_conditions,
)
from .landmarks import (
    landmark,
    landmark_root,
    run_suite,
    sector_contains,
    sector_inequalities,
)

__all__ = [
    "BadIndices",
    "DerivativeVanished",
    "EnumerationTooLarge",
    "HypothesisViolated",
    "IfsLabError",
    "InvalidLambda",
    "LevelTooDeep",
    "NoConvergence",
    "NotARoot",
    "ParseError",
    "PoleAtUnity",
    "ScaleUnderflow",
    "UnknownLandmark",
    "ZerosInPeriod",
    "newton_root",
    "poly_eval",
    "RationalTypeSeries",
    "coeff_at",
    "derivative_eval",
    "numerator_polynomial",
    "overlap_set",
    "rational_eval",
    "escape_grid",
    "membership",
    "survivors",
    "certify",
    "parameter_probe",
    "report_from_dict",
    "report_to_dict",
    "selfsim_center",
    "verify_chain",
    "weakened_conditions",
    "landmark",
    "landmark_root",
    "run_suite",
    "sector_contains",
    "sector_inequalities",
]
