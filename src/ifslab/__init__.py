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
    taylor_eval,
)
from .ifs import (
    Word,
    attractor_sample,
    node,
    overlap_itinerary,
    selfsim_residuals,
)
from .paramspace import (
    escape_grid,
    membership,
    survivors,
)
from .certificate import (
    certify,
    chain_disk,
    condition_consecutive_overlap,
    condition_disk_exists,
    condition_instar_separation,
    parameter_probe,
    periodicity_residual,
    report_from_dict,
    report_to_dict,
    selfsim_center,
    verify_chain,
    weakened_conditions,
)
from .landmarks import (
    existence_margins,
    landmark,
    landmark_root,
    run_suite,
    sector_contains,
    sector_inequalities,
)

__all__ = [name for name in dir() if not name.startswith("_")]
