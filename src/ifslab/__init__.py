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
    UnknownLandmark,
    ZerosInPeriod,
)
from .numerics import newton_root, poly_eval
from .series import (
    OverlapDescription,
    RationalTypeSeries,
    coeff_at,
    derivative_eval,
    numerator_polynomial,
    overlap_set,
    rational_eval,
    taylor_eval,
)
from .ifs import (
    BINARY,
    TERNARY,
    Word,
    attractor_sample,
    node,
    overlap_itinerary,
    selfsim_residuals,
)
from .paramspace import (
    SET_M,
    SET_M0,
    EscapeGrid,
    MembershipResult,
    SurvivorList,
    escape_grid,
    membership,
    survivors,
)
from .certificate import (
    CertificateReport,
    ChainDisk,
    ChainGeometry,
    ConditionRecord,
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
    Landmark,
    existence_margins,
    landmark,
    landmark_root,
    run_suite,
    sector_contains,
    sector_inequalities,
)

__all__ = [name for name in dir() if not name.startswith("_")]
