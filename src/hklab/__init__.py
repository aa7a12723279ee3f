"""Desk-scale laboratory for Frobenius-power colengths on graded
hypersurfaces, syzygy-bundle cohomology on plane curves, slope-profile
estimation, and exact limit-multiplicity formulas."""

from hklab.fp_linalg import PrimeField, PrimeFieldMatrix, is_prime, rank_mod_p
from hklab.graded import (
    HypersurfaceRing,
    Polynomial,
    SpecParseError,
    graded_map_matrix,
    parse_polynomial,
    parse_ring_spec,
)
from hklab.colength import (
    ColengthRecord,
    IdealSpec,
    NotPrimaryError,
    SizeGuardError,
    colength,
    frobenius_power,
    graded_rank,
    parse_ideal_spec,
)
from hklab.curves import (
    AmbiguousPlateauError,
    CohomologyProfile,
    CurveGeometry,
    HNProfile,
    ProfileTooShortError,
    SingularCurveError,
    cohomology_profile,
    curve_geometry,
    estimate_hn_profile,
    syzygy_data,
    syzygy_euler_char,
    vanishing_report,
)
from hklab.limits import (
    ConvergenceRow,
    convergence_fit,
    hk_from_profile,
    normalized_colength,
    reference_value,
)
from hklab.diagonal import (
    DiagonalSpec,
    GValue,
    d_char0,
    d_f,
    diagonal_limits,
    g_lambda,
    g_value,
    sandwich_check,
)
from hklab.store import ResultStore, cached_colength

__version__ = "0.1.0"

__all__ = [
    "PrimeField",
    "PrimeFieldMatrix",
    "is_prime",
    "rank_mod_p",
    "HypersurfaceRing",
    "Polynomial",
    "SpecParseError",
    "graded_map_matrix",
    "parse_polynomial",
    "parse_ring_spec",
    "ColengthRecord",
    "IdealSpec",
    "NotPrimaryError",
    "SizeGuardError",
    "colength",
    "frobenius_power",
    "graded_rank",
    "parse_ideal_spec",
    "AmbiguousPlateauError",
    "CohomologyProfile",
    "CurveGeometry",
    "HNProfile",
    "ProfileTooShortError",
    "SingularCurveError",
    "cohomology_profile",
    "curve_geometry",
    "estimate_hn_profile",
    "syzygy_data",
    "syzygy_euler_char",
    "vanishing_report",
    "ConvergenceRow",
    "convergence_fit",
    "hk_from_profile",
    "normalized_colength",
    "reference_value",
    "DiagonalSpec",
    "GValue",
    "d_char0",
    "d_f",
    "diagonal_limits",
    "g_lambda",
    "g_value",
    "sandwich_check",
    "ResultStore",
    "cached_colength",
    "__version__",
]
