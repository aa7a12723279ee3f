"""Desk-scale laboratory for Frobenius-power colengths on graded
hypersurfaces, syzygy-bundle cohomology on plane curves, slope-profile
estimation, and exact limit-multiplicity formulas."""

import os as _os
import sys as _sys

# hk-lab parallelizes with --jobs, and its BLAS products are small, so
# OpenBLAS runs single-threaded unless the user chose a thread count.
# OpenBLAS reads the variable once, when numpy first loads it.
if "numpy" not in _sys.modules and not any(
    var in _os.environ
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
    hk_from_profile,
    syzygy_euler_char,
    vanishing_report,
)
from hklab.limits import (
    convergence_fit,
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
    "hk_from_profile",
    "syzygy_euler_char",
    "vanishing_report",
    "convergence_fit",
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
