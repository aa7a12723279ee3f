"""Closed-form limit values, normalized colengths, and convergence fits.

Exact rationals (`fractions.Fraction`) everywhere until the final
least-squares step, which is double precision by design.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from hklab.colength import IdealSpec, colength
from hklab.graded import HypersurfaceRing

if TYPE_CHECKING:  # curves imports store, which imports diagonal and so limits
    from hklab.curves import CurveGeometry, HNProfile

__all__ = [
    "hk_from_profile",
    "normalized_colength",
    "reference_value",
    "convergence_fit",
]


def hk_from_profile(
    geom: CurveGeometry, hn: HNProfile, degrees: Sequence
) -> Fraction:
    """(degY/2)·(Σ r̂_k ν̂_k² − Σ d_i²) from an estimated slope profile."""
    rank_total = sum(r for _, r in hn.pairs)
    if rank_total != len(degrees) - 1:
        raise ValueError(
            f"profile ranks sum to {rank_total}, expected {len(degrees) - 1}"
        )
    quad = sum(Fraction(r) * nu * nu for nu, r in hn.pairs)
    return Fraction(geom.deg_y, 2) * (quad - sum(d * d for d in degrees))


def normalized_colength(ring: HypersurfaceRing, ideal: IdealSpec, n: int) -> Fraction:
    """ℓ(R/I^[pⁿ]) / pⁿ·ᵈⁱᵐ as an exact rational, p the ring's characteristic.

    Always the generic engine, never the diagonal block decomposition, so
    ``diagonal.sandwich_check`` compares its d_f bounds with an independent
    value.
    """
    return colength(ring, ideal, n).normalized


def reference_value(family: str, p: int) -> Fraction:
    """Known exact multiplicity of the CLI family at the prime p.

    fermat-quartic: 3 + 1/p² when p ≡ 3,5 (mod 8), else 3 (p odd).
    chang-quartic: (8/3)(2p² ± 2p + 3)/(2p² ± 2p + 1), sign +
    for p ≡ 1 (mod 4), − for p ≡ 3 (mod 4).
    """
    if family not in ("fermat-quartic", "chang-quartic"):
        raise ValueError(f"unknown family: {family!r}")
    if p == 2:
        raise ValueError(f"{family} needs an odd prime")
    if family == "fermat-quartic":
        if p % 8 in (3, 5):
            return 3 + Fraction(1, p * p)
        return Fraction(3)
    sign = 1 if p % 4 == 1 else -1
    body = 2 * p * p + sign * 2 * p
    return Fraction(8, 3) * Fraction(body + 3, body + 1)


def convergence_fit(rows: Sequence) -> dict:
    """Least squares of normalized against 1, 1/p, 1/p², over rows that
    carry ``p``, ``n`` and ``normalized`` (colength records).

    Needs at least three distinct primes at a common n; reports the
    constant-term estimate plus sup|fit residual|·p and ·p² as rate
    diagnostics (the limit claims carry unspecified constants, so these
    are reported, not asserted).
    """
    if len({row.p for row in rows}) < 3:
        raise ValueError("underdetermined: need at least 3 distinct primes")
    if len({row.n for row in rows}) != 1:
        raise ValueError("rows mix different n")
    ps = np.array([float(row.p) for row in rows])
    y = np.array([float(row.normalized) for row in rows])
    design = np.column_stack([np.ones_like(ps), 1.0 / ps, 1.0 / ps**2])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coeffs
    resid = np.abs(y - fitted)
    return {
        "e_hat": float(coeffs[0]),
        "c_hat": float(coeffs[1]),
        "c2_hat": float(coeffs[2]),
        "max_resid_p": float(np.max(resid * ps)),
        "max_resid_p2": float(np.max(resid * ps**2)),
    }
