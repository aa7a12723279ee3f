"""Closed-form limit values, normalized colengths, and convergence fits.

Exact rationals (`fractions.Fraction`) everywhere until the final
least-squares step, which is double precision by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from hklab.colength import IdealSpec, colength, frobenius_power
from hklab.graded import HypersurfaceRing

if TYPE_CHECKING:  # curves imports store, which imports diagonal and so limits
    from hklab.curves import CurveGeometry, HNProfile

__all__ = [
    "ConvergenceRow",
    "hk_from_profile",
    "normalized_colength",
    "reference_value",
    "convergence_fit",
    "rational_str",
]


def rational_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


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
    q = ring.field.p**n
    return colength(ring, frobenius_power(ring, ideal, q), q=q, n=n).normalized


_FAMILY_ALIASES = {
    "fermat_quartic": "fermat_quartic",
    "fermat-quartic": "fermat_quartic",
    "chang_quartic_4vars": "chang_quartic_4vars",
    "chang_quartic": "chang_quartic_4vars",
    "chang-quartic": "chang_quartic_4vars",
    "chang": "chang_quartic_4vars",
}


def reference_value(family: str, p: int) -> Fraction:
    """Known exact multiplicity of the family at the prime p.

    fermat_quartic: 3 + 1/p² when p ≡ 3,5 (mod 8), else 3 (p odd).
    chang_quartic_4vars: (8/3)(2p² ± 2p + 3)/(2p² ± 2p + 1), sign +
    for p ≡ 1 (mod 4), − for p ≡ 3 (mod 4).
    """
    key = _FAMILY_ALIASES.get(family)
    if key is None:
        raise ValueError(f"unknown family: {family!r}")
    if p == 2:
        raise ValueError(f"{key} needs an odd prime")
    if key == "fermat_quartic":
        if p % 8 in (3, 5):
            return 3 + Fraction(1, p * p)
        return Fraction(3)
    sign = 1 if p % 4 == 1 else -1
    body = 2 * p * p + sign * 2 * p
    return Fraction(8, 3) * Fraction(body + 3, body + 1)


@dataclass(frozen=True)
class ConvergenceRow:
    p: int
    n: int
    q: int
    normalized: Fraction
    reference: Fraction
    residual: Fraction
    residual_p: Fraction

    @classmethod
    def build(
        cls, p: int, n: int, normalized: Fraction, reference: Fraction
    ) -> "ConvergenceRow":
        residual = normalized - reference
        return cls(
            p=p,
            n=n,
            q=p**n,
            normalized=normalized,
            reference=reference,
            residual=residual,
            residual_p=residual * p,
        )

    def to_csv_dict(self) -> dict:
        return {
            "p": str(self.p),
            "n": str(self.n),
            "q": str(self.q),
            "normalized": rational_str(self.normalized),
            "reference": rational_str(self.reference),
            "residual": rational_str(self.residual),
            "residual_p": rational_str(self.residual_p),
        }


def convergence_fit(rows: Sequence) -> dict:
    """Least squares of normalized against 1, 1/p, 1/p².

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
