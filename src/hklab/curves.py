"""Cohomology of twisted Frobenius pullbacks of syzygy bundles on smooth
plane curves, and slope-profile extraction from the section counts.

For Y ⊂ P² smooth of degree d and S = Syz(f_1..f_s), the section counts
h⁰(S^q(m)), q = p^n, come from one colength record of R/I^[q], χ from
Riemann-Roch, and h¹ = h⁰ - χ.  Between consecutive breakpoints of the
slope filtration the difference sequence Δh⁰ sits on a plateau at degY·R
with R the cumulative rank, and on each plateau h⁰ lies on an exact line
whose rational intercept recovers the cumulative degree D_k = Σ_{i≤k} r_i ν_i;
that is the whole estimation strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from hklab.colength import IdealSpec, NotPrimaryError, colength
from hklab.graded import HypersurfaceRing
from hklab.store import cached_colength

__all__ = [
    "CurveGeometry",
    "SyzygyData",
    "CohomologyProfile",
    "HNProfile",
    "VanishingReport",
    "SingularCurveError",
    "ProfileTooShortError",
    "AmbiguousPlateauError",
    "curve_geometry",
    "syzygy_data",
    "syzygy_euler_char",
    "cohomology_profile",
    "estimate_hn_profile",
    "vanishing_report",
]


class SingularCurveError(ValueError):
    """The Jacobian ideal is not irrelevant-primary: the curve is singular."""


class ProfileTooShortError(ValueError):
    """No stable top plateau: the profile must extend past the last
    breakpoint."""


class AmbiguousPlateauError(ValueError):
    """The difference sequence never stabilizes into a consistent set of
    plateaus."""


@dataclass(frozen=True)
class CurveGeometry:
    """Degree, genus and theta = deg(canonical)/deg(curve) of a smooth plane
    curve."""

    deg_y: int
    genus: int
    theta: int


@dataclass(frozen=True)
class SyzygyData:
    """Rank/degree/slope bookkeeping of Syz(f_1..f_s) on the curve."""

    rank: int
    deg_s: int
    slope: Fraction
    nu: Fraction


@dataclass(frozen=True)
class CohomologyProfile:
    """Per-twist section counts of S^q(m) for m = 0..m_max, q a power of
    the characteristic p, and the curve geometry they were computed with."""

    p: int
    q: int
    m_max: int
    h0: tuple
    chi: tuple
    h1: tuple
    geom: CurveGeometry


@dataclass(frozen=True)
class HNProfile:
    """Estimated slope profile: pairs (nu_k, r_k) with nu strictly
    increasing, plus fit diagnostics."""

    pairs: tuple
    residual: float
    uncertainty: float
    first_nonzero: Optional[int]

    @property
    def nu(self) -> tuple:
        return tuple(nu for nu, _ in self.pairs)


@dataclass(frozen=True)
class VanishingReport:
    """Observed violations of the two vanishing windows plus the h¹ tail."""

    below_violations: tuple  # m < floor(q*nu_1) with h0 > 0
    above_violations: tuple  # m > ceil(q*nu_t + theta) with h1 > 0
    tail_start: int
    tail_sum: int
    tail_ratio: float  # tail_sum / (q^2/p)

    @property
    def clean(self) -> bool:
        return not self.below_violations and not self.above_violations


def curve_geometry(ring: HypersurfaceRing) -> CurveGeometry:
    """Degree/genus/theta after checking smoothness via the Jacobian ideal.

    The check asks for finite colength of (f, ∂f/∂x_i) in the ambient
    polynomial ring, which is emptiness of the singular locus over the
    algebraic closure.
    """
    if ring.relation is None or ring.s != 3:
        raise ValueError("need a plane curve: three variables, one relation")
    f = ring.relation
    ambient = HypersurfaceRing(ring.field, 3, None)
    gens = [f] + [f.derivative(i) for i in range(3)]
    try:
        jacobian = IdealSpec.from_polynomials(gens)
        colength(ambient, jacobian)
    except (NotPrimaryError, ValueError) as exc:
        raise SingularCurveError(f"singular curve: {exc}") from None
    d = f.degree
    return CurveGeometry(deg_y=d, genus=(d - 1) * (d - 2) // 2, theta=d - 3)


def syzygy_data(geom: CurveGeometry, degrees: Sequence) -> SyzygyData:
    rank = len(degrees) - 1
    if rank < 1:
        raise ValueError("need at least two generators")
    deg_s = -sum(degrees) * geom.deg_y
    return SyzygyData(
        rank=rank,
        deg_s=deg_s,
        slope=Fraction(deg_s, rank),
        nu=Fraction(sum(degrees), rank),
    )


def syzygy_euler_char(
    geom: CurveGeometry, degrees: Sequence, q: int, m: int
) -> int:
    """chi(S^q(m)) by Riemann-Roch on the curve."""
    data = syzygy_data(geom, degrees)
    return q * data.deg_s + data.rank * m * geom.deg_y + data.rank * (1 - geom.genus)


def default_m_max(q: int, degrees: Sequence, theta: int) -> int:
    # h1 vanishes above q*nu_t + theta, and every slope is at least min(d),
    # so nu_t <= sum(d) - (rank-1)*min(d); the top plateau then needs
    # max(3, theta+2) more twists.  Twice the mean normalized slope is kept
    # where it is longer, so tables that already reached the top plateau
    # keep their length.
    rank = len(degrees) - 1
    top = q * (sum(degrees) - (rank - 1) * min(degrees)) + theta
    return max(math.ceil(Fraction(2 * q * sum(degrees), rank)), top + max(3, theta + 2))


def cohomology_profile(
    ring: HypersurfaceRing,
    ideal: IdealSpec,
    n: int,
    m_max: Optional[int] = None,
    max_dim: Optional[int] = None,
) -> CohomologyProfile:
    """h⁰, χ and h¹ = h⁰ - χ of S^q(m), q = p^n, for m = 0..m_max.

    h⁰(S^q(m)) is the kernel of ⊕_i R_{m-q·e_i} -> R_m, whose cokernel is
    (R/I^[q])_m, so h⁰ = Σ_i dim R_{m-q·e_i} - dim R_m + dim (R/I^[q])_m.
    One ``cached_colength`` record gives every twist: its pieces past the
    record are zero.  ``max_dim`` guards only the colength's matrices.
    """
    geom = curve_geometry(ring)
    q = ring.field.p**n
    if m_max is None:
        m_max = default_m_max(q, ideal.degrees, geom.theta)
    # a smooth plane curve is irreducible, so R is a domain and g^q
    # vanishes on the curve exactly when g does
    if any(ring.normal_form(g).is_zero for g in ideal.generators):
        raise ValueError("a generator power vanishes on the curve")
    twists = range(m_max + 1)
    chi = tuple(syzygy_euler_char(geom, ideal.degrees, q, m) for m in twists)
    dims = cached_colength(None, ring, ideal, n, max_dim).dims
    h0 = tuple(
        sum(ring.hilbert_dim(m - q * e) for e in ideal.degrees)
        - ring.hilbert_dim(m)
        + (dims[m] if m < len(dims) else 0)
        for m in twists
    )
    h1 = tuple(a - b for a, b in zip(h0, chi))
    if any(v < 0 for v in h1):
        raise RuntimeError("h1 negative: rank computation is inconsistent")
    return CohomologyProfile(
        p=ring.field.p, q=q, m_max=m_max, h0=h0, chi=chi, h1=h1, geom=geom
    )


def _constant_runs(values, start_index):
    """Maximal (start, end, value) runs of a sequence indexed from
    start_index."""
    runs = []
    i = 0
    n = len(values)
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        runs.append((start_index + i, start_index + j, values[i]))
        i = j + 1
    return runs


def estimate_hn_profile(profile: CohomologyProfile, s: int, sum_d: int) -> HNProfile:
    """Read the slope profile off the plateau structure of Δh⁰.

    A plateau is at least max(3, theta+2) consecutive equal differences at a
    value degY·R with integer cumulative rank R; the top plateau
    (R = s-1) must additionally have h¹ = 0, which pins total-degree
    conservation exactly.  Cumulative degrees D_k come from the exact line
    h⁰(m) = degY(m·R_k - q·D_k) + R_k(1-g) evaluated at the right end of
    each plateau; the first-nonzero twist is reported only as a diagnostic.
    """
    geom = profile.geom
    degy = geom.deg_y
    g = geom.genus
    q = profile.q
    rank_total = s - 1
    tol = max(3, geom.theta + 2)
    h0 = profile.h0
    h1 = profile.h1
    deltas = [h0[m] - h0[m - 1] for m in range(1, profile.m_max + 1)]
    selected = {}
    for a, b, value in _constant_runs(deltas, 1):
        if b - a + 1 < tol or value <= 0:
            continue
        if value % degy:
            raise AmbiguousPlateauError(
                f"ambiguous plateau: stable slope {value} at m={a}..{b} is "
                f"not a multiple of deg Y = {degy}"
            )
        r_cum = value // degy
        if r_cum > rank_total:
            raise AmbiguousPlateauError(
                f"ambiguous plateau: cumulative rank {r_cum} exceeds {rank_total}"
            )
        if r_cum == rank_total:
            # keep only the trailing h1 = 0 stretch; it certifies the exact
            # line and with it degree conservation
            m = b
            while m >= a and h1[m] == 0:
                m -= 1
            if b - m < tol:
                continue
            a = m + 1
        selected[r_cum] = (a, b)
    if rank_total not in selected:
        raise ProfileTooShortError(
            "profile too short: no stable top plateau with h1 = 0"
        )
    ranks = sorted(selected)
    # plateaus must appear in increasing-rank order along m
    spans = [selected[r] for r in ranks]
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        if not b1 < a2:
            raise AmbiguousPlateauError(
                "ambiguous plateau: overlapping plateaus for different ranks"
            )
    pairs = []
    prev_rank = 0
    prev_d = Fraction(0)
    residual = 0
    for r_cum in ranks:
        a, b = selected[r_cum]
        d_cum = Fraction(degy * b * r_cum + r_cum * (1 - g) - h0[b], q * degy)
        r_k = r_cum - prev_rank
        nu_k = (d_cum - prev_d) / r_k
        pairs.append((nu_k, r_k))
        for m in range(a - 1, b + 1):
            line = degy * (m * r_cum - q * d_cum) + r_cum * (1 - g)
            residual = max(residual, abs(h0[m] - line))
        prev_rank, prev_d = r_cum, d_cum
    if prev_d != sum_d:
        raise AmbiguousPlateauError(
            f"ambiguous plateau: cumulative degree {prev_d} != {sum_d}"
        )
    for (nu1, _), (nu2, _) in zip(pairs, pairs[1:]):
        if not nu1 < nu2:
            raise AmbiguousPlateauError(
                "ambiguous plateau: estimated slopes are not increasing"
            )
    first_nonzero = next(
        (m for m, v in enumerate(h0) if v > 0), None
    )
    return HNProfile(
        pairs=tuple(pairs),
        residual=float(residual),
        uncertainty=(g + geom.theta) / q,
        first_nonzero=first_nonzero,
    )


def vanishing_report(profile: CohomologyProfile, hn: HNProfile) -> VanishingReport:
    """Check the two vanishing windows at the estimated slopes.

    Below floor(q·nu_1) all h⁰ should vanish; above ceil(q·nu_t + theta)
    all h¹ should vanish; the h¹ tail from ceil(q·nu_t) on is summed and
    compared against q²/p.  q, p and theta come from the profile.
    """
    p, q, theta = profile.p, profile.q, profile.geom.theta
    nu_first = hn.nu[0]
    nu_last = hn.nu[-1]
    below_cut = math.floor(q * nu_first)
    above_cut = math.ceil(q * nu_last + theta)
    below = tuple(
        m for m in range(0, min(below_cut, profile.m_max + 1)) if profile.h0[m] > 0
    )
    above = tuple(
        m
        for m in range(above_cut + 1, profile.m_max + 1)
        if profile.h1[m] > 0
    )
    tail_start = math.ceil(q * nu_last)
    tail = sum(profile.h1[m] for m in range(tail_start, profile.m_max + 1))
    return VanishingReport(
        below_violations=below,
        above_violations=above,
        tail_start=tail_start,
        tail_sum=tail,
        tail_ratio=tail * p / (q * q),
    )
