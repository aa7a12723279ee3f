"""Cohomology of twisted Frobenius pullbacks of syzygy bundles on smooth
plane curves, slope-profile extraction from the section counts, and the
multiplicity a slope profile gives.

For Y ⊂ P² smooth of degree d and S = Syz(f_1..f_s), the section counts
h⁰(S^q(m)), q = p^n, come from one colength record of R/I^[q], χ from
Riemann-Roch, and h¹ = h⁰ - χ.  Between consecutive breakpoints of the
slope filtration the difference sequence Δh⁰ sits on a plateau at degY·R
with R the cumulative rank, and on each plateau h⁰ lies on an exact line
whose rational intercept recovers the cumulative degree D_k = Σ_{i≤k} r_i ν_i;
that is the whole estimation strategy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from hklab.colength import IdealSpec, SizeGuardError
from hklab.fp_linalg import rank_mod_p
from hklab.graded import HypersurfaceRing, graded_map_matrix
from hklab.store import cached_colength

__all__ = [
    "CurveGeometry",
    "CohomologyProfile",
    "HNProfile",
    "VanishingReport",
    "SingularCurveError",
    "ProfileTooShortError",
    "AmbiguousPlateauError",
    "curve_geometry",
    "syzygy_euler_char",
    "cohomology_profile",
    "estimate_hn_profile",
    "hk_from_profile",
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
class CohomologyProfile:
    """Per-twist section counts of S^q(m) for m = 0..m_max, q a power of
    the characteristic p, with the curve geometry and the generator
    degrees of the ideal they were computed for."""

    p: int
    q: int
    m_max: int
    h0: tuple
    chi: tuple
    h1: tuple
    geom: CurveGeometry
    degrees: tuple


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


def curve_geometry(ring: HypersurfaceRing, max_dim: Optional[int] = None) -> CurveGeometry:
    """Degree/genus/theta after checking smoothness via the Jacobian ideal.

    The curve is smooth exactly when J = (f, ∂f/∂x, ∂f/∂y, ∂f/∂z) is
    primary to the irrelevant ideal m of S = F_p[x,y,z].  When p does not
    divide d = deg f, Euler's identity d·f = Σ x_i·∂f/∂x_i puts f in the
    ideal of the partials, so f is left out.  With e the largest degree
    among the remaining nonzero generators, that takes one rank: J is
    m-primary exactly when (S/J)_{3e-2} = 0 (degree 0 when e = 0).  If J is
    m-primary, so is the ideal its degree-e piece generates; over the
    algebraic closure that ideal holds a regular sequence of three forms of
    degree e, whose quotient vanishes from degree 3e-2 on, and ranks do not
    change under field extension.  Conversely, a zero piece makes every
    later piece zero, so S/J has finite length.  SizeGuardError is raised
    instead of building that matrix when it has more than ``max_dim`` rows
    or columns.
    """
    if ring.relation is None or ring.s != 3:
        raise ValueError("need a plane curve: three variables, one relation")
    f = ring.relation
    d = f.degree
    ambient = HypersurfaceRing(ring.field, 3, None)
    partials = [g for g in (f.derivative(i) for i in range(3)) if not g.is_zero]
    gens = partials if d % ring.field.p else [f, *partials]
    top = max(3 * max(g.degree for g in gens) - 2, 0)
    trip = SizeGuardError.for_degree(ambient, [g.degree for g in gens], top, max_dim)
    if trip is not None:
        raise trip
    if rank_mod_p(graded_map_matrix(ambient, gens, top)) != ambient.hilbert_dim(top):
        raise SingularCurveError(f"singular curve: the Jacobian quotient is nonzero in degree {top}")
    return CurveGeometry(deg_y=d, genus=(d - 1) * (d - 2) // 2, theta=d - 3)


def _syzygy_rank(degrees: Sequence) -> int:
    rank = len(degrees) - 1
    if rank < 1:
        raise ValueError("need at least two generators")
    return rank


def syzygy_euler_char(
    geom: CurveGeometry, degrees: Sequence, q: int, m: int
) -> int:
    """chi(S^q(m)) by Riemann-Roch on the curve: S has rank r = #degrees - 1
    and degree -degY·Σd, so chi = r·(m·degY + 1 - g) - q·degY·Σd."""
    rank = _syzygy_rank(degrees)
    return rank * (m * geom.deg_y + 1 - geom.genus) - q * sum(degrees) * geom.deg_y


def default_m_max(q: int, degrees: Sequence, theta: int) -> int:
    # h1 vanishes above q*nu_t + theta, and every slope is at least min(d),
    # so nu_t <= sum(d) - (rank-1)*min(d); the top plateau then needs
    # max(3, theta+2) more twists.  Twice the mean normalized slope is kept
    # where it is longer, so tables that already reached the top plateau
    # keep their length.
    rank = len(degrees) - 1
    top = q * (sum(degrees) - (rank - 1) * min(degrees)) + theta
    return max(math.ceil(Fraction(2 * q * sum(degrees), rank)), top + max(3, theta + 2))


def _hilbert_dims(ring: HypersurfaceRing, m_max: int) -> list:
    """dim R_m for m = 0..m_max: R has Hilbert series (1 - t^d)/(1 - t)^s,
    so these are the s running sums of the coefficients of 1 - t^d."""
    dims = [1] + [0] * m_max
    if ring.d is not None and ring.d <= m_max:
        dims[ring.d] = -1
    for _ in range(ring.s):
        dims = list(itertools.accumulate(dims))
    return dims


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
    record are zero.  The dim R terms index one list of Hilbert dimensions
    and χ is linear in m, so the rest is list arithmetic.  ``max_dim``
    guards the smoothness check's matrix and the colength's matrices.
    """
    geom = curve_geometry(ring, max_dim)
    _syzygy_rank(ideal.degrees)  # at least two generators
    q = ring.field.p**n
    if m_max is None:
        m_max = default_m_max(q, ideal.degrees, geom.theta)
    # a smooth plane curve is irreducible, so R is a domain and g^q
    # vanishes on the curve exactly when g does
    if any(ring.normal_form(g).is_zero for g in ideal.generators):
        raise ValueError("a generator power vanishes on the curve")
    # the guarded record comes before the twist tables, which have about 3q
    # entries: a guard that trips must not wait for them
    dims = cached_colength(None, ring, ideal, n, max_dim).dims
    size = m_max + 1
    chi0 = syzygy_euler_char(geom, ideal.degrees, q, 0)
    slope = syzygy_euler_char(geom, ideal.degrees, q, 1) - chi0
    chi = tuple(range(chi0, chi0 + slope * size, slope))  # slope = rank·degY > 0
    hilbert = _hilbert_dims(ring, m_max)
    pieces = list(dims[:size]) + [0] * (size - len(dims))
    h0 = [a - b for a, b in zip(pieces, hilbert)]
    for e in ideal.degrees:  # + dim R_{m - q·e}
        h0[q * e :] = [a + b for a, b in zip(h0[q * e :], hilbert)]
    h0 = tuple(h0)
    h1 = tuple(a - b for a, b in zip(h0, chi))
    if any(v < 0 for v in h1):
        raise RuntimeError("h1 negative: rank computation is inconsistent")
    return CohomologyProfile(
        p=ring.field.p, q=q, m_max=m_max, h0=h0, chi=chi, h1=h1, geom=geom,
        degrees=ideal.degrees,
    )


def estimate_hn_profile(profile: CohomologyProfile) -> HNProfile:
    """Read the slope profile off the plateau structure of Δh⁰.

    On a smooth plane curve h⁰ is convex with 0 <= Δh⁰ <= degY·(syzygy
    rank), so a profile of another shape is ambiguous; under that shape
    the plateaus come in increasing rank along m, and one ordered pass
    reads them.  A plateau is at least max(3, theta+2) consecutive equal
    differences at a value degY·R with integer cumulative rank R; the top
    plateau (R the syzygy rank, one less than the number of generators)
    must additionally have h¹ = 0, which pins total-degree conservation
    exactly: the last cumulative degree must be the generators' degree
    sum.  Cumulative degrees D_k come from the exact line h⁰(m) =
    degY(m·R_k - q·D_k) + R_k(1-g) evaluated at the right end b of each
    plateau.  The first-nonzero twist is reported only as a diagnostic.
    """
    geom = profile.geom
    degy = geom.deg_y
    g = geom.genus
    q = profile.q
    rank_total = _syzygy_rank(profile.degrees)
    tol = max(3, geom.theta + 2)
    h0 = profile.h0
    h1 = profile.h1
    deltas = [h0[m] - h0[m - 1] for m in range(1, profile.m_max + 1)]
    bound = rank_total * degy
    steps = [0, *deltas, bound]
    if any(lo > hi for lo, hi in zip(steps, steps[1:])):
        raise AmbiguousPlateauError(
            f"ambiguous plateau: Δh⁰ is negative, falls, or exceeds rank·deg Y = {bound}"
        )
    pairs = []
    prev_rank = 0
    prev_d = Fraction(0)
    b = 0
    for value, run in itertools.groupby(deltas):  # Δh⁰(m) = value on m = a..b
        a, b = b + 1, b + len(list(run))
        if b - a + 1 < tol or value <= 0:
            continue
        if value % degy:
            raise AmbiguousPlateauError(
                f"ambiguous plateau: stable slope {value} at m={a}..{b} is "
                f"not a multiple of deg Y = {degy}"
            )
        r_cum = value // degy
        if r_cum == rank_total:
            # keep only the trailing h1 = 0 stretch; it certifies the exact
            # line and with it degree conservation
            m = b
            while m >= a and h1[m] == 0:
                m -= 1
            if b - m < tol:
                continue
        d_cum = Fraction(degy * b * r_cum + r_cum * (1 - g) - h0[b], q * degy)
        r_k = r_cum - prev_rank
        nu_k = (d_cum - prev_d) / r_k
        pairs.append((nu_k, r_k))
        prev_rank, prev_d = r_cum, d_cum
    if prev_rank != rank_total:
        raise ProfileTooShortError("profile too short: no stable top plateau with h1 = 0")
    sum_d = sum(profile.degrees)
    if prev_d != sum_d:
        raise AmbiguousPlateauError(
            f"ambiguous plateau: cumulative degree {prev_d} != {sum_d}"
        )
    for (nu1, _), (nu2, _) in zip(pairs, pairs[1:]):
        if not nu1 < nu2:
            raise AmbiguousPlateauError(
                "ambiguous plateau: estimated slopes are not increasing"
            )
    return HNProfile(
        pairs=tuple(pairs),
        # every Δh⁰ on a plateau is degY·R, so h⁰ is exactly linear there
        residual=0.0,
        uncertainty=(g + geom.theta) / q,
        first_nonzero=next((m for m, v in enumerate(h0) if v > 0), None),
    )


def hk_from_profile(profile: CohomologyProfile, hn: HNProfile) -> Fraction:
    """(degY/2)·(Σ r̂_k ν̂_k² − Σ d_i²) from the slope profile ``hn``
    estimated on ``profile``, which gives deg Y and the degrees d_i."""
    rank_total = sum(r for _, r in hn.pairs)
    expected = _syzygy_rank(profile.degrees)
    if rank_total != expected:
        raise ValueError(f"profile ranks sum to {rank_total}, expected {expected}")
    quad = sum(Fraction(r) * nu * nu for nu, r in hn.pairs)
    return Fraction(profile.geom.deg_y, 2) * (quad - sum(d * d for d in profile.degrees))


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
