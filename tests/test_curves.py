from fractions import Fraction

import pytest

from hklab.colength import IdealSpec, frobenius_power, parse_ideal_spec
from hklab.curves import (
    AmbiguousPlateauError,
    CohomologyProfile,
    ProfileTooShortError,
    SingularCurveError,
    cohomology_profile,
    curve_geometry,
    default_m_max,
    estimate_hn_profile,
    syzygy_data,
    syzygy_euler_char,
    vanishing_report,
)
from hklab.graded import (
    HypersurfaceRing,
    graded_map_matrix,
    parse_polynomial,
    parse_ring_spec,
)
from hklab.fp_linalg import PrimeField, rank_mod_p


def fermat(p, d=4, s=3):
    return parse_ring_spec(f"fermat:s={s},d={d},p={p}")


# ---------------------------------------------------------------- geometry


@pytest.mark.parametrize(
    "d,expected",
    [(1, (1, 0, -2)), (2, (2, 0, -1)), (3, (3, 1, 0)), (4, (4, 3, 1))],
)
def test_geometry_of_smooth_fermat_curves(d, expected):
    geom = curve_geometry(fermat(7, d=d))
    assert (geom.deg_y, geom.genus, geom.theta) == expected


def test_fermat_quartic_in_char_two_is_singular():
    # all partials vanish identically
    with pytest.raises(SingularCurveError):
        curve_geometry(fermat(2))


def test_cuspidal_cubic_is_singular():
    field = PrimeField(7)
    f = parse_polynomial(field, 3, "y^2*z + 6*x^3")
    ring = HypersurfaceRing(field, 3, f)
    with pytest.raises(SingularCurveError, match="singular curve"):
        curve_geometry(ring)


def test_geometry_rejects_non_curves():
    with pytest.raises(ValueError):
        curve_geometry(parse_ring_spec("polyring:s=3,p=7"))
    with pytest.raises(ValueError):
        curve_geometry(fermat(7, s=4))


# ------------------------------------------------------- numerical bundle data


def test_syzygy_data_for_maximal_ideal_on_quartic():
    geom = curve_geometry(fermat(7))
    data = syzygy_data(geom, (1, 1, 1))
    assert data.rank == 2
    assert data.deg_s == -12
    assert data.slope == Fraction(-6)
    assert data.nu == Fraction(3, 2)


def test_euler_characteristic_values():
    geom = curve_geometry(fermat(7))
    assert syzygy_euler_char(geom, (1, 1, 1), 1, 2) == 0
    assert syzygy_euler_char(geom, (1, 1, 1), 1, 3) == 8
    assert syzygy_euler_char(geom, (1, 1, 1), 7, 0) == -88


def test_default_window_clears_last_breakpoint():
    assert default_m_max(7, (1, 1, 1), 1) == 21
    # at q = 3 the top plateau of the quartic needs 2q + theta + 3 twists,
    # and that of the quintic (theta = 2) 2q + theta + 4
    assert default_m_max(3, (1, 1, 1), 1) == 10
    assert default_m_max(3, (1, 1, 1), 2) == 12
    assert default_m_max(7, (1, 1, 1), 2) == 21


# ------------------------------------------------------------------ profiles


def test_profile_on_quartic_q7():
    ring = fermat(7)
    prof = cohomology_profile(ring, IdealSpec.maximal_ideal(ring), 1)
    assert prof.m_max == 21
    assert prof.h0[:13] == (0,) * 11 + (3, 8)
    assert prof.h0[13:] == tuple(8 * m - 88 for m in range(13, 22))
    assert prof.h1[0] == 88
    assert prof.chi[0] == -88
    # h1 = h0 - chi everywhere by construction, and it decays to zero
    assert all(a - b == c for a, b, c in zip(prof.h0, prof.chi, prof.h1))
    assert prof.h1[12:] == (0,) * 10


def test_profile_q9_interlocking_counts():
    ring = fermat(3)
    prof = cohomology_profile(ring, IdealSpec.maximal_ideal(ring), 2)
    assert prof.h0[11:19] == (0, 1, 3, 6, 11, 17, 24, 32)
    assert prof.h1[17:] == (0,) * (prof.m_max - 16)


def per_twist_h0(ring, ideal, n, m_max):
    """h0 twist by twist: the domain dimension Σ_i dim R_{m-q·e_i} minus the
    rank of the degree-m multiplication map, one matrix per twist."""
    frob = frobenius_power(ring, ideal, n)
    return tuple(
        sum(ring.hilbert_dim(m - e) for e in frob.degrees)
        - rank_mod_p(graded_map_matrix(ring, frob.generators, m))
        for m in range(m_max + 1)
    )


KLEIN = "hypersurface:s=3,p={p},f=x^3*y+y^3*z+z^3*x"
QUARTIC_XYZ2 = "hypersurface:s=3,p={p},f=x^4+y^4+z^4+x*y*z^2"


@pytest.mark.parametrize(
    "spec,ideal,q",
    [
        ("fermat:s=3,d=4,p=3", "maximal", 3),
        ("fermat:s=3,d=4,p=3", "maximal", 9),
        ("fermat:s=3,d=4,p=5", "maximal", 5),
        ("fermat:s=3,d=4,p=5", "maximal", 25),
        ("fermat:s=3,d=5,p=7", "maximal", 7),
        (KLEIN.format(p=5), "maximal", 5),
        (KLEIN.format(p=11), "maximal", 11),
        (QUARTIC_XYZ2.format(p=11), "maximal", 11),
        (QUARTIC_XYZ2.format(p=13), "maximal", 13),
        ("fermat:s=3,d=4,p=7", "x^2,y^2,z^2,x*y", 7),
    ],
)
def test_profile_h0_matches_per_twist_ranks(spec, ideal, q):
    # the profile reads h0 off one colength record; the reference ranks
    # every twist's matrix, past the top of R/I^[q] too
    ring = parse_ring_spec(spec)
    I = parse_ideal_spec(ring, ideal)
    n = next(n for n in range(q) if ring.field.p**n == q)
    prof = cohomology_profile(ring, I, n)
    assert prof.h0 == per_twist_h0(ring, I, n, prof.m_max)


# -------------------------------------------------------------- HN estimation


def test_single_plateau_for_residues_one_and_seven_mod_eight():
    for p in (7, 17, 23):
        ring = fermat(p)
        prof = cohomology_profile(ring, IdealSpec.maximal_ideal(ring), 1)
        hn = estimate_hn_profile(prof, 3, 3)
        assert hn.pairs == ((Fraction(3, 2), 2),)
        assert hn.residual == 0.0


def test_single_plateau_masks_small_destabilization_at_first_power():
    # at q = p the two slopes sit 1/p apart: the split is narrower than the
    # genus-sized transient, so only the coarse profile is recoverable
    for p in (5, 11, 13):
        ring = fermat(p)
        prof = cohomology_profile(ring, IdealSpec.maximal_ideal(ring), 1)
        hn = estimate_hn_profile(prof, 3, 3)
        assert hn.pairs == ((Fraction(3, 2), 2),)


def test_two_step_profile_emerges_at_q27():
    ring = fermat(3)
    prof = cohomology_profile(ring, IdealSpec.maximal_ideal(ring), 3)
    hn = estimate_hn_profile(prof, 3, 3)
    assert hn.pairs == ((Fraction(4, 3), 1), (Fraction(5, 3), 1))
    assert hn.residual == 0.0
    assert hn.first_nonzero == 36
    assert sum(r for _, r in hn.pairs) == 2
    assert sum(nu * r for nu, r in hn.pairs) == 3


def test_degree_conservation_on_every_estimate():
    for p, n in [(3, 2), (3, 3), (5, 1), (7, 1)]:
        ring = fermat(p)
        prof = cohomology_profile(ring, IdealSpec.maximal_ideal(ring), n)
        hn = estimate_hn_profile(prof, 3, 3)
        assert sum(nu * r for nu, r in hn.pairs) == Fraction(3)


def test_profile_too_short_before_top_plateau():
    ring = fermat(7)
    prof = cohomology_profile(ring, IdealSpec.maximal_ideal(ring), 1, m_max=12)
    with pytest.raises(ProfileTooShortError, match="profile too short"):
        estimate_hn_profile(prof, 3, 3)


def test_top_plateau_requires_h1_zero():
    h0 = tuple(8 * m for m in range(6))
    geom = curve_geometry(fermat(7))
    fake = CohomologyProfile(p=7, q=1, m_max=5, h0=h0, chi=tuple(v - 1 for v in h0), h1=(1,) * 6, geom=geom)
    with pytest.raises(ProfileTooShortError):
        estimate_hn_profile(fake, 3, 3)


def test_stable_slope_off_lattice_is_ambiguous():
    h0 = tuple(5 * m for m in range(9))
    geom = curve_geometry(fermat(7))
    fake = CohomologyProfile(p=7, q=1, m_max=8, h0=h0, chi=h0, h1=(0,) * 9, geom=geom)
    with pytest.raises(AmbiguousPlateauError, match="not a multiple"):
        estimate_hn_profile(fake, 3, 3)


def test_excess_cumulative_rank_is_ambiguous():
    h0 = tuple(12 * m for m in range(9))
    geom = curve_geometry(fermat(7))
    fake = CohomologyProfile(p=7, q=1, m_max=8, h0=h0, chi=h0, h1=(0,) * 9, geom=geom)
    with pytest.raises(AmbiguousPlateauError, match="exceeds"):
        estimate_hn_profile(fake, 3, 3)


def test_broken_degree_conservation_is_ambiguous():
    # a top plateau on the wrong line: slope fine, intercept off
    h0 = tuple(max(0, 8 * m - 84) for m in range(21))
    geom = curve_geometry(fermat(7))
    fake = CohomologyProfile(p=7, q=7, m_max=20, h0=h0, chi=h0, h1=(0,) * 21, geom=geom)
    with pytest.raises(AmbiguousPlateauError, match="cumulative degree"):
        estimate_hn_profile(fake, 3, 3)


def test_out_of_order_plateaus_are_ambiguous():
    deltas = [0, 4, 4, 4, 8, 8, 8, 8, 4, 4, 4, 0]
    h0 = [0]
    for d in deltas:
        h0.append(h0[-1] + d)
    h1 = (1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1)
    geom = curve_geometry(fermat(7))
    fake = CohomologyProfile(
        p=5,
        q=5,
        m_max=12,
        h0=tuple(h0),
        chi=tuple(a - b for a, b in zip(h0, h1)),
        h1=h1,
        geom=geom,
    )
    with pytest.raises(AmbiguousPlateauError, match="overlapping"):
        estimate_hn_profile(fake, 3, 3)


# ------------------------------------------------------------------ vanishing


def test_vanishing_windows_clean_for_q7():
    ring = fermat(7)
    prof = cohomology_profile(ring, IdealSpec.maximal_ideal(ring), 1)
    hn = estimate_hn_profile(prof, 3, 3)
    rep = vanishing_report(prof, hn)
    assert rep.clean
    assert rep.below_violations == ()
    assert rep.above_violations == ()
    assert rep.tail_start == 11
    assert rep.tail_sum == 3
    assert rep.tail_ratio == pytest.approx(3 * 7 / 49)


def test_vanishing_q9_flags_the_hidden_destabilization():
    # the coarse single-slope estimate puts floor(q*nu) = 13, but a section
    # already lives at m = 12: the below-window violation is the visible
    # footprint of the two-step structure that q = 9 cannot resolve
    ring = fermat(3)
    prof = cohomology_profile(ring, IdealSpec.maximal_ideal(ring), 2)
    hn = estimate_hn_profile(prof, 3, 3)
    rep = vanishing_report(prof, hn)
    assert hn.pairs == ((Fraction(3, 2), 2),)
    assert rep.below_violations == (12,)
    assert rep.above_violations == (16,)
    assert rep.tail_sum == 10
    assert not rep.clean


def test_vanishing_clean_at_q27_with_true_slopes():
    ring = fermat(3)
    prof = cohomology_profile(ring, IdealSpec.maximal_ideal(ring), 3)
    hn = estimate_hn_profile(prof, 3, 3)
    rep = vanishing_report(prof, hn)
    assert rep.clean
    assert rep.tail_start == 45
    assert rep.tail_sum == 4
    assert rep.tail_ratio == pytest.approx(4 * 3 / 729)

