"""End-to-end suite: every headline behavior checked at its stated
tolerance, one pass/fail line per item under pytest -v."""

import itertools
from fractions import Fraction

import pytest

from hklab.colength import (
    IdealSpec,
    SizeGuardError,
    colength,
    frobenius_power,
)
from hklab.curves import (
    cohomology_profile,
    curve_geometry,
    estimate_hn_profile,
    vanishing_report,
)
from hklab.diagonal import DiagonalSpec, d_char0, d_f, diagonal_limits, g_lambda, sandwich_check
from hklab.fp_linalg import PrimeField
from hklab.graded import Polynomial, parse_ring_spec
from hklab.limits import hk_from_profile, reference_value

HALF = Fraction(1, 2)


def fermat_ring(p, s=3):
    return parse_ring_spec(f"fermat:s={s},d=4,p={p}")


@pytest.fixture(scope="session")
def fermat_runs():
    """Colength records plus cohomology/slope data for the quartic at n=1,
    shared by the convergence, round-trip, and vanishing checks."""
    runs = {}
    for p in (5, 7, 11, 13, 17, 23):
        ring = fermat_ring(p)
        ideal = IdealSpec.maximal_ideal(ring)
        geom = curve_geometry(ring)
        record = colength(ring, ideal, 1)
        prof = cohomology_profile(ring, ideal, 1)
        hn = estimate_hn_profile(prof, 3, 3)
        runs[p] = (geom, record, prof, hn)
    return runs


def test_c1_exactness_identity():
    # quotient piece dimension minus the free-resolution count equals the
    # section count, exactly, for every twist up to the default cutoff,
    # max(3q, 2q + 4) for the quartic (theta = 1); the colength dims stop at
    # the first zero piece and every later piece is zero
    for p in (3, 5, 7):
        ring = fermat_ring(p)
        ideal = IdealSpec.maximal_ideal(ring)
        frob = frobenius_power(ring, ideal, 1)
        dims = colength(ring, ideal, 1).dims
        prof = cohomology_profile(ring, ideal, 1)
        assert prof.m_max == max(3 * p, 2 * p + 4)
        for m in range(prof.m_max + 1):
            quotient = dims[m] if m < len(dims) else 0
            free_count = ring.hilbert_dim(m) - sum(
                ring.hilbert_dim(m - e) for e in frob.degrees
            )
            assert quotient - free_count == prof.h0[m], (p, m)


def test_c2_frobenius_collapse():
    def power_ideal(ring, N):
        return IdealSpec.from_polynomials(
            [
                Polynomial.monomial(
                    ring.field,
                    3,
                    tuple(N if j == i else 0 for j in range(3)),
                )
                for i in range(3)
            ]
        )

    for p in (3, 5, 7):
        ring = parse_ring_spec(f"hypersurface:s=3,p={p},f=x+y+z")
        for n in (1, 2, 3):
            N = p**n
            record = colength(ring, power_ideal(ring, N))
            assert Fraction(record.total, N * N) == 1, (p, n)
    ring5 = parse_ring_spec("hypersurface:s=3,p=5,f=x+y+z")
    for n in (1, 2):
        N = 2 * 5**n
        record = colength(ring5, power_ideal(ring5, N))
        assert abs(Fraction(record.total, N * N) - Fraction(3, 4)) <= Fraction(2, 100), n


def test_c3_g_function_exact_values():
    xs5 = [HALF] * 5
    assert g_lambda(xs5, 1) == Fraction(1, 16)
    assert g_lambda(xs5, -1) == Fraction(1, 16)
    for lam in (2, -2, 3, -3, 4, -4):
        assert g_lambda(xs5, lam) == 0
    assert diagonal_limits(DiagonalSpec((1, 1, 1))) == (Fraction(1), Fraction(3, 4))
    assert diagonal_limits(DiagonalSpec((4, 4, 4, 4))).e_hk_infinity == Fraction(8, 3)


def test_c4_truncated_power_dimensions():
    for p in (5, 7, 11):
        for a in range(1, 9):
            for b in range(1, 9):
                assert d_f(p, a, b) == min(a, b), (p, a, b)
    assert d_f(7, 3, 3, 3) == 7

    cache = {}

    def df(p, ks):
        key = (p, ks)
        if key not in cache:
            cache[key] = d_f(p, *ks)
        return cache[key]

    for p in (7, 11):
        for s in (2, 3, 4):
            for ks in itertools.product(range(1, 6), repeat=s):
                canonical = df(p, tuple(sorted(ks)))
                assert df(p, ks) == canonical, (p, ks)
                for i in range(s):
                    grown = tuple(
                        sorted(k + 1 if j == i else k for j, k in enumerate(ks))
                    )
                    assert df(p, grown) >= canonical, (p, ks, i)

    for N in range(1, 21):
        assert d_char0(N, N, N) == -(-3 * N * N // 4), N


def test_c5_sandwich_inequality():
    gaps = {}
    for p, n in [(5, 1), (5, 2), (7, 1), (13, 1)]:
        rep = sandwich_check(DiagonalSpec((2, 2, 2)), p, n)
        assert rep.lower <= rep.value <= rep.upper, (p, n)
        if n == 1:
            gaps[p] = rep.gap
    for p, n in [(3, 1), (5, 1)]:
        rep = sandwich_check(DiagonalSpec((2, 2, 2, 2)), p, n)
        assert rep.lower <= rep.value <= rep.upper, (p, n)
    assert gaps[5] > gaps[7] > gaps[13]


def test_c6_quartic_convergence_and_profiles(fermat_runs):
    worst_trend = Fraction(0)
    for p, (geom, record, prof, hn) in fermat_runs.items():
        reference = reference_value("fermat-quartic", p)
        residual = record.normalized - reference
        assert abs(residual) <= Fraction(8, p), p
        worst_trend = max(worst_trend, abs(residual) * p)
        if p % 8 in (1, 7):
            assert hn.pairs == ((Fraction(3, 2), 2),), p
    assert worst_trend <= 8


def test_c7_profile_formula_round_trip(fermat_runs):
    for p, (geom, record, prof, hn) in fermat_runs.items():
        from_profile = hk_from_profile(geom, hn, (1, 1, 1))
        assert abs(from_profile - record.normalized) <= Fraction(8, p), p


def test_c8_four_variable_family_reduced_scale():
    ring = fermat_ring(3, s=4)
    ideal = IdealSpec.maximal_ideal(ring)
    target = reference_value("chang-quartic", 3)
    assert target == Fraction(40, 13)
    tolerances = {1: Fraction(1, 2), 2: Fraction(1, 5)}
    for n, tol in tolerances.items():
        record = colength(ring, ideal, n, max_dim=5000)
        assert abs(record.normalized - target) <= tol, n
    with pytest.raises(SizeGuardError):
        colength(ring, ideal, 2, max_dim=100)


def test_c9_vanishing_reports(fermat_runs):
    for p in (7, 23):
        geom, record, prof, hn = fermat_runs[p]
        rep = vanishing_report(prof, hn)
        assert rep.below_violations == (), p
        assert rep.above_violations == (), p
        assert isinstance(rep.tail_sum, int) and rep.tail_sum >= 0
        assert rep.tail_ratio >= 0.0
