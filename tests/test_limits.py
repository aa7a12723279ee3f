import csv
from fractions import Fraction

import pytest

from hklab.cli import main
from hklab.colength import ColengthRecord, IdealSpec
from hklab.curves import (
    CurveGeometry,
    HNProfile,
    cohomology_profile,
    curve_geometry,
    estimate_hn_profile,
)
from hklab.graded import parse_ring_spec
from hklab.limits import (
    convergence_fit,
    hk_from_profile,
    normalized_colength,
    reference_value,
)


def profile_of(pairs):
    return HNProfile(
        pairs=tuple(pairs), residual=0.0, uncertainty=0.0, first_nonzero=None
    )


GEOM4 = CurveGeometry(deg_y=4, genus=3, theta=1)
GEOM1 = CurveGeometry(deg_y=1, genus=0, theta=-2)


def test_semistable_quartic_value():
    hn = profile_of([(Fraction(3, 2), 2)])
    assert hk_from_profile(GEOM4, hn, (1, 1, 1)) == 3


@pytest.mark.parametrize("delta", [Fraction(1, 6), Fraction(1, 10), Fraction(1, 22)])
def test_split_profile_adds_four_delta_squared(delta):
    hn = profile_of([(Fraction(3, 2) - delta, 1), (Fraction(3, 2) + delta, 1)])
    assert hk_from_profile(GEOM4, hn, (1, 1, 1)) == 3 + 4 * delta * delta


def test_split_line_bundle_on_the_plane():
    # rank-2 bundle on a line splitting as degrees -1, -2
    hn = profile_of([(Fraction(1), 1), (Fraction(2), 1)])
    assert hk_from_profile(GEOM1, hn, (1, 1, 1)) == 1


def test_semistable_specialization_on_the_plane():
    s, d = 3, 1
    hn = profile_of([(Fraction(s * d, s - 1), s - 1)])
    expected = Fraction(1, 2) * (Fraction((s * d) ** 2, s - 1) - s * d * d)
    assert hk_from_profile(GEOM1, hn, (d,) * s) == expected == Fraction(3, 4)


def test_profile_invariant_under_reordering():
    hn_a = profile_of([(Fraction(4, 3), 1), (Fraction(5, 3), 1)])
    hn_b = profile_of([(Fraction(5, 3), 1), (Fraction(4, 3), 1)])
    value = hk_from_profile(GEOM4, hn_a, (1, 1, 1))
    assert value == hk_from_profile(GEOM4, hn_b, (1, 1, 1))
    assert value == 3 + Fraction(4, 36)


def test_rank_mismatch_rejected():
    hn = profile_of([(Fraction(3, 2), 2)])
    with pytest.raises(ValueError, match="ranks"):
        hk_from_profile(GEOM4, hn, (1, 1, 1, 1))


def test_positive_on_observed_profiles():
    for p in (3, 7):
        ring = parse_ring_spec(f"fermat:s=3,d=4,p={p}")
        geom = curve_geometry(ring)
        prof = cohomology_profile(ring, IdealSpec.maximal_ideal(ring), 2)
        hn = estimate_hn_profile(prof, 3, 3)
        assert hk_from_profile(geom, hn, (1, 1, 1)) > 0


# ------------------------------------------------------- normalized colength


def test_frobenius_collapse_on_split_line():
    ring = parse_ring_spec("hypersurface:s=3,p=5,f=x+y+z")
    assert normalized_colength(ring, IdealSpec.maximal_ideal(ring), 1) == 1


def test_quartic_normalized_values():
    ring7 = parse_ring_spec("fermat:s=3,d=4,p=7")
    got = normalized_colength(ring7, IdealSpec.maximal_ideal(ring7), 1)
    assert got == Fraction(145, 49)
    assert abs(got - 3) <= Fraction(3, 49)
    ring3 = parse_ring_spec("fermat:s=3,d=4,p=3")
    assert normalized_colength(ring3, IdealSpec.maximal_ideal(ring3), 2) == Fraction(28, 9)


# ------------------------------------------------------------ reference values


@pytest.mark.parametrize(
    "p,expected",
    [
        (3, Fraction(28, 9)),
        (5, Fraction(76, 25)),
        (7, Fraction(3)),
        (11, Fraction(364, 121)),
        (13, Fraction(508, 169)),
        (17, Fraction(3)),
        (23, Fraction(3)),
    ],
)
def test_quartic_reference_by_residue_class(p, expected):
    assert reference_value("fermat-quartic", p) == expected


@pytest.mark.parametrize(
    "p,expected",
    [
        (3, Fraction(40, 13)),
        (5, Fraction(168, 61)),
        (7, Fraction(232, 85)),
    ],
)
def test_four_variable_reference(p, expected):
    assert reference_value("chang-quartic", p) == expected


def test_reference_rejects_unknown_and_even():
    with pytest.raises(ValueError, match="unknown family"):
        reference_value("nodal_cubic", 7)
    with pytest.raises(ValueError, match="unknown family"):
        reference_value("fermat_quartic", 7)
    with pytest.raises(ValueError, match="odd"):
        reference_value("fermat-quartic", 2)


def test_reference_monotone_within_residue_classes():
    # within each class mod 8 the value decreases toward 3
    for cls_primes in [(3, 11, 19), (5, 13, 29)]:
        vals = [reference_value("fermat-quartic", p) for p in cls_primes]
        assert vals == sorted(vals, reverse=True)
        assert all(v > 3 for v in vals)
    for p in (7, 17, 23, 31):
        assert reference_value("fermat-quartic", p) == 3


# --------------------------------------------------------------- convergence


def make_rows(points, n=1):
    # convergence_fit reads p, n and normalized; dims and total are not
    # consulted, so a one-piece placeholder stands in for them
    return [
        ColengthRecord(
            p=p, n=n, q=p**n, dims=(0,), total=0, normalized=normalized
        )
        for p, normalized in points
    ]


def test_row_arithmetic(tmp_path):
    # convergence.csv rows are built by the convergence command in cli.py
    argv = ["convergence", "--family", "fermat-quartic", "--primes", "3,5,7"]
    assert main(argv + ["--n", "1", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "convergence.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[7:] == ["normalized_float", "residual_float"]
    row = {r["p"]: r for r in rows}["7"]
    assert row["q"] == "7"
    assert row["normalized"] == "145/49"
    assert row["reference"] == "3/1"
    assert row["residual"] == "-2/49"
    assert row["residual_p"] == "-2/7"
    assert float(row["residual_float"]) == pytest.approx(-2 / 49)


def test_fit_recovers_exact_model():
    rows = make_rows([(p, 3 + Fraction(1, p * p)) for p in (3, 5, 7, 11, 13)])
    report = convergence_fit(rows)
    assert report["e_hat"] == pytest.approx(3.0, abs=1e-8)
    assert report["c_hat"] == pytest.approx(0.0, abs=1e-6)
    assert report["c2_hat"] == pytest.approx(1.0, abs=1e-5)
    assert report["max_resid_p2"] < 1e-6


def test_fit_on_constant_rows():
    rows = make_rows([(p, Fraction(3)) for p in (5, 7, 11)])
    report = convergence_fit(rows)
    assert report["e_hat"] == pytest.approx(3.0)
    assert report["max_resid_p"] == pytest.approx(0.0, abs=1e-9)


def test_fit_requires_three_distinct_primes():
    rows = make_rows([(5, Fraction(3)), (7, Fraction(3))])
    with pytest.raises(ValueError, match="underdetermined"):
        convergence_fit(rows)
    rows = make_rows([(5, Fraction(3)), (5, Fraction(3)), (7, Fraction(3))])
    with pytest.raises(ValueError, match="underdetermined"):
        convergence_fit(rows)


def test_fit_rejects_mixed_n():
    rows = make_rows([(3, Fraction(3))], n=1) + make_rows(
        [(5, Fraction(3)), (7, Fraction(3))], n=2
    )
    with pytest.raises(ValueError, match="mix"):
        convergence_fit(rows)

