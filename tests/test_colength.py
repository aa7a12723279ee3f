from fractions import Fraction

import pytest

from hklab.colength import (
    ColengthRecord,
    IdealSpec,
    NotPrimaryError,
    SizeGuardError,
    colength,
    frobenius_power,
    parse_ideal_spec,
)
from hklab.curves import cohomology_profile
from hklab.fp_linalg import rank_mod_p
from hklab.graded import Polynomial, graded_map_matrix, parse_polynomial, parse_ring_spec

from oracles import ref_ideal_colength


def ring(spec):
    return parse_ring_spec(spec)


def maximal(R):
    return IdealSpec.maximal_ideal(R)


def test_frobenius_power_identity_and_additivity():
    R = ring("fermat:s=3,d=4,p=5")
    I = maximal(R)
    assert frobenius_power(R, I, 0) == I
    xy = parse_polynomial(R.field, 3, "x+y")
    J = frobenius_power(R, IdealSpec.from_polynomials([xy]), 1)
    assert J.generators[0] == parse_polynomial(R.field, 3, "x^5+y^5")
    assert J.degrees == (5,)


def test_frobenius_power_cube_example():
    R = ring("polyring:s=2,p=3")
    g = parse_polynomial(R.field, 2, "x^2+x*y")
    J = frobenius_power(R, IdealSpec.from_polynomials([g]), 1)
    assert J.generators[0] == parse_polynomial(R.field, 2, "x^6+x^3*y^3")


def test_frobenius_power_rejects_negative_exponents():
    R = ring("fermat:s=3,d=4,p=5")
    for bad in (-1, -2):
        with pytest.raises(ValueError):
            frobenius_power(R, maximal(R), bad)


def test_quotient_piece_dims_of_residue_field():
    R = ring("fermat:s=3,d=4,p=5")
    gens = maximal(R).generators
    assert R.hilbert_dim(0) - rank_mod_p(graded_map_matrix(R, gens, 0)) == 1
    assert R.hilbert_dim(1) - rank_mod_p(graded_map_matrix(R, gens, 1)) == 0
    R2 = ring("fermat:s=3,d=2,p=5")
    gens2 = maximal(R2).generators
    assert R2.hilbert_dim(1) - rank_mod_p(graded_map_matrix(R2, gens2, 1)) == 0


def test_colength_of_maximal_ideal_is_one():
    R = ring("fermat:s=3,d=2,p=5")
    rec = colength(R, maximal(R))
    assert rec.total == 1
    assert rec.dims == (1, 0)
    assert rec.normalized == 1


def test_colength_fermat_quartic_frozen_values():
    # Totals frozen from the degreewise reference computation in
    # tests/oracles.py (ref_ideal_colength on the ambient ring).
    expected = {(3, 1): 27, (5, 1): 75, (7, 1): 145, (3, 2): 252}
    for (p, n), total in expected.items():
        R = ring(f"fermat:s=3,d=4,p={p}")
        rec = colength(R, maximal(R), n)
        assert rec.total == total, (p, n)
        assert rec.normalized == Fraction(total, p ** (2 * n))
        assert rec.dims[-1] == 0
        assert sum(rec.dims) == total


def test_colength_fermat_cube_dims_profile():
    # p=3, q=3: the relation lies inside (x^3,y^3,z^3), so the quotient is
    # the monomial complete intersection with the symmetric dims profile.
    R = ring("fermat:s=3,d=4,p=3")
    rec = colength(R, maximal(R), 1)
    assert rec.dims == (1, 3, 6, 7, 6, 3, 1, 0)
    assert (rec.p, rec.n, rec.q) == (3, 1, 3)


def test_colength_matches_reference_on_quadric():
    R = ring("fermat:s=3,d=2,p=5")
    J = frobenius_power(R, maximal(R), 1)
    rec = colength(R, maximal(R), 1)
    assert rec.total == 37  # frozen from ref_ideal_colength
    gens = [(5, dict(g.terms)) for g in J.generators] + [
        (2, dict(R.relation.terms))
    ]
    assert ref_ideal_colength(5, 3, gens) == 37


def test_colength_buchweitz_chen_scales():
    # Line relation: R is a polynomial ring in disguise, so Frobenius powers
    # of the variables give exactly q^2, and the N = 2q column gives 3N^2/4.
    R = ring("hypersurface:s=3,p=5,f=x+y+z")
    for n in (1, 2):
        assert colength(R, maximal(R), n).normalized == 1
    F = R.field
    N = 10
    gens = IdealSpec.from_polynomials(
        [Polynomial.monomial(F, 3, tuple(N if j == i else 0 for j in range(3))) for i in range(3)]
    )
    rec = colength(R, gens)
    assert rec.total == 75  # = 3*N^2/4, frozen from ref_artinian_colength
    assert Fraction(rec.total, N * N) == Fraction(3, 4)


def test_colength_not_primary():
    # R/(x) = F[y,z]/(y^4+z^4) is a whole curve: every piece stays positive.
    R = ring("fermat:s=3,d=4,p=5")
    with pytest.raises(NotPrimaryError):
        colength(R, IdealSpec.from_polynomials([Polynomial.variable(R.field, 3, 0)]))
    # (x, y) leaves F[z] in the ambient polynomial ring
    P = ring("polyring:s=3,p=5")
    xy = [Polynomial.variable(P.field, 3, 0), Polynomial.variable(P.field, 3, 1)]
    with pytest.raises(NotPrimaryError):
        colength(P, IdealSpec.from_polynomials(xy))
    # the relation itself generates the zero ideal of R
    with pytest.raises(NotPrimaryError):
        colength(R, IdealSpec.from_polynomials([R.relation]))
    # ... but (x, y) is primary in R itself: R/(x,y) = F[z]/(z^4)
    rec = colength(R, IdealSpec.from_polynomials(
        [Polynomial.variable(R.field, 3, 0), Polynomial.variable(R.field, 3, 1)]
    ))
    assert rec.total == 4 and rec.dims == (1, 1, 1, 1, 0)


def test_size_guard_trips():
    R = ring("fermat:s=3,d=4,p=7")
    with pytest.raises(SizeGuardError):
        colength(R, maximal(R), 1, max_dim=10)
    rec = colength(R, maximal(R), 1, max_dim=5000)
    assert rec.total == 145


def test_monotonicity_under_extra_generators():
    R = ring("fermat:s=3,d=4,p=5")
    J = frobenius_power(R, maximal(R), 1)
    bigger = IdealSpec.from_polynomials(
        list(J.generators) + [parse_polynomial(R.field, 3, "x^2*y^2")]
    )
    assert colength(R, bigger).total <= colength(R, J).total


def test_syzygy_h0_koszul_values():
    R = ring("fermat:s=3,d=4,p=7")
    # the three Koszul syzygies appear in degree 2
    assert cohomology_profile(R, maximal(R), 0, m_max=2).h0 == (0, 0, 3)


def test_syzygy_h0_requires_curve_ring():
    R4 = ring("fermat:s=4,d=4,p=5")
    with pytest.raises(ValueError):
        cohomology_profile(R4, IdealSpec.maximal_ideal(R4), 0, m_max=2)


def test_colength_record_json_round_trip():
    rec = ColengthRecord(
        p=5, n=1, q=5, dims=(1, 3, 0), total=4, normalized=Fraction(4, 25)
    )
    assert ColengthRecord.from_json_dict(rec.to_json_dict()) == rec
    assert ColengthRecord.from_dims(5, 1, (1, 3, 0), 2) == rec


def test_parse_ideal_spec():
    R = ring("fermat:s=3,d=4,p=7")
    assert parse_ideal_spec(R, "maximal") == IdealSpec.maximal_ideal(R)
    J = parse_ideal_spec(R, "x^2, y^2, z^2")
    assert J.degrees == (2, 2, 2)
    from hklab.graded import SpecParseError

    with pytest.raises(SpecParseError):
        parse_ideal_spec(R, "x^2,, y")
    with pytest.raises(SpecParseError):
        parse_ideal_spec(R, "x + y^2")  # inhomogeneous generator
