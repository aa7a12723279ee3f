import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from oracles import ref_graded_piece_dim, ref_ideal_colength, ref_monomials

# the module, which the package's colength function shadows as an attribute
COLENGTH = importlib.import_module("hklab.colength")


def ring(spec):
    return parse_ring_spec(spec)


def maximal(R):
    return IdealSpec.maximal_ideal(R)


def test_frobenius_power_identity_and_additivity():
    R = ring("fermat:s=3,d=4,p=5")
    I = maximal(R)
    assert frobenius_power(R, I, 0) == I
    xy = parse_polynomial(R.field, 3, "x+y")
    J = frobenius_power(R, IdealSpec([xy]), 1)
    assert J.generators[0] == parse_polynomial(R.field, 3, "x^5+y^5")
    assert J.degrees == (5,)


def test_frobenius_power_cube_example():
    R = ring("polyring:s=2,p=3")
    g = parse_polynomial(R.field, 2, "x^2+x*y")
    J = frobenius_power(R, IdealSpec([g]), 1)
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
    gens = IdealSpec(
        [Polynomial(F, 3, {tuple(N if j == i else 0 for j in range(3)): 1}) for i in range(3)]
    )
    rec = colength(R, gens)
    assert rec.total == 75  # = 3*N^2/4, frozen from ref_artinian_colength
    assert Fraction(rec.total, N * N) == Fraction(3, 4)


def test_colength_not_primary():
    # R/(x) = F[y,z]/(y^4+z^4) is a whole curve: every piece stays positive.
    R = ring("fermat:s=3,d=4,p=5")
    with pytest.raises(NotPrimaryError):
        colength(R, IdealSpec([Polynomial.variable(R.field, 3, 0)]))
    # (x, y) leaves F[z] in the ambient polynomial ring
    P = ring("polyring:s=3,p=5")
    xy = [Polynomial.variable(P.field, 3, 0), Polynomial.variable(P.field, 3, 1)]
    with pytest.raises(NotPrimaryError):
        colength(P, IdealSpec(xy))
    # the relation itself generates the zero ideal of R
    with pytest.raises(NotPrimaryError):
        colength(R, IdealSpec([R.relation]))
    # ... but (x, y) is primary in R itself: R/(x,y) = F[z]/(z^4)
    rec = colength(R, IdealSpec(
        [Polynomial.variable(R.field, 3, 0), Polynomial.variable(R.field, 3, 1)]
    ))
    assert rec.total == 4 and rec.dims == (1, 1, 1, 1, 0)


def test_size_guard_trips():
    R = ring("fermat:s=3,d=4,p=7")
    with pytest.raises(SizeGuardError):
        colength(R, maximal(R), 1, max_dim=10)
    rec = colength(R, maximal(R), 1, max_dim=5000)
    assert rec.total == 145


@pytest.mark.parametrize("run_cells", [1, 1 << 40])
def test_guard_inside_a_run_raises_before_building_its_degree(monkeypatch, run_cells):
    # q = 7 on the Fermat quartic: degrees 7..10 have more rows than
    # columns, and the cap 33 first trips at degree 9, while 7 and 8 wait
    # in one run (with runs of one degree, 8 closes the run of 7 and waits)
    R = ring("fermat:s=3,d=4,p=7")
    built = []
    build = COLENGTH.graded_map_entries

    def record(ring, gens, degrees):
        built.extend(degrees)
        return build(ring, gens, degrees)

    monkeypatch.setattr(COLENGTH, "graded_map_entries", record)
    monkeypatch.setattr(COLENGTH, "_RUN_CELLS", run_cells)
    trips = (SizeGuardError.for_degree(R, (7, 7, 7), m, 33) for m in range(30))
    first = next(t for t in trips if t is not None)
    with pytest.raises(SizeGuardError) as info:
        colength(R, maximal(R), 1, max_dim=33)
    got = info.value
    assert (got.m, got.rows, got.cols) == (first.m, first.rows, first.cols) == (9, 34, 18)
    assert built == ([] if run_cells > 1 else [7])


# Small rings with a pure-power, a multi-support or no leading term.
RUN_RELATIONS = [(2, "x^3+y^3"), (3, "x^3+2*x*y*z+y^3+z^3"), (3, "x*y-z^2"), (2, None), (3, None)]


@st.composite
def primary_ideals(draw):
    """(ring, ideal, n): pure powers of the variables, so that the ideal
    is primary, maybe with one more random form, and a small Frobenius
    exponent."""
    s, f = draw(st.sampled_from(RUN_RELATIONS))
    p, n = draw(st.sampled_from([(2, 0), (3, 0), (5, 0), (2, 1), (3, 1)]))
    R = ring(f"polyring:s={s},p={p}" if f is None else f"hypersurface:s={s},p={p},f={f}")
    powers = draw(st.lists(st.integers(1, 4 if n == 0 else 2), min_size=s, max_size=s))
    gens = [
        Polynomial(R.field, s, {tuple(e * (j == i) for j in range(s)): 1})
        for i, e in enumerate(powers)
    ]
    if draw(st.booleans()):
        monos = ref_monomials(s, draw(st.integers(1, 3)))
        terms = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        gens.append(Polynomial(R.field, s, {u: draw(st.integers(1, p - 1)) for u in terms}))
    return R, IdealSpec(gens), n


@settings(max_examples=40, deadline=None)
@given(primary_ideals())
def test_colength_matches_reference_whether_runs_split_or_not(case):
    R, ideal, n = case
    relation = [] if R.relation is None else [(R.d, R.relation.terms)]
    frob = frobenius_power(R, ideal, n)
    gens = relation + [(g.degree, g.terms) for g in frob.generators]
    total = ref_ideal_colength(R.field.p, R.s, gens)
    # runs of one degree each, the default bound, and one run for every
    # degree with more rows than columns
    for run_cells in (1, COLENGTH._RUN_CELLS, 1 << 40):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(COLENGTH, "_RUN_CELLS", run_cells)
            record = colength(R, ideal, n)
        assert record.total == total, run_cells
        # each degree's rank, not only their sum
        want = [ref_graded_piece_dim(R.field.p, R.s, gens, m) for m in range(len(record.dims))]
        assert list(record.dims) == want, run_cells


def test_monotonicity_under_extra_generators():
    R = ring("fermat:s=3,d=4,p=5")
    J = frobenius_power(R, maximal(R), 1)
    bigger = IdealSpec(
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
    # dims are kept through the first zero piece, which must exist
    assert ColengthRecord.from_dims(5, 1, [1, 3, 0, 2, 0], 2) == rec
    for dims in ((1, 3), ()):
        with pytest.raises(NotPrimaryError, match="no graded piece vanished"):
            ColengthRecord.from_dims(5, 1, dims, 2)


def test_parse_ideal_spec():
    R = ring("fermat:s=3,d=4,p=7")
    assert parse_ideal_spec(R, "maximal") == IdealSpec.maximal_ideal(R)
    J = parse_ideal_spec(R, "x^2, y^2, z^2")
    assert J.degrees == (2, 2, 2)
    assert IdealSpec(J.generators) == J
    from hklab.graded import SpecParseError

    with pytest.raises(SpecParseError):
        parse_ideal_spec(R, "x^2,, y")
    with pytest.raises(SpecParseError):
        parse_ideal_spec(R, "x + y^2")  # inhomogeneous generator
    # zero generators are dropped, and an ideal needs a nonzero one
    assert parse_ideal_spec(R, "x^2, 7*y, y^2, 0*z, z^2") == J
    with pytest.raises(SpecParseError, match="need at least one nonzero generator"):
        parse_ideal_spec(R, "7*x, 0")
