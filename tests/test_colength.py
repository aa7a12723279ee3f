import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
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
from hklab.diagonal import han_monsky_colength
from hklab.fp_linalg import PrimeField, is_prime, rank_mod_p, sparse_rank
from hklab.graded import (
    HypersurfaceRing,
    Polynomial,
    graded_map_entries,
    graded_map_matrix,
    parse_polynomial,
    parse_ring_spec,
)

from oracles import (
    ref_artinian_colength,
    ref_graded_piece_dim,
    ref_ideal_colength,
    ref_monomials,
)

# the module, which the package's colength function shadows as an attribute
COLENGTH = importlib.import_module("hklab.colength")
CURVES = importlib.import_module("hklab.curves")
FP_LINALG = importlib.import_module("hklab.fp_linalg")


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


NODAL_CUBIC = "y^2*z-x^3-x^2*z"
KLEIN = "x^3*y+y^3*z+z^3*x"


def recording_builds(monkeypatch):
    """The degrees ``colength`` builds from now on, in order, by
    ``graded_map_entries``, which takes one degree last."""
    built = []
    build = COLENGTH.graded_map_entries

    def record(*args):
        built.append(args[-1])
        return build(*args)

    monkeypatch.setattr(COLENGTH, "graded_map_entries", record)
    return built


def refusing_the_lattice(monkeypatch):
    """Make ``_NoetherModule.of`` refuse every ring, as it refuses one where
    f(s, t, 1) = 0 on all of F_p^2, so that plane curves take the window
    loop that such rings keep."""
    monkeypatch.setattr(COLENGTH._NoetherModule, "of", lambda *args: None)


def recording_reductions(monkeypatch):
    """The (shifts, c) of every ``_lattice_degrees`` call from now on."""
    calls = []
    degrees = COLENGTH._lattice_degrees
    monkeypatch.setattr(
        COLENGTH, "_lattice_degrees", lambda *args: calls.append(degrees(*args)) or calls[-1]
    )
    return calls


@pytest.mark.parametrize("blocked_rows", [1, 1 << 40])
def test_guard_inside_a_run_raises_before_building_its_degree(monkeypatch, blocked_rows):
    # q = 7 on the nodal cubic, on the window loop: degrees 7..10 have
    # more rows than columns, the window ranks 10 and then 9, where h0 = 0,
    # and the loop above it ranks 11.  The cap 36 first trips at degree 12,
    # the record's zero piece, before it is built, whether every component
    # goes to the blocked kernel or none does
    R = ring(f"hypersurface:s=3,p=7,f={NODAL_CUBIC}")
    refusing_the_lattice(monkeypatch)
    built = recording_builds(monkeypatch)
    monkeypatch.setattr(FP_LINALG, "_BLOCKED_ROWS", blocked_rows)
    trips = (SizeGuardError.for_degree(R, (7, 7, 7), m, 36) for m in range(30))
    first = next(t for t in trips if t is not None)
    with pytest.raises(SizeGuardError) as info:
        colength(R, maximal(R), 1, max_dim=36)
    got = info.value
    assert (got.m, got.rows, got.cols) == (first.m, first.rows, first.cols) == (12, 36, 45)
    assert built == [10, 9, 11]


def test_guard_on_a_window_curve_trips_where_every_degree_would(monkeypatch):
    # The Klein quartic at p = 37 takes the lattice.  Every cap trips at
    # the first degree through the record's end that a loop over every
    # degree size-checks: at once below the generator degree 37, where no
    # reduction runs, and after the reduction from there on
    R = ring(f"hypersurface:s=3,p=37,f={KLEIN}")
    full = colength(R, maximal(R), 1)
    built = recording_builds(monkeypatch)
    reductions = recording_reductions(monkeypatch)
    after = 0
    for cap in range(1, 240):
        trips = (SizeGuardError.for_degree(R, (37, 37, 37), m, cap) for m in range(len(full.dims)))
        want = next((t for t in trips if t is not None), None)
        reductions.clear()
        if want is None:
            assert colength(R, maximal(R), 1, max_dim=cap) == full, cap
            continue
        with pytest.raises(SizeGuardError) as info:
            colength(R, maximal(R), 1, max_dim=cap)
        got = info.value
        assert (got.m, got.rows, got.cols) == (want.m, want.rows, want.cols), cap
        assert len(reductions) == (got.m >= 37), cap
        after += got.m >= 37
    assert not built
    assert after  # some trips came after the reduction


# Small rings with a pure-power, a multi-support or no leading term.
RUN_RELATIONS = [
    (2, "x^3+y^3"),
    (3, "x^3+2*x*y*z+y^3+z^3"),
    (3, "x*y-z^2"),
    (4, "x^2+y^2+z^2+w^2+x*y"),
    (2, None),
    (3, None),
]


@st.composite
def primary_ideals(draw):
    """(ring, ideal, n): pure powers of the variables, so that the ideal
    is primary, maybe with one more random form, and a small Frobenius
    exponent."""
    s, f = draw(st.sampled_from(RUN_RELATIONS))
    p, n = draw(st.sampled_from([(2, 0), (3, 0), (5, 0), (2, 1), (3, 1)]))
    R = ring(f"polyring:s={s},p={p}" if f is None else f"hypersurface:s={s},p={p},f={f}")
    # the oracle's pure-Python ranks cost seconds in four variables once an
    # exponent passes 3, so s = 4 draws smaller powers
    most = 4 if n == 0 else 2
    powers = draw(st.lists(st.integers(1, most - (s == 4)), min_size=s, max_size=s))
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
    record = colength(R, ideal, n)
    assert record.total == ref_ideal_colength(R.field.p, R.s, gens)
    # each degree's rank, not only their sum
    want = [ref_graded_piece_dim(R.field.p, R.s, gens, m) for m in range(len(record.dims))]
    assert list(record.dims) == want


def every_degree_record(R, ideal, n):
    """The record of a loop that ranks every degree on its own, through
    the first zero piece."""
    frob = frobenius_power(R, ideal, n)
    dims = []
    for m in range(sum(frob.degrees) + R.d + 2):
        dims.append(R.hilbert_dim(m) - sparse_rank(graded_map_entries(R, frob.generators, m)))
        if not dims[-1]:
            break
    return ColengthRecord.from_dims(R.field.p, n, dims, R.krull_dim)


# ideals other than m, for which the lattice needs x^N or y^N, N the end
# of R/I, once the shift moves x or y
NAMED_IDEALS = ["x^2,y,z", "x,y^2,z^3", "x+y,y^2-x*z,z^3"]


def plane_case(spec, text="maximal", n=1):
    R = ring(spec)
    return R, parse_ideal_spec(R, text), n


@st.composite
def plane_curves(draw):
    """(ring, ideal, n): a plane curve, smooth or not, reduced or not, of
    degree 1..6 over F_p, p <= 13, with n up to 3 at p = 2, up to 2 at p =
    3 and 5 (3 for the maximal ideal at p = 3), else 1, and degree at most
    5 at q = 25 and 3 at q = 27; the ideal is the maximal one, a named
    one, pure powers of the variables, or pure powers and one more form."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    kind = draw(st.sampled_from(["maximal", "named", "powers", "extra"]))
    most = {2: 3, 3: 3 if kind == "maximal" else 2, 5: 2}.get(p, 1)
    n = draw(st.integers(1, most))
    # the loop over every degree ranks 3q + d matrices of up to d(3q + d)
    # rows, so q = 27 keeps to small d
    d = draw(st.integers(1, 6 if p**n < 25 else 5 if p**n == 25 else 3))
    monos = ref_monomials(3, d)
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos), max_size=len(monos)))
    assume(any(coeffs))
    field = PrimeField(p)
    R = HypersurfaceRing(field, 3, Polynomial(field, 3, dict(zip(monos, coeffs))))
    if kind == "maximal":
        return R, maximal(R), n
    if kind == "named":
        return R, parse_ideal_spec(R, draw(st.sampled_from(NAMED_IDEALS))), n
    powers = draw(st.lists(st.integers(1, 3 if n == 1 else 2), min_size=3, max_size=3))
    gens = [
        Polynomial(field, 3, {tuple(e * (j == i) for j in range(3)): 1})
        for i, e in enumerate(powers)
    ]
    if kind == "extra":
        terms = draw(st.lists(st.sampled_from(ref_monomials(3, draw(st.integers(1, 3)))),
                              min_size=1, max_size=3, unique=True))
        gens.append(Polynomial(field, 3, {u: draw(st.integers(1, p - 1)) for u in terms}))
    return R, IdealSpec(gens), n


@settings(max_examples=30, deadline=None)
@given(plane_curves())
@example(plane_case(f"hypersurface:s=3,p=5,f={KLEIN}"))
@example(plane_case("fermat:s=3,d=2,p=7"))
@example(plane_case("hypersurface:s=3,p=2,f=x+y+z", n=2))
# a double line and a line, a sextic, and a curve whose every F_2-point
# has z = 1, which keeps the window loop
@example(plane_case("hypersurface:s=3,p=5,f=x^2*z", n=2))
@example(plane_case("hypersurface:s=3,p=3,f=x^2*z", "x,y^2,z^3", 2))
@example(plane_case("hypersurface:s=3,p=7,f=x^2*z", "x+y,y^2-x*z,z^3"))
@example(plane_case("hypersurface:s=3,p=3,f=x^6+y^6+z^6+x^2*y^2*z^2", "x^2,y,z"))
@example(plane_case("hypersurface:s=3,p=3,f=x^3+y^3+z^3", n=3))
@example(plane_case("hypersurface:s=3,p=2,f=x^2*y+x*y^2", "x,y^2,z^3", 2))
def test_window_matches_ranking_every_degree(case):
    R, ideal, n = case
    q = R.field.p**n
    with pytest.MonkeyPatch.context() as patch:
        built = recording_builds(patch)
        reductions = recording_reductions(patch)
        record = colength(R, ideal, n)
    assert record == every_degree_record(R, ideal, n)
    # the lattice runs wherever the ring has a shift with f(s, t, 1) != 0
    assert len(reductions) == (COLENGTH._NoetherModule.of(R, q) is not None)
    assert len(set(built)) == len(built)  # no degree is built twice
    # the oracle is one pure-Python rank of size q^3: 0.15-0.5 s at q = 9
    if ideal.is_maximal and q <= 8:
        assert record.total == ref_artinian_colength(R.field.p, R.relation.terms, (q, q, q))


@settings(max_examples=30, deadline=None)
@given(plane_curves())
@example(plane_case(f"hypersurface:s=3,p=101,f={KLEIN}"))
@example(plane_case(f"hypersurface:s=3,p=11,f={NODAL_CUBIC}", "x+y,y^2-x*z,z^3"))
# x -> x + z turns x^2 into x^2 + 2xz + z^2, whose terms lie in (x^2) and
# (z), so the lattice has the three generators x^2q, y^q and z^q
@example(plane_case(f"hypersurface:s=3,p=13,f={KLEIN}", "x^2,y,z"))
def test_lattice_degrees_count_sum_and_duality(case):
    # K = ⊕_j A(-c_j) has rank (k-1)·d; the Hilbert series numerator of
    # R/J vanishes to order 2 at 1, so Σ_j c_j = Σ_(i,j) (E_i + j) - Σ_(k<d)
    # k; and with three generators the syzygy bundle V has rank 2, V* =
    # V(Σ E_i), and Serre duality with ω = O(d-3) pairs the c_j
    R, ideal, n = case
    with pytest.MonkeyPatch.context() as patch:
        reductions = recording_reductions(patch)
        colength(R, ideal, n)
    assume(reductions)
    ((shifts, c),) = reductions
    d, k = R.d, len(shifts) // R.d
    assert c == sorted(c) and len(c) == (k - 1) * d
    assert sum(c) == sum(shifts) - d * (d - 1) // 2
    if k == 3:
        total = sum(shifts[::d]) + d - 1
        assert [a + b for a, b in zip(c, reversed(c))] == [total] * (2 * d)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 6),
    st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (61, 1), (101, 1)]),
)
def test_lattice_matches_han_monsky_on_fermat_curves(d, pn):
    # Han–Monsky counts residue classes with no matrix at all, so it is
    # an oracle for the maximal ideal of x^d + y^d + z^d, reduced or not
    p, n = pn
    R = ring(f"fermat:s=3,d={d},p={p}")
    with pytest.MonkeyPatch.context() as patch:
        reductions = recording_reductions(patch)
        record = colength(R, maximal(R), n)
    assert reductions
    assert record == han_monsky_colength(R, maximal(R), n)


@pytest.mark.parametrize(
    "spec, text",
    [
        (f"hypersurface:s=3,p=13,f={KLEIN}", "x,y^2,z^3"),
        ("fermat:s=3,d=6,p=13", "maximal"),
        ("fermat:s=3,d=5,p=11", "x^2,y^2,z^2,x*y+z^2"),
        ("fermat:s=3,d=2,p=13", "x^2,y^2,z^2,x*y+z^2"),
    ],
)
def test_a_start_above_the_window_moves_down_to_the_same_record(monkeypatch, spec, text):
    R = ring(spec)
    ideal = parse_ideal_spec(R, text)
    refusing_the_lattice(monkeypatch)
    built = recording_builds(monkeypatch)
    # the start is the last degree with more rows than columns, whose
    # piece has h0 > 0 on these inputs
    assert colength(R, ideal, 1) == every_degree_record(R, ideal, 1)
    degrees = frobenius_power(R, ideal, 1).degrees
    wide = [m for m in range(sum(degrees) + R.d + 2) if COLENGTH._free_part(R, degrees, m) > 0]
    assert built[0] == wide[-1]
    assert built[1] < built[0]  # the start moved down
    assert len(set(built)) == len(built)  # and no degree was built twice


@pytest.mark.parametrize(
    "spec, total, most",
    [(f"hypersurface:s=3,p=101,f={KLEIN}", 30603, 5), ("fermat:s=3,d=2,p=61", 5581, 2)],
)
def test_window_builds_at_most_two_flanks_and_the_gap(monkeypatch, spec, total, most):
    # on the window loop, 2(d-3) + 3 degrees: 5 on the Klein quartic
    # (150..154 at p = 101), and 2 on the conic (90, 91 at p = 61), where
    # every degree from q on was built before
    R = ring(spec)
    refusing_the_lattice(monkeypatch)
    built = recording_builds(monkeypatch)
    assert colength(R, maximal(R), 1).total == total
    assert 0 < len(built) <= most


def test_window_search_stops_at_the_last_degree_without_syzygies(monkeypatch):
    # The nodal cubic at p = 101: the walk starts at U = 151, the last
    # degree with more rows than columns, and moves down to 120, well
    # below L0 = 135, the last degree with h0 = 0; the first zero piece is
    # E = 168.  A bisection between 120 and 136 finds L0, so about
    # log2(U - e_min + 2) + 1 degrees up to L0 are built, not every one,
    # when the window loop runs
    R = ring(f"hypersurface:s=3,p=101,f={NODAL_CUBIC}")
    expected = every_degree_record(R, maximal(R), 1)
    refusing_the_lattice(monkeypatch)
    built = recording_builds(monkeypatch)
    assert colength(R, maximal(R), 1) == expected
    degrees = (101, 101, 101)
    free = [COLENGTH._free_part(R, degrees, m) for m in range(len(expected.dims))]
    zero_h0 = [m for m, (dim, part) in enumerate(zip(expected.dims, free)) if dim == part]
    u = max(m for m, part in enumerate(free) if part > 0)
    l0 = max(m for m in zero_h0 if m <= u)
    assert (l0, u, len(expected.dims) - 1) == (135, 151, 168)
    assert len([m for m in built if m <= l0]) <= math.ceil(math.log2(u - 101 + 2)) + 1 == 7
    assert len(set(built)) == len(built)  # no degree is built twice


# the product of the 7 lines of P^2(F_2): every F_2-linear form is a zero
# divisor on R, though a linear form over the algebraic closure is not
SEVEN_LINES = "x^4*y^2*z+x^4*y*z^2+x^2*y*z^4+x^2*y^4*z+x*y^4*z^2+x*y^2*z^4"


@pytest.mark.parametrize(
    "spec, n, total, window",
    [
        (f"hypersurface:s=3,p=13,f={NODAL_CUBIC}", 1, 389, False),
        ("hypersurface:s=3,p=13,f=x^2*y^2+y^2*z^2+z^2*x^2", 1, 505, False),
        ("hypersurface:s=4,p=7,f=x^4+y^4+z^4+w^4+x*y*z*w", 1, 891, True),
        ("hypersurface:s=2,p=7,f=x^3+y^3", 1, 19, True),
        (f"hypersurface:s=3,p=2,f={SEVEN_LINES}", 1, 8, True),
        (f"hypersurface:s=3,p=2,f={SEVEN_LINES}", 2, 64, True),
        ("hypersurface:s=3,p=2,f=x^2*y+x*y^2", 2, 40, True),
    ],
    ids=[
        NODAL_CUBIC,
        "x^2*y^2+y^2*z^2+z^2*x^2",
        "s=4:x^4+y^4+z^4+w^4+x*y*z*w",
        "s=2:x^3+y^3",
        "seven-lines-n=1",
        "seven-lines-n=2",
        "x^2*y+x*y^2-n=2",
    ],
)
def test_singular_curves_and_other_rings_take_the_window(monkeypatch, spec, n, total, window):
    # Singular plane curves take the lattice.  Rings that are not plane
    # curves, and plane curves with f(s, t, 1) = 0 on all of F_p^2, such
    # as x^2*y+x*y^2 (st(s+t) over F_2), keep the window loop
    windows = []
    below = COLENGTH._below_window
    monkeypatch.setattr(
        COLENGTH, "_below_window", lambda *args: windows.append(args) or below(*args)
    )
    reductions = recording_reductions(monkeypatch)
    R = ring(spec)
    record = colength(R, maximal(R), n)
    assert (bool(windows), bool(reductions)) == (window, not window)
    assert record == every_degree_record(R, maximal(R), n)
    assert record.total == total


def test_colength_takes_no_smoothness_rank(monkeypatch):
    def no_geometry(*args):
        raise AssertionError("colength checked smoothness")

    monkeypatch.setattr(CURVES, "curve_geometry", no_geometry)
    for f in (KLEIN, NODAL_CUBIC):
        R = ring(f"hypersurface:s=3,p=13,f={f}")
        for text in ("maximal", "x,y^2,z^3"):
            colength(R, parse_ideal_spec(R, text), 1)


def test_window_curve_with_a_non_primary_ideal_raises(monkeypatch):
    # x*y and x*z vanish together on the four points of x = 0; the
    # lattice learns it from the record of R/I, which the window loop ranks
    R = ring(f"hypersurface:s=3,p=11,f={KLEIN}")
    windows = []
    below = COLENGTH._below_window
    monkeypatch.setattr(
        COLENGTH, "_below_window", lambda *args: windows.append(args) or below(*args)
    )
    with pytest.raises(NotPrimaryError):
        colength(R, parse_ideal_spec(R, "x*y,x*z"), 1)
    assert windows
    # a record with no end runs past every degree, so with a cap the first
    # degree that trips raises, here one above the generator degree 22
    trips = (SizeGuardError.for_degree(R, (22, 22), m, 100) for m in range(100))
    want = next(t for t in trips if t is not None)
    with pytest.raises(SizeGuardError) as info:
        colength(R, parse_ideal_spec(R, "x*y,x*z"), 1, max_dim=100)
    assert (info.value.m, info.value.rows, info.value.cols) == (want.m, want.rows, want.cols) == (26, 102, 28)


@st.composite
def plane_curves_for_noether(draw):
    """(ring, n): a plane curve, smooth or not, of degree 2..5 over F_p,
    p <= 13, with n = 2 only at p <= 5; half of them pass through (0:0:1),
    where the maximal ideal's builder has to shift."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.sampled_from([1, 2])) if p <= 5 else 1
    d = draw(st.integers(2, 5))
    monos = ref_monomials(3, d)
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos), max_size=len(monos)))
    if draw(st.booleans()):
        coeffs[monos.index((0, 0, d))] = 0
    assume(any(coeffs))
    field = PrimeField(p)
    return HypersurfaceRing(field, 3, Polynomial(field, 3, dict(zip(monos, coeffs)))), n


@settings(max_examples=25, deadline=None)
@given(plane_curves_for_noether())
@example((ring("hypersurface:s=3,p=2,f=x^3+y^2*z+x*z^2+y*z^2"), 3))
# at q = 2 every piece from degree 4 on is zero, far below the degree of f;
# the second curve needs a shift
@example((ring("hypersurface:s=3,p=2,f=x^17+y^17+z^17+x*y^16"), 1))
@example((ring("hypersurface:s=3,p=2,f=x^16*y+y^16*z+z^16*x"), 1))
def test_maximal_ideal_by_noether_normalization_matches_every_degree(case):
    R, n = case
    q = R.field.p**n
    record = colength(R, maximal(R), n)
    # the builder needs no normal form; a ring where f(s, t, 1) = 0 on all
    # of F_p^2 keeps the generic builder, which fills the memo
    assert (not R._nf_memo) == (COLENGTH._NoetherModule.of(R, q) is not None)
    assert record == every_degree_record(R, maximal(R), n)
    # the oracle is one pure-Python rank of size q^3, which fills in on a
    # dense f: 0.1 s at q = 7, 2-4 s at q = 11 and 9-11 s at q = 13
    if q <= 7:
        assert record.total == ref_artinian_colength(R.field.p, R.relation.terms, (q, q, q))


@pytest.mark.parametrize("f, p, total", [(KLEIN, 13, 505), ("x^4*y+y^4*z+z^4*x+x^5", 11, 445)])
def test_maximal_ideal_by_noether_normalization_matches_the_artinian_oracle(f, p, total):
    # q^3 up to about 3000, on sparse curves through (0:0:1), where the
    # oracle's rank stays cheap (1.6 s and 1.1 s)
    R = ring(f"hypersurface:s=3,p={p},f={f}")
    assert colength(R, maximal(R), 1).total == total
    assert not R._nf_memo
    assert ref_artinian_colength(p, R.relation.terms, (p, p, p)) == total


def test_noether_shift_is_the_first_with_f_nonzero_at_it():
    # x^2+y^2+z^2 is monic in z already: z^2 = -x^2 - y^2
    conic = COLENGTH._NoetherModule.of(ring("fermat:s=3,d=2,p=61"), 61)
    assert [c.tolist() for c in conic.tail] == [[60, 0, 60], [0, 0]]
    # the Klein quartic vanishes at (0:0:1), so x -> x + z:
    # z^4 = -x^3*y - (3x^2*y + y^3)*z - 3xy*z^2 - (x + y)*z^3
    klein = COLENGTH._NoetherModule.of(ring(f"hypersurface:s=3,p=101,f={KLEIN}"), 101)
    assert [c.tolist() for c in klein.tail] == [[0, 100, 0, 0, 0], [0, 98, 0, 100], [0, 98, 0], [100, 100]]
    # every F_2-point with z = 1 lies on this smooth cubic
    assert COLENGTH._NoetherModule.of(ring("hypersurface:s=3,p=2,f=x^3+y^2*z+x*z^2+y*z^2"), 2) is None


@pytest.mark.parametrize("q", [2, 3, 5])
def test_noether_builder_stops_at_the_int64_convolution_bound(q):
    # np.convolve sums at most q products of at most (p-1)^2: below 2^63 on
    # the largest prime that keeps it there, where z^q is exact, and at or
    # above on the next prime, which keeps the generic builder (q = 1 is
    # PrimeField's own bound)
    limit = math.isqrt(((1 << 63) - 1) // q)  # largest p - 1 below the bound
    below = next(p for p in range(limit + 1, 1, -1) if is_prime(p))
    above = next(p for p in range(limit + 2, 2 * limit) if is_prime(p))
    assert q * (below - 1) ** 2 < 1 << 63 <= q * (above - 1) ** 2
    # f(0, 0, 1) = 1: z^3 = p-1 times x^3 + x^2*y + x*y^2 + y^3
    f = "x^3+x^2*y+x*y^2+y^3+z^3"
    module = COLENGTH._NoetherModule.of(ring(f"hypersurface:s=3,p={below},f={f}"), q)
    tail = [[below - 1] * 4, [0] * 3, [0] * 2]
    assert [c.tolist() for c in module.tail] == tail
    # the residues of z^q, z^(q+1), z^(q+2) in Python integers, each row
    # k a binary form, entry b at y^b, with y^b = 0 for b >= q
    want, power = [], [[1], [], []]
    for e in range(q + 3):
        if e >= q:
            want.append([(row + [0] * q)[:q] for row in power])
        # times z: the z^2 row moves up to z^3 and comes back as its tail
        top = power[2]
        power = [[0] * (len(top) + 3), list(power[0]), list(power[1])]
        for i, a in enumerate(top):
            for b, c in enumerate(tail[0]):
                power[0][i + b] = (power[0][i + b] + a * c) % below
        power = [[v % below for v in row[:q]] for row in power]
    assert [module.power(e).tolist() for e in range(q, q + 3)] == want
    assert COLENGTH._NoetherModule.of(ring(f"hypersurface:s=3,p={above},f={f}"), q) is None


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
