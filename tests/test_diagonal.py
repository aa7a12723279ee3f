import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hklab.cli import main
from hklab.colength import (
    ColengthRecord,
    IdealSpec,
    SizeGuardError,
    colength,
    parse_ideal_spec,
)
from hklab.diagonal import (
    DiagonalLimits,
    DiagonalSpec,
    _hilbert_burch,
    _residue_dims,
    _syzygy_degree,
    _truncation_hilbert,
    d_char0,
    d_f,
    diagonal_limits,
    diagonal_ring,
    g_lambda,
    g_value,
    han_monsky_applies,
    han_monsky_colength,
    sandwich_check,
)
from hklab.fp_linalg import PrimeField, is_prime
from hklab.graded import HypersurfaceRing, Polynomial, parse_ring_spec
from hklab.limits import normalized_colength
from hklab.store import cached_colength

from oracles import power_of_sum, ref_graded_piece_dim, ref_truncation_dim

HALF = Fraction(1, 2)


# ------------------------------------------------------------------- d_f


def test_two_variable_rule_sample():
    for p in (5, 7, 11):
        for a, b in [(1, 1), (2, 5), (5, 2), (4, 4), (8, 3), (7, 8)]:
            assert d_f(p, a, b) == min(a, b)


def test_cube_example():
    # (x+y)^3 = 3x^2y + 3xy^2 in F_7[x,y]/(x^3,y^3): rank-2 image
    assert d_f(7, 3, 3, 3) == 7


def test_square_example():
    assert d_f(5, 2, 2, 2) == 3


def test_char_divides_power_collapse():
    # (x+y)^3 vanishes identically mod 3, so nothing is killed
    assert d_f(3, 3, 3, 3) == 9


def test_symmetric_in_all_slots():
    rng = random.Random(11)
    for p in (7, 11):
        for _ in range(6):
            ks = tuple(rng.randint(1, 5) for _ in range(rng.choice((3, 4))))
            vals = {d_f(p, *perm) for perm in itertools.permutations(ks)}
            assert len(vals) == 1, (p, ks, vals)


def test_monotone_in_each_slot():
    base = (2, 3, 4)
    for i in range(3):
        grown = tuple(k + 1 if j == i else k for j, k in enumerate(base))
        assert d_f(7, *grown) >= d_f(7, *base)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(1, 8),
)
def test_d_f_matches_reference_truncation_dim(p, caps, k):
    assert d_f(p, *caps, k) == ref_truncation_dim(p, caps, k)


# Largest exponent drawn for each argument count s, which keeps the
# reference (s-1 variables) fast.
TRUNCATION_CAPS = {2: 12, 3: 12, 4: 4, 5: 3}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(2, 5).flatmap(lambda s: st.tuples(*[st.integers(1, TRUNCATION_CAPS[s])] * s)),
    st.integers(0, 24),
)
@example(7, (2, 3, 9), 12)  # (x+y)^9 lies in (x^2, y^3)
@example(5, (3, 4, 6), 24)  # c = a + b - 1
@example(3, (1, 7, 5), 8)
@example(11, (9, 10, 12), 3)  # top below j* = 15
@example(5, (3, 3, 3, 3), 1)  # top below the string [2, 1] of [0,3] ⊗ [0,3]
def test_truncation_hilbert_matches_reference_pieces(p, ks, top):
    # the fold against F_p[x_1..x_{s-1}]/(x_i^{k_i}, (x_1+..+x_{s-1})^{k_s})
    *caps, k = ks
    r = len(caps)
    gens = [(c, {tuple(c * (j == i) for j in range(r)): 1}) for i, c in enumerate(caps)]
    gens.append((k, power_of_sum(r, k, p)))
    box_top = sum(sorted(ks)[:-1]) - r
    dims = _truncation_hilbert(p, ks, top)
    assert len(dims) == min(top, box_top) + 1
    # a zero piece stays zero in every higher degree
    for j in range(min(top, box_top + 1) + 1):
        expected = ref_graded_piece_dim(p, r, gens, j)
        assert (dims[j] if j < len(dims) else 0) == expected, (j, dims)


@st.composite
def syzygy_triples(draw):
    """(p, a, b, c), a <= b <= c, whose u reaches degree j* (see below)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    a, b, c = sorted(draw(st.lists(st.integers(1, 30), min_size=3, max_size=3)))
    assume((a + b + c + 1) // 2 - 1 >= min(c, a + b))
    return p, a, b, c


@settings(max_examples=60, deadline=None)
@given(syzygy_triples())
@example((2, 8, 8, 8))  # delta = 8 from q = 8
@example((3, 9, 9, 9))  # delta = 9 from q = 9
@example((2, 5, 5, 8))  # delta = 2 from q = 8
@example((3, 10, 19, 27))  # delta = 2 from q = 27
@example((2, 17, 19, 30))  # delta = 2 from q = 32
@example((3, 6, 7, 8))  # delta = 3 from q = 9
def test_syzygy_degree_matches_reference_piece(triple):
    # u enters H only in degrees >= min(c, a+b); at j* = ceil((a+b+c)/2) - 1
    # it is the one syzygy ramp that is not zero, so H(j*) pins u
    p, a, b, c = triple
    j = (a + b + c + 1) // 2 - 1
    gens = [(a, {(a, 0): 1}), (b, {(0, b): 1}), (c, power_of_sum(2, c, p))]
    assert _hilbert_burch(p, a, b, c, j)[j] == ref_graded_piece_dim(p, 2, gens, j)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.lists(st.integers(1, 12), min_size=3, max_size=3),
    st.integers(0, 24),
)
@example(7, [9, 2, 3], 12)  # sorted, c >= a + b: (x+y)^9 lies in (x^2, y^3)
@example(11, [12, 9, 10], 8)  # sorted, every degree is below min(c, a+b)
@example(2, [8, 8, 8], 12)  # delta = 8 from q = 8
@example(3, [7, 8, 6], 10)  # delta = 3 from q = 9
def test_hilbert_burch_matches_reference_pieces_in_any_order(p, exponents, top):
    # a linear change of coordinates moves any three pairwise independent
    # linear forms to x, y and x+y up to scalars, so H does not depend on
    # the order of (a, b, c); the reference takes the order as drawn
    a, b, c = exponents
    gens = [(a, {(a, 0): 1}), (b, {(0, b): 1}), (c, power_of_sum(2, c, p))]
    expected = [ref_graded_piece_dim(p, 2, gens, j) for j in range(top + 1)]
    assert _hilbert_burch(p, a, b, c, top) == tuple(expected)


def test_d_f_input_validation():
    with pytest.raises(ValueError):
        d_f(7, 3)
    with pytest.raises(ValueError):
        d_f(7, 3, 0)


# ---------------------------------------------------------------- d_char0


def test_char0_two_variables():
    assert d_char0(5, 9) == 5
    assert d_char0(9, 5) == 5


def test_char0_cube():
    assert d_char0(3, 3, 3) == 7


@pytest.mark.parametrize("N", range(1, 9))
def test_char0_equal_cubes_density(N):
    assert d_char0(N, N, N) == -(-3 * N * N // 4)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=4))
def test_char0_matches_d_f_above_every_block_size(ks):
    # each fold V_a (x) V_b has a + b - 1 <= sum(ks) < p, and below p the
    # Jordan type of a tensor product of two blocks is Clebsch-Gordan's
    p = sum(ks) + 1
    while not is_prime(p):
        p += 1
    assert d_char0(*ks) == d_f(p, *ks)


# ------------------------------------------------------------------ g sums


def test_g_lambda_unit_cube_center():
    assert g_lambda((1, 1, 1), 0) == 6


def test_g_lambda_five_halves():
    xs = [HALF] * 5
    assert g_lambda(xs, 1) == Fraction(1, 16)
    assert g_lambda(xs, 2) == 0
    assert g_lambda(xs, -2) == 0


def test_g_lambda_full_support_annihilates():
    # once every sign vector participates, the signed power sum telescopes
    # to zero
    rng = random.Random(5)
    for _ in range(8):
        xs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
        lam = -int(sum(xs) // 2) - 1
        assert g_lambda(xs, lam) == 0


def test_g_lambda_vanishes_above_support():
    rng = random.Random(6)
    for _ in range(8):
        xs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)]
        lam = int(sum(xs) // 2) + 1
        assert g_lambda(xs, lam) == 0


def test_g_value_unit_cube():
    gv = g_value((1, 1, 1))
    assert gv.prefactor == Fraction(1, 8)
    assert gv.lambda_terms == {-1: 1, 0: 6, 1: 1}
    assert gv.total == 1


def test_g_value_three_halves():
    gv = g_value([HALF, HALF, HALF])
    assert gv.lambda_terms[0] == Fraction(3, 2)
    assert gv.total == Fraction(3, 16)


def test_g_value_permutation_invariant():
    xs = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), 1]
    totals = {g_value(perm).total for perm in itertools.permutations(xs)}
    assert len(totals) == 1


def test_g_value_json_shape(tmp_path):
    # the g object of gm.json is laid out by the gm command in cli.py
    assert main(["gm", "--d", "1,1,1", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "gm.json", encoding="utf-8") as fh:
        d = json.load(fh)["g"]
    assert d["prefactor"] == "1/8"
    assert d["total"] == "1/1"
    assert d["lambda_terms"] == {"-1": "1/1", "0": "6/1", "1": "1/1"}


# ------------------------------------------------------------------- limits


def test_limits_regular_ring():
    assert diagonal_limits(DiagonalSpec((1, 1, 1))) == DiagonalLimits(
        Fraction(1), Fraction(3, 4)
    )


def test_limits_quadric():
    assert diagonal_limits(DiagonalSpec((2, 2, 2))) == DiagonalLimits(
        Fraction(3, 2), Fraction(3, 2)
    )


def test_limits_quartic_four_vars():
    got = diagonal_limits(DiagonalSpec((4, 4, 4, 4)))
    assert got.e_hk_infinity == Fraction(8, 3)


def test_limits_plane_pair():
    assert diagonal_limits(DiagonalSpec((2, 2))).e_hk_infinity == 2


def test_spec_validation():
    with pytest.raises(ValueError):
        DiagonalSpec((3,))
    with pytest.raises(ValueError):
        DiagonalSpec((2, 0))


# ----------------------------------------------------------------- sandwich


def test_sandwich_quadric_surface_p5():
    rep = sandwich_check(DiagonalSpec((2, 2, 2)), 5, 1)
    assert (rep.lower, rep.value, rep.upper) == (
        Fraction(24, 25),
        Fraction(37, 25),
        Fraction(56, 25),
    )
    assert rep.gap == Fraction(32, 25)
    assert rep.gap_p == Fraction(32, 5)


def test_sandwich_quadric_surface_deeper_power():
    rep = sandwich_check(DiagonalSpec((2, 2, 2)), 5, 2)
    assert rep.value == Fraction(937, 625)
    assert rep.lower == Fraction(24, 25) and rep.upper == Fraction(56, 25)


def test_sandwich_gap_shrinks_with_p():
    gaps = [
        sandwich_check(DiagonalSpec((2, 2, 2)), p, 1).gap for p in (5, 7, 13)
    ]
    assert gaps[0] > gaps[1] > gaps[2]


def test_sandwich_four_variables():
    rep = sandwich_check(DiagonalSpec((2, 2, 2, 2)), 3, 1)
    assert (rep.lower, rep.value, rep.upper) == (
        Fraction(16, 27),
        Fraction(35, 27),
        Fraction(32, 9),
    )


def test_sandwich_regular_ring_hits_lower_bound():
    rep = sandwich_check(DiagonalSpec((1, 1, 1)), 3, 1)
    assert rep.lower == rep.value == 1
    assert rep.upper == Fraction(4, 3)


def test_sandwich_plane_pair():
    rep = sandwich_check(DiagonalSpec((2, 2)), 5, 1)
    assert (rep.lower, rep.value, rep.upper) == (
        Fraction(8, 5),
        Fraction(9, 5),
        Fraction(12, 5),
    )


def test_sandwich_needs_equal_exponents():
    with pytest.raises(ValueError, match="equal"):
        sandwich_check(DiagonalSpec((2, 3, 2)), 5, 1)
    with pytest.raises(ValueError):
        sandwich_check(DiagonalSpec((2, 2, 2)), 5, 0)


def test_diagonal_ring_shape():
    ring = diagonal_ring(DiagonalSpec((4, 4, 4)), 7)
    assert ring.krull_dim == 2
    assert str(ring.relation) == "x^4+y^4+z^4"


# ------------------------------------------------------- Han-Monsky path

# Largest q^(s-1)*d drawn, which keeps the generic engine fast.
HM_SIZE = 1500


def _unit(s, i, e=1):
    return tuple(e if j == i else 0 for j in range(s))


def _outcome(compute):
    """The record, or the error with the fields both paths must agree on."""
    try:
        return compute()
    except SizeGuardError as exc:
        return ("size guard", exc.m, exc.rows, exc.cols, exc.cap)
    except ValueError as exc:
        return repr(exc)


@st.composite
def diagonal_cases(draw):
    """A relation sum c_i x_i^d with random nonzero c_i, the maximal ideal
    as scaled variables in random order, a Frobenius exponent and a cap."""
    s = draw(st.integers(2, 4))
    d = draw(st.integers(1, 4))
    p, n = draw(
        st.sampled_from(
            [(p, n) for p in (2, 3, 5, 7) for n in (1, 2) if p ** (n * (s - 1)) * d <= HM_SIZE]
        )
    )
    field = PrimeField(p)
    coeffs = draw(st.lists(st.integers(1, p - 1), min_size=2 * s, max_size=2 * s))
    relation = Polynomial(field, s, {_unit(s, i, d): coeffs[i] for i in range(s)})
    order = draw(st.permutations(range(s)))
    ideal = IdealSpec(
        [Polynomial(field, s, {_unit(s, i): coeffs[s + i]}) for i in order]
    )
    ring = HypersurfaceRing(field, s, relation)
    widest = max(ring.hilbert_dim(m) for m in range(s * p**n + 2))
    cap = draw(st.integers(0, widest + 1))
    return ring, ideal, n, cap


def _fermat_case(s, d, p, n, cap):
    ring = diagonal_ring(DiagonalSpec((d,) * s), p)
    return ring, IdealSpec.maximal_ideal(ring), n, cap


def _generic(ring, ideal, n, cap=None):
    return colength(ring, ideal, n, max_dim=cap)


@settings(max_examples=80, deadline=None)
@given(diagonal_cases())
# q < d: blocks with k_i <= 0 drop out
@example(_fermat_case(3, 4, 3, 1, 10))
@example(_fermat_case(2, 3, 2, 1, 3))
@example(_fermat_case(4, 4, 2, 2, 30))
# a cap that trips at degree 0 asks the fold for no degree
@example(_fermat_case(3, 1, 2, 1, 0))
def test_han_monsky_matches_generic_engine(case):
    ring, ideal, n, cap = case
    assert han_monsky_applies(ring, ideal)
    assert han_monsky_colength(ring, ideal, n) == _generic(ring, ideal, n)
    assert _outcome(lambda: han_monsky_colength(ring, ideal, n, cap)) == _outcome(
        lambda: _generic(ring, ideal, n, cap)
    )


def test_bisected_guard_matches_linear_scan():
    # every cap from one that trips at m = 0 to one that never trips: the
    # first degree that trips comes from a scan over 0..last+1, and the
    # record is served when its zero piece lies below it
    ring = parse_ring_spec("fermat:s=3,d=4,p=7")
    ideal = IdealSpec.maximal_ideal(ring)
    record = han_monsky_colength(ring, ideal, 1)
    last = 3 * (7 - 1)
    firsts = set()
    for cap in range(140):
        trips = [
            SizeGuardError.for_degree(ring, (7, 7, 7), m, cap) for m in range(last + 2)
        ]
        trip = next((t for t in trips if t is not None), None)
        firsts.add(None if trip is None else trip.m)
        if trip is None or len(record.dims) - 1 < trip.m:
            expected = record
        else:
            expected = ("size guard", trip.m, trip.rows, trip.cols, cap)
        assert _outcome(lambda: han_monsky_colength(ring, ideal, 1, cap)) == expected
    assert {0, last - 1, last, last + 1, None} <= firsts


def test_guard_below_the_rank_free_range_ranks_nothing():
    # q = 10201 trips at degree 1251; every Hilbert-Burch triple there asks
    # only for degrees below min(c, a+b), and none of them needs a rank
    ring = parse_ring_spec("fermat:s=3,d=4,p=101")
    with pytest.raises(SizeGuardError) as info:
        cached_colength(None, ring, IdealSpec.maximal_ideal(ring), 2, max_dim=5000)
    assert info.value.m == 1251


def test_guarded_fold_ranks_only_the_degrees_it_reads(monkeypatch):
    # q = 10201 on chang-quartic trips at degree 50, so the fold reads the
    # degrees <= 12 of each block: no Hilbert-Burch triple needs c > 13,
    # where folding the full pair types of k ~ 2550 ranked thousands
    syzygy_degree = _syzygy_degree

    def small_only(p, a, b, c):
        if c > 64:
            raise AssertionError(f"ranked the triple {(a, b, c)}")
        return syzygy_degree(p, a, b, c)

    monkeypatch.setattr("hklab.diagonal._syzygy_degree", small_only)
    ring = parse_ring_spec("fermat:s=4,d=4,p=101")
    with pytest.raises(SizeGuardError) as info:
        cached_colength(None, ring, IdealSpec.maximal_ideal(ring), 2, max_dim=5000)
    assert (info.value.m, info.value.rows, info.value.cols) == (50, 5002, 0)


def test_han_monsky_chang_quartic_p101():
    # frozen from the per-degree block loop that the Jordan-type fold
    # replaced; that loop took seconds for this record
    ring = parse_ring_spec("fermat:s=4,d=4,p=101")
    record = han_monsky_colength(ring, IdealSpec.maximal_ideal(ring), 1, 100_000_000)
    assert record.total == 2747651


@pytest.mark.parametrize("p, n, total", [(5, 2, 43017), (7, 2, 321097), (3, 3, 60561)])
def test_han_monsky_chang_quartic_higher_frobenius_powers(p, n, total):
    # frozen from the one-rank syzygy degree that Han's theorem replaced:
    # at q = p^n these records read triples whose gap comes from p or p^2
    ring = parse_ring_spec(f"fermat:s=4,d=4,p={p}")
    record = han_monsky_colength(ring, IdealSpec.maximal_ideal(ring), n, 100_000_000)
    assert record.total == total


def test_han_monsky_dispatch_shapes():
    chang = parse_ring_spec("fermat:s=4,d=4,p=7")
    cases = [
        (chang, "maximal", True),
        (chang, "w,3*z,y,x", True),
        (chang, "x,y,z,w^2", False),
        (chang, "x,y,z,w,w", False),
        (chang, "x,y,z,w+x", False),
        # multi-term generators whose terms still read as the s unit vectors
        (chang, "x+y,z,w", False),
        (chang, "x+y,z+w", False),
        (parse_ring_spec("hypersurface:s=4,p=7,f=x^4+y^4+z^4+w^4+x*y*z*w"), "maximal", False),
        (parse_ring_spec("hypersurface:s=4,p=7,f=x^4+y^4+z^4"), "maximal", False),
        (parse_ring_spec("hypersurface:s=2,p=7,f=x^2+3*y^2"), "maximal", True),
        (parse_ring_spec("hypersurface:s=2,p=7,f=x^2+3*y^2"), "x+y", False),
        (parse_ring_spec("fermat:s=1,d=3,p=7"), "maximal", False),
        (parse_ring_spec("polyring:s=3,p=7"), "maximal", False),
    ]
    for ring, text, applies in cases:
        ideal = parse_ideal_spec(ring, text)
        assert han_monsky_applies(ring, ideal) == applies, (ring, text)
        if not applies:
            with pytest.raises(ValueError):
                han_monsky_colength(ring, ideal, 1)
        # both paths of cached_colength end as the generic engine does
        # (F_7[x]/(x^3) fails: x^7 lies in the relation ideal)
        assert _outcome(lambda: cached_colength(None, ring, ideal, 1)) == _outcome(
            lambda: _generic(ring, ideal, 1)
        ), (ring, text)


# Largest q^(s-1)*d drawn for arbitrary relations and ideals, whose
# colengths grow with the generator degrees too.
DISPATCH_SIZE = 200


@st.composite
def relation_cases(draw):
    """A relation with 2-5 random terms of one degree, or sum c_i x_i^d; an
    ideal of pure powers (maybe with one more monomial), of scaled
    variables, or of random linear forms; a Frobenius exponent and a cap."""
    s = draw(st.integers(2, 3))
    d = draw(st.integers(1, 3))
    p, n = draw(
        st.sampled_from(
            [
                (p, n)
                for p in (2, 3, 5)
                for n in (0, 1, 2)
                if p ** (n * (s - 1)) * d <= DISPATCH_SIZE
            ]
        )
    )
    field = PrimeField(p)
    coefficient = st.integers(1, p - 1)
    if draw(st.booleans()):
        monos = [m for m in itertools.product(range(d + 1), repeat=s) if sum(m) == d]
        most = min(5, len(monos))
        terms = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=most, unique=True))
    else:
        terms = [_unit(s, i, d) for i in range(s)]
    ring = HypersurfaceRing(field, s, Polynomial(field, s, {m: draw(coefficient) for m in terms}))
    kind = draw(st.sampled_from(("variables", "monomial", "linear")))
    if kind == "variables":
        gens = [Polynomial(field, s, {_unit(s, i): draw(coefficient)}) for i in range(s)]
    elif kind == "monomial":
        powers = draw(st.lists(st.integers(1, 2), min_size=s, max_size=s))
        gens = [Polynomial(field, s, {_unit(s, i, e): 1}) for i, e in enumerate(powers)]
        if draw(st.booleans()):
            extra = draw(st.lists(st.integers(0, 1), min_size=s, max_size=s).filter(any))
            gens.append(Polynomial(field, s, {tuple(extra): 1}))
    else:
        row = st.lists(st.integers(0, p - 1), min_size=s, max_size=s).filter(any)
        rows = draw(st.lists(row, min_size=s - 1, max_size=s))
        gens = [Polynomial(field, s, {_unit(s, i): c for i, c in enumerate(r) if c}) for r in rows]
    ideal = IdealSpec(gens)
    widest = max(ring.hilbert_dim(m) for m in range(2 * s * p**n + d + 2))
    cap = draw(st.one_of(st.none(), st.integers(0, widest + 1)))
    return ring, ideal, n, cap


@settings(max_examples=80, deadline=None)
@given(relation_cases())
def test_cached_colength_dispatch_matches_generic_engine(case):
    ring, ideal, n, cap = case
    outcome = _outcome(lambda: cached_colength(None, ring, ideal, n, cap))
    assert outcome == _outcome(lambda: colength(ring, ideal, n, cap))
    if isinstance(outcome, ColengthRecord):
        assert normalized_colength(ring, ideal, n) == outcome.normalized


def _residue_dims_per_tuple(p, s, d, q, first):
    """``_residue_dims`` one residue tuple r in [0, d)^s at a time."""
    dims = [0] * first
    memo = {}
    for r in itertools.product(range(d), repeat=s):
        ks = tuple(sorted(-((r_i - q) // d) for r_i in r))
        if ks[0] <= 0:
            continue
        if ks not in memo:
            memo[ks] = _truncation_hilbert(p, ks, (first - 1) // d)
        for m, dim in zip(range(sum(r), first, d), memo[ks]):
            dims[m] += dim
    return dims


PRIME_POWERS = [(p, p**n) for p in range(2, 50) if is_prime(p) for n in range(6) if p**n <= 50]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.sampled_from(PRIME_POWERS), st.data())
@example(5, 6, (7, 49), None)
@example(4, 4, (2, 1), None)
def test_residue_classes_count_like_one_tuple_at_a_time(s, d, pq, data):
    p, q = pq
    # every degree through A's zero piece, or a guarded prefix
    first = s * (q - 1) + 2 if data is None else data.draw(st.integers(1, s * (q - 1) + 2))
    assert _residue_dims(p, s, d, q, first) == _residue_dims_per_tuple(p, s, d, q, first)
