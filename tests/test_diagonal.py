import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
    ideal = IdealSpec.from_polynomials(
        [Polynomial.monomial(field, s, _unit(s, i), coeffs[s + i]) for i in order]
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
def test_han_monsky_matches_generic_engine(case):
    ring, ideal, n, cap = case
    assert han_monsky_applies(ring, ideal)
    assert han_monsky_colength(ring, ideal, n) == _generic(ring, ideal, n)
    assert _outcome(lambda: han_monsky_colength(ring, ideal, n, cap)) == _outcome(
        lambda: _generic(ring, ideal, n, cap)
    )


def test_han_monsky_chang_quartic_p101():
    # frozen from the per-degree block loop that the Jordan-type fold
    # replaced; that loop took seconds for this record
    ring = parse_ring_spec("fermat:s=4,d=4,p=101")
    record = han_monsky_colength(ring, IdealSpec.maximal_ideal(ring), 1, 100_000_000)
    assert record.total == 2747651


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
        gens = [Polynomial.monomial(field, s, _unit(s, i), draw(coefficient)) for i in range(s)]
    elif kind == "monomial":
        powers = draw(st.lists(st.integers(1, 2), min_size=s, max_size=s))
        gens = [Polynomial.monomial(field, s, _unit(s, i, e)) for i, e in enumerate(powers)]
        if draw(st.booleans()):
            extra = draw(st.lists(st.integers(0, 1), min_size=s, max_size=s).filter(any))
            gens.append(Polynomial.monomial(field, s, tuple(extra)))
    else:
        row = st.lists(st.integers(0, p - 1), min_size=s, max_size=s).filter(any)
        rows = draw(st.lists(row, min_size=s - 1, max_size=s))
        gens = [Polynomial(field, s, {_unit(s, i): c for i, c in enumerate(r) if c}) for r in rows]
    ideal = IdealSpec.from_polynomials(gens)
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
