import importlib
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hklab.fp_linalg import PrimeField, rank_mod_p
from hklab.graded import (
    HypersurfaceRing,
    Polynomial,
    SpecParseError,
    graded_map_matrix,
    grevlex_key,
    parse_polynomial,
    parse_ring_spec,
)

from oracles import (
    ref_graded_piece_dim,
    ref_grevlex_key,
    ref_monomials,
    ref_mul,
    ref_normal_form,
    ref_standard_basis,
)

graded = importlib.import_module("hklab.graded")


def fermat_ring(p, s=3, d=4):
    return parse_ring_spec(f"fermat:s={s},d={d},p={p}")


def basis(ring, m):
    """ring.monomial_basis(m) as a tuple of exponent tuples."""
    return tuple(map(tuple, ring.monomial_basis(m).tolist()))


def random_poly(rng, field, nvars, max_deg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        mono = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        terms[mono] = rng.randrange(field.p)
    return Polynomial(field, nvars, terms)


def test_grevlex_order_on_variables():
    # x > y > z and ties broken against the last variable.
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert grevlex_key(x) > grevlex_key(y) > grevlex_key(z)
    assert grevlex_key((2, 0, 2)) < grevlex_key((1, 3, 0))  # x^2z^2 < xy^3


def test_leading_monomial_of_diagonal_relation():
    R = fermat_ring(7)
    assert R.relation.leading_monomial() == (4, 0, 0)


def test_hilbert_dim_values():
    R = fermat_ring(7)
    assert R.hilbert_dim(0) == 1
    assert R.hilbert_dim(5) == 18
    assert R.hilbert_dim(-1) == 0
    R4 = fermat_ring(5, s=4, d=4)
    assert R4.hilbert_dim(4) == 34
    line = parse_ring_spec("hypersurface:s=3,p=5,f=x+y+z")
    assert [line.hilbert_dim(m) for m in range(4)] == [1, 2, 3, 4]
    poly = parse_ring_spec("polyring:s=2,p=5")
    assert [poly.hilbert_dim(m) for m in range(4)] == [1, 2, 3, 4]


def test_monomial_basis_small_cases():
    R = fermat_ring(7)
    assert basis(R, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    m4 = basis(R, 4)
    assert len(m4) == 14
    assert (4, 0, 0) not in m4
    conic = parse_ring_spec("hypersurface:s=2,p=5,f=x^2+y^2")
    assert basis(conic, 3) == ((1, 2), (0, 3))


@pytest.mark.parametrize("spec", ["fermat:s=3,d=4,p=7", "hypersurface:s=2,p=5,f=x^2+y^2", "fermat:s=4,d=2,p=3", "hypersurface:s=3,p=5,f=x+y+z"])
def test_basis_size_matches_hilbert_dim(spec):
    R = parse_ring_spec(spec)
    top = 4 * (R.relation.degree if R.relation else 1)
    for m in range(top + 1):
        monos = basis(R, m)
        assert len(monos) == R.hilbert_dim(m)
        assert len(set(monos)) == len(monos)
        assert all(sum(mono) == m for mono in monos)
        # descending grevlex
        keys = [grevlex_key(mono) for mono in monos]
        assert keys == sorted(keys, reverse=True)


def test_normal_form_single_step():
    R = fermat_ring(5)
    F = R.field
    x4 = Polynomial(F, 3, {(4, 0, 0): 1})
    nf = R.normal_form(x4)
    assert nf.terms == {(0, 4, 0): 4, (0, 0, 4): 4}
    assert R.normal_form(nf) == nf


def test_normal_form_two_steps():
    R = fermat_ring(5)
    x8 = Polynomial(R.field, 3, {(8, 0, 0): 1})
    nf = R.normal_form(x8)
    assert nf.terms == {(0, 8, 0): 1, (0, 4, 4): 2, (0, 0, 8): 1}


def test_normal_form_kills_multiples_of_relation():
    rng = random.Random(2)
    R = fermat_ring(5)
    for _ in range(10):
        g = random_poly(rng, R.field, 3)
        gf = Polynomial(R.field, 3, ref_mul(5, g.terms, R.relation.terms))
        assert R.normal_form(gf).is_zero
        red = R.normal_form(g)
        assert R.normal_form(red) == red
        # reduction acts trivially in the polynomial ring
    poly = parse_ring_spec("polyring:s=3,p=5")
    g = random_poly(rng, poly.field, 3)
    assert poly.normal_form(g) == g


@st.composite
def relation_and_polynomial(draw):
    """(ring, g, m): a homogeneous relation with 2-6 random terms in 2-4
    variables, a polynomial g with up to five terms and a degree m."""
    s = draw(st.integers(2, 4))
    d = draw(st.integers(1, 4))
    p = draw(st.sampled_from([2, 3, 7, 65537]))
    field = PrimeField(p)
    pool = st.sampled_from(ref_monomials(s, d))
    monos = draw(st.lists(pool, min_size=2, max_size=6, unique=True))
    f = Polynomial(field, s, {u: draw(st.integers(1, p - 1)) for u in monos})
    exponents = st.lists(st.integers(0, 5), min_size=s, max_size=s).map(tuple)
    g = draw(st.dictionaries(exponents, st.integers(1, p - 1), min_size=1, max_size=5))
    return HypersurfaceRing(field, s, f), Polynomial(field, s, g), draw(st.integers(0, 8))


def _ring_case(spec, g, m):
    ring = parse_ring_spec(spec)
    return ring, parse_polynomial(ring.field, ring.s, g), m


def assert_memo_matches_long_division(ring):
    p, f = ring.field.p, ring.relation.terms
    for key, (exps, coeffs) in ring._nf_memo.items():
        mono = [0] * ring.s
        for i, e in zip(ring._support, key):
            mono[i] = e
        got = dict(zip(map(tuple, exps.tolist()), coeffs.tolist()))
        assert got == ref_normal_form(p, f, {tuple(mono): 1})


@settings(max_examples=80, deadline=None)
@given(relation_and_polynomial())
@example(_ring_case("hypersurface:s=3,p=7,f=x^3*y+y^3*z+z^3*x", "x^7*y^2+3*x^4*y^4*z+x*y*z", 9))
# x*y and x^3 have no tail: every multiple of the leading term reduces to 0
@example(_ring_case("hypersurface:s=2,p=5,f=x*y", "x^3*y^2+2*x^4+y^5+x*y", 6))
@example(_ring_case("fermat:s=1,d=3,p=7", "x^5+3*x^2+x^3", 5))
def test_normal_form_and_memo_match_long_division(case):
    ring, g, m = case
    p, f = ring.field.p, ring.relation.terms
    assert ring.normal_form(g).terms == ref_normal_form(p, f, g.terms)
    variables = [Polynomial.variable(ring.field, ring.s, i) for i in range(ring.s)]
    graded_map_matrix(ring, variables, m)
    assert ring._nf_memo
    assert_memo_matches_long_division(ring)


@st.composite
def sparse_relation_and_high_power(draw):
    """(ring, g): a relation with one to three terms in 2-3 variables, and
    a g whose terms are LT(f)^J times a small monomial, J up to 20, so the
    NF memo rewrites by T = LT - f/lc up to 20 times in a chain."""
    s = draw(st.integers(2, 3))
    d = draw(st.integers(1, 2))
    p = draw(st.sampled_from([2, 3, 5, 65537]))
    field = PrimeField(p)
    pool = st.sampled_from(ref_monomials(s, d))
    monos = draw(st.lists(pool, min_size=1, max_size=3, unique=True))
    f = Polynomial(field, s, {u: draw(st.integers(1, p - 1)) for u in monos})
    lt = f.leading_monomial()
    small = st.lists(st.integers(0, 2), min_size=s, max_size=s)
    g = {}
    for _ in range(draw(st.integers(1, 2))):
        J = draw(st.integers(2, 20))
        g[tuple(J * a + b for a, b in zip(lt, draw(small)))] = draw(st.integers(1, p - 1))
    return HypersurfaceRing(field, s, f), Polynomial(field, s, g)


@settings(max_examples=40, deadline=None)
@given(sparse_relation_and_high_power())
# NF(x^(2J)) = (-y^2 - z^2)^J, whose binomial coefficients vanish mod 2
# and 3 at many places: the merges drop those terms
@example(_ring_case("hypersurface:s=3,p=2,f=x^2+y^2+z^2", "x^40*y+x^33*z", 0)[:2])
@example(_ring_case("hypersurface:s=3,p=3,f=x^2+y^2+z^2", "x^37*z^2+x^16", 0)[:2])
# no tail: T = 0, so every multiple of LT reduces to 0 in one step
@example(_ring_case("hypersurface:s=2,p=3,f=2*x^2", "x^37*y^3+x*y^5", 0)[:2])
@example(_ring_case("hypersurface:s=3,p=7,f=x^3*y+y^3*z+z^3*x", "x^51*y^17+x^7*y^2*z", 0)[:2])
def test_normal_form_of_high_powers_matches_long_division(case):
    ring, g = case
    p, f = ring.field.p, ring.relation.terms
    assert ring.normal_form(g).terms == ref_normal_form(p, f, g.terms)
    assert_memo_matches_long_division(ring)


def test_normal_forms_from_threads_share_one_ring():
    # Four threads reduce high powers on one fresh ring at once, so they race
    # to fill its NF memo; twenty rounds, a fresh ring each.
    spec = "hypersurface:s=3,p=61,f=x^2+y^2+z^2"
    reference = parse_ring_spec(spec)
    rng = random.Random(7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ring = parse_ring_spec(spec)
            polys = [
                Polynomial(ring.field, 3, {(rng.randrange(2, 130), rng.randrange(3), 0): 1})
                for _ in range(4)
            ]
            start = threading.Barrier(len(polys), timeout=30)

            def reduce(g):
                start.wait()
                return ring.normal_form(g)

            with ThreadPoolExecutor(len(polys)) as pool:
                got = list(pool.map(reduce, polys, timeout=60))
            assert got == [reference.normal_form(g) for g in polys]
    finally:
        sys.setswitchinterval(interval)


def test_graded_map_matrix_variables():
    R = fermat_ring(5)
    gens = [Polynomial.variable(R.field, 3, i) for i in range(3)]
    m1 = graded_map_matrix(R, gens, 1)
    assert m1.array.shape == (3, 3)
    assert rank_mod_p(m1) == 3
    R7 = fermat_ring(7)
    gens7 = [Polynomial.variable(R7.field, 3, i) for i in range(3)]
    m2 = graded_map_matrix(R7, gens7, 2)
    assert m2.array.shape == (6, 9)
    assert rank_mod_p(m2) == 6


def test_graded_map_matrix_empty_generator_list():
    R = fermat_ring(5)
    m = graded_map_matrix(R, [], 3)
    assert m.array.shape == (R.hilbert_dim(3), 0)


def test_graded_map_matrix_degenerate_degrees():
    # generator degree above m gives an empty block
    R = fermat_ring(5)
    m = graded_map_matrix(R, [R.relation], 2)
    assert m.array.shape[1] == 0


def test_multiplication_by_relation_rank():
    # In the ambient polynomial ring, multiplication by f is injective, so
    # its rank equals the polynomial piece minus the hypersurface piece;
    # inside the quotient the same map is zero.
    poly = parse_ring_spec("polyring:s=3,p=5")
    hyp = fermat_ring(5)
    f = hyp.relation
    for m in range(4, 10):
        mat = graded_map_matrix(poly, [f], m)
        assert rank_mod_p(mat) == poly.hilbert_dim(m) - hyp.hilbert_dim(m)
        assert rank_mod_p(graded_map_matrix(hyp, [f], m)) == 0


def test_piece_dims_against_reference():
    rng = random.Random(3)
    for spec, s in [("hypersurface:s=2,p=5,f=x^2+y^2", 2), ("fermat:s=3,d=3,p=7", 3)]:
        R = parse_ring_spec(spec)
        d = R.relation.degree
        f_dict = dict(R.relation.terms)
        for m in range(7):
            got = R.hilbert_dim(m)
            want = ref_graded_piece_dim(R.field.p, s, [(d, f_dict)], m)
            assert got == want


def test_derivative():
    field = PrimeField(7)
    g = parse_polynomial(field, 3, "x^4+y^4+z^4")
    assert g.derivative(0) == parse_polynomial(field, 3, "4*x^3")
    # x^7 has zero derivative mod 7
    assert Polynomial(field, 3, {(7, 0, 0): 1}).derivative(0).is_zero


def test_polynomial_str_and_parse_round_trip():
    rng = random.Random(4)
    field = PrimeField(11)
    for nvars in (2, 3, 5):
        for _ in range(8):
            g = random_poly(rng, field, nvars)
            assert parse_polynomial(field, nvars, str(g)) == g


def test_parse_polynomial_forms():
    field = PrimeField(7)
    assert parse_polynomial(field, 3, "x^4 + y^4 + z^4").terms == {
        (4, 0, 0): 1,
        (0, 4, 0): 1,
        (0, 0, 4): 1,
    }
    assert parse_polynomial(field, 2, "3x^2y") == parse_polynomial(
        field, 2, "3*x1^2*x2"
    )
    assert parse_polynomial(field, 2, "x - y").terms == {(1, 0): 1, (0, 1): 6}
    assert parse_polynomial(field, 2, "2*x + 5*x").is_zero  # 7x = 0 mod 7


@pytest.mark.parametrize("bad", ["", "x+", "q^2", "x^", "x^y", "x@y", "3*", "+"])
def test_parse_polynomial_errors(bad):
    with pytest.raises(SpecParseError):
        parse_polynomial(PrimeField(5), 2, bad)


def test_parse_ring_spec_forms():
    R = parse_ring_spec("fermat:s=3,d=4,p=7")
    assert (R.field.p, R.s, R.d, R.krull_dim) == (7, 3, 4, 2)
    assert R.relation == parse_polynomial(R.field, 3, "x^4+y^4+z^4")
    P = parse_ring_spec("polyring:s=2,p=5")
    assert P.relation is None and P.krull_dim == 2
    H = parse_ring_spec("hypersurface:s=3,p=5,f=x+y+z")
    assert H.d == 1 and H.krull_dim == 2


@pytest.mark.parametrize(
    "bad",
    [
        "fermat",
        "fermat:s=3,d=4",
        "fermat:s=3,d=4,p=9",
        "fermat:s=0,d=4,p=7",
        "mystery:s=3,p=5",
        "hypersurface:s=3,p=5",
        "hypersurface:s=3,p=5,f=x^2+y",  # inhomogeneous relation
        "fermat:s=3,d=4,p=7,extra=1",
        "polyring:s=x,p=5",
    ],
)
def test_parse_ring_spec_errors(bad):
    with pytest.raises((SpecParseError, ValueError)):
        parse_ring_spec(bad)


@st.composite
def ring_with_leading_term(draw):
    """(ring, LT(f) or None, degrees): a relation whose leading term is a
    pure power, has several variables, or is absent, in 1-6 variables."""
    shape = draw(st.sampled_from(["pure-power", "multi-support", "none"]))
    multi = shape == "multi-support"
    s = draw(st.integers(2 if multi else 1, 6))
    degrees = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))
    if shape == "none":
        return parse_ring_spec(f"polyring:s={s},p=5"), None, degrees
    d = draw(st.integers(2 if multi else 1, 4))
    monos = ref_monomials(s, d)
    lead = draw(st.sampled_from([u for u in monos if (sum(e > 0 for e in u) > 1) == multi]))
    tail = draw(st.lists(st.sampled_from(monos), max_size=4, unique=True))
    terms = {u: draw(st.integers(1, 4)) for u in tail if grevlex_key(u) < grevlex_key(lead)}
    terms[lead] = draw(st.integers(1, 4))
    field = PrimeField(5)
    return HypersurfaceRing(field, s, Polynomial(field, s, terms)), lead, degrees


@settings(max_examples=60, deadline=None)
@given(ring_with_leading_term())
@example((parse_ring_spec("polyring:s=3,p=5"), None, list(range(6))))
def test_monomial_enumeration_matches_reference(case):
    ring, lead, degrees = case
    if lead is not None:
        assert ring.relation.leading_monomial() == lead
    for m in degrees:
        want = [
            u
            for u in ref_monomials(ring.s, m)
            if lead is None or not all(a >= b for a, b in zip(u, lead))
        ]
        assert basis(ring, m) == tuple(sorted(want, key=grevlex_key, reverse=True))


def empty_monomial_tables():
    """Run with no shared monomial table grown yet; the old ones come back
    afterwards."""
    one = graded._MONOMIAL_TABLES[1]
    return mock.patch.dict(graded._MONOMIAL_TABLES, {1: one}, clear=True)


def assert_basis_matches_reference(ring, m, exps, ranks):
    lead = None if ring.relation is None else ring.relation.leading_monomial()
    want = ref_standard_basis(ring.s, lead, m)
    assert exps.dtype == ranks.dtype == np.int64
    assert not exps.flags.writeable and not ranks.flags.writeable
    assert exps.shape == (len(want), ring.s)
    assert [tuple(u) for u in exps.tolist()] == [u for _, u in want]
    assert ranks.tolist() == [i for i, _ in want]


@st.composite
def ring_and_degrees(draw):
    """(ring, degrees): the polynomial ring or a random relation in 1-5
    variables whose leading term involves 1..s of them, and degrees in
    random order, a high one first."""
    s = draw(st.integers(1, 5))
    degrees = [draw(st.integers(6, 14)), *draw(st.lists(st.integers(-1, 16), max_size=4))]
    size = draw(st.integers(0, s))  # 0: the polynomial ring
    if not size:
        return parse_ring_spec(f"polyring:s={s},p=5"), degrees
    support = draw(st.permutations(range(s)))[:size]
    lead = tuple(draw(st.integers(1, 2)) if i in support else 0 for i in range(s))
    smaller = [u for u in ref_monomials(s, sum(lead)) if ref_grevlex_key(u) < ref_grevlex_key(lead)]
    tail = draw(st.lists(st.sampled_from(smaller), max_size=4, unique=True)) if smaller else []
    field = PrimeField(5)
    terms = {u: draw(st.integers(1, 4)) for u in [lead, *tail]}
    ring = HypersurfaceRing(field, s, Polynomial(field, s, terms))
    assert ring.relation.leading_monomial() == lead
    return ring, degrees


@settings(max_examples=80, deadline=None)
@given(ring_and_degrees())
@example((parse_ring_spec("hypersurface:s=3,p=7,f=x^3*y+y^3*z+z^3*x"), [14, 0, 15, -1, 3]))
@example((parse_ring_spec("fermat:s=1,d=3,p=7"), [6, 2, 3, 0]))
def test_standard_basis_and_ranks_match_reference(case):
    # Each example starts from empty tables, so the first degree builds
    # them and a later, higher one grows them.
    ring, degrees = case
    with empty_monomial_tables():
        for m in degrees:
            assert_basis_matches_reference(ring, m, ring.monomial_basis(m), ring._basis(m)[1])


@pytest.mark.parametrize("shared", [True, False])
def test_bases_read_from_threads_match_reference(shared):
    # Four threads ask for bases of random degrees at once, from one ring
    # or from two rings that share the three-variable table, starting from
    # empty tables, so they also race to grow them.
    klein = parse_ring_spec("hypersurface:s=3,p=7,f=x^3*y+y^3*z+z^3*x")
    conic = parse_ring_spec("hypersurface:s=3,p=7,f=x*y-z^2")
    rings = [klein] * 4 if shared else [klein, conic] * 2
    rng = random.Random(6)
    jobs = [(ring, rng.sample(range(40), 12)) for ring in rings]
    start = threading.Barrier(len(jobs), timeout=30)

    def read(job):
        ring, degrees = job
        start.wait()
        return [ring._basis(m) for m in degrees]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with empty_monomial_tables(), ThreadPoolExecutor(len(jobs)) as pool:
            results = list(pool.map(read, jobs, timeout=60))
            # no thread published a smaller table over a larger one
            top = max(max(degrees) for _, degrees in jobs)
            assert len(graded._MONOMIAL_TABLES[3]) >= math.comb(top + 2, 2)
    finally:
        sys.setswitchinterval(interval)
    for (ring, degrees), got in zip(jobs, results):
        for m, (exps, ranks) in zip(degrees, got):
            assert_basis_matches_reference(ring, m, exps, ranks)


# ------------------------------------------- matrix build against a reference


def ref_map_matrix(ring, gens, m):
    """graded_map_matrix built column by column from ring.normal_form."""
    rows = {mono: i for i, mono in enumerate(basis(ring, m))}
    cols = []
    for g in gens:
        for u in basis(ring, m - g.degree):
            col = [0] * len(rows)
            shifted = ref_mul(ring.field.p, g.terms, {u: 1})
            product = Polynomial(ring.field, ring.s, shifted)
            for mono, c in ring.normal_form(product).terms.items():
                col[rows[mono]] = c
            cols.append(col)
    return np.array(cols, dtype=np.int64).reshape(len(cols), len(rows)).T


# Leading terms: pure powers (x^4, x^3, x^2), multi-support (xy, x^2y) and
# none at all.
RELATIONS = [
    (3, "x^4+y^4+z^4"),
    (3, "x^3+2*x*y*z+y^3+z^3"),
    (3, "x*y-z^2"),
    (4, "x^2*y+3*x*z^2+y*w^2+z^3"),
    (4, "x^2+y*z+w^2"),
    (2, None),
    (3, None),
]
# Small primes use int32 matrices; 65537 > 46340 uses int64.
PRIMES = [2, 3, 5, 7, 13, 65537]


@st.composite
def ring_and_generators(draw):
    s, f = draw(st.sampled_from(RELATIONS))
    p = draw(st.sampled_from(PRIMES))
    if f is None:
        ring = parse_ring_spec(f"polyring:s={s},p={p}")
    else:
        ring = parse_ring_spec(f"hypersurface:s={s},p={p},f={f}")
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        e = draw(st.integers(1, 3))
        monos = draw(
            st.lists(st.sampled_from(ref_monomials(s, e)), min_size=2, max_size=5, unique=True)
        )
        coeffs = draw(st.lists(st.integers(1, p - 1), min_size=len(monos), max_size=len(monos)))
        gens.append(Polynomial(ring.field, s, dict(zip(monos, coeffs))))
    return ring, gens, draw(st.integers(0, 6))


@settings(max_examples=80, deadline=None)
@given(ring_and_generators())
def test_graded_map_matrix_matches_column_reference(case):
    ring, gens, m = case
    got = graded_map_matrix(ring, gens, m)
    assert got.array.dtype == ring.field.dtype
    assert np.array_equal(got.array, ref_map_matrix(ring, gens, m))


@settings(max_examples=40, deadline=None)
@given(ring_and_generators())
def test_graded_rank_matches_reference_piece_dim(case):
    ring, gens, m = case
    relation = [] if ring.relation is None else [(ring.d, ring.relation.terms)]
    want = ref_graded_piece_dim(
        ring.field.p, ring.s, relation + [(g.degree, g.terms) for g in gens], m
    )
    assert ring.hilbert_dim(m) - rank_mod_p(graded_map_matrix(ring, gens, m)) == want


@pytest.mark.parametrize("spec", ["polyring:s=64,p=7", "hypersurface:s=64,p=7,f=x1*x2-x3^2"])
def test_graded_map_matrix_with_64_variables(spec):
    # At m = 2 there are C(65, 2) monomials; a key in base m + 1 = 3 per
    # variable would need 3^63 > 2^63 and make rows collide.
    ring = parse_ring_spec(spec)
    gens = [
        parse_polynomial(ring.field, 64, "x1+2*x64"),
        parse_polynomial(ring.field, 64, "x2-x3+x40+5*x63"),
        parse_polynomial(ring.field, 64, "x1*x2+x63*x64-x3^2+x17*x40"),
    ]
    got = graded_map_matrix(ring, gens, 2)
    assert got.array.shape == (ring.hilbert_dim(2), 2 * 64 + 1)
    assert np.array_equal(got.array, ref_map_matrix(ring, gens, 2))


def test_graded_map_matrix_at_largest_accepted_prime():
    # Modulo x^2+y^2+z^2, NF(x^4), NF(x^2*y^2) and NF(x^2*z^2) all have a
    # y^2*z^2 term, with coefficients 2, -1 and -1.  With every coefficient
    # of g equal to -1, two of the products c*coeff are (p-1)^2 each, and
    # their sum exceeds 2^63: each product must be reduced before the add.
    p = 3037000493
    ring = parse_ring_spec(f"hypersurface:s=3,p={p},f=x^2+y^2+z^2")
    gens = [
        parse_polynomial(ring.field, 3, f"{p - 1}*x^4+{p - 1}*x^2*y^2+{p - 1}*x^2*z^2"),
        parse_polynomial(ring.field, 3, f"{p - 1}*x^2+{p - 3}*x*y+{p - 2}*z^2"),
    ]
    for m in range(2, 8):
        got = graded_map_matrix(ring, gens, m)
        assert got.array.dtype == np.int64
        assert np.array_equal(got.array, ref_map_matrix(ring, gens, m))
