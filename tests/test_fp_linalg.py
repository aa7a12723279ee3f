import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hklab.fp_linalg
from hklab.fp_linalg import (
    PrimeField,
    PrimeFieldMatrix,
    SparseMatrix,
    is_prime,
    rank_mod_p,
    sparse_rank,
)

from oracles import ref_rank


def test_is_prime_spot_values():
    assert is_prime(2)
    assert is_prime(3)
    assert is_prime(97)
    assert is_prime(7919)
    assert is_prime(2147483647)
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(91)
    assert not is_prime(561)  # Carmichael


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_field_inverse():
    F = PrimeField(13)
    for a in range(1, 13):
        assert F.inv(a) * a % 13 == 1


def test_entry_range_is_validated():
    F = PrimeField(5)
    with pytest.raises(ValueError):
        PrimeFieldMatrix(F, [[5]])
    with pytest.raises(ValueError):
        PrimeFieldMatrix(F, [[-1]])


def test_rank_empty_and_identity():
    F = PrimeField(5)
    assert rank_mod_p(PrimeFieldMatrix(F, np.zeros((0, 0), dtype=int))) == 0
    assert rank_mod_p(PrimeFieldMatrix(F, np.zeros((4, 7), dtype=int))) == 0
    assert rank_mod_p(PrimeFieldMatrix(F, np.eye(3, dtype=int))) == 3


def test_rank_of_quotient_multiplication_matrix():
    # Multiplication by 3x^2y + 3xy^2 on F_7[x,y]/(x^3, y^3): the images of
    # 1, x, y are 3x^2y + 3xy^2, 3x^2y^2, 3x^2y^2 and every other basis
    # monomial maps to 0, so the rank is exactly 2.
    basis = [(i, j) for i in range(3) for j in range(3)]
    index = {e: k for k, e in enumerate(basis)}
    w = {(2, 1): 3, (1, 2): 3}
    mat = [[0] * 9 for _ in range(9)]
    for j, (a, b) in enumerate(basis):
        for (u, v), c in w.items():
            t = (a + u, b + v)
            if t[0] < 3 and t[1] < 3:
                mat[index[t]][j] = (mat[index[t]][j] + c) % 7
    assert ref_rank(mat, 7) == 2
    m = PrimeFieldMatrix(PrimeField(7), mat)
    assert rank_mod_p(m) == 2


def test_rank_does_not_mutate_input():
    F = PrimeField(3)
    m = PrimeFieldMatrix(F, [[1, 2], [2, 1], [0, 1]])
    before = m.array.copy()
    rank_mod_p(m)
    assert np.array_equal(m.array, before)


@pytest.mark.parametrize("p", [2, 3, 7, 101, 32003, 65537])
def test_rank_matches_reference_on_random_matrices(p):
    rng = random.Random(p)
    F = PrimeField(p)
    for _ in range(25):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        # Mix dense draws with sparse ones so the singleton-column pass
        # fires on some inputs and is skipped on others.
        density = rng.choice([1.0, 0.5, 0.15])
        data = [
            [rng.randrange(p) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        expected = ref_rank(data, p)
        m = PrimeFieldMatrix(F, data)
        assert rank_mod_p(m) == expected
        assert rank_mod_p(PrimeFieldMatrix(F, m.array.T)) == expected


def test_rank_invariant_under_permutations():
    rng = random.Random(11)
    F = PrimeField(11)
    for _ in range(10):
        data = np.array(
            [[rng.randrange(11) for _ in range(6)] for _ in range(5)], dtype=int
        )
        base = rank_mod_p(PrimeFieldMatrix(F, data))
        rp = rng.sample(range(5), 5)
        cp = rng.sample(range(6), 6)
        shuffled = data[rp][:, cp]
        assert rank_mod_p(PrimeFieldMatrix(F, shuffled)) == base


def test_singleton_heavy_block_matrix():
    # Identity block stacked beside a dense block: the structural pass
    # should absorb the identity part and leave the dense core.
    rng = random.Random(5)
    F = PrimeField(5)
    eye = np.eye(6, dtype=int)
    dense = np.array([[rng.randrange(5) for _ in range(4)] for _ in range(6)])
    data = np.hstack([eye, dense])
    assert rank_mod_p(PrimeFieldMatrix(F, data % 5)) == ref_rank(data.tolist(), 5)


def test_wide_int64_path():
    # p just above the int32 threshold exercises the 64-bit lane.
    p = 65537
    F = PrimeField(p)
    assert F.dtype == np.int64
    data = [[1, p - 1, 0], [p - 1, 1, 0], [1, 1, 2]]
    assert rank_mod_p(PrimeFieldMatrix(F, data)) == ref_rank(data, p)


def test_prime_field_rejects_moduli_that_overflow_int64():
    # (p-1)^2 overflows int64 above isqrt(2^63 - 1) = 3037000499
    with pytest.raises(ValueError, match="3037000499"):
        PrimeField(4294967311)
    assert PrimeField(3037000493).dtype == np.int64


def test_rank_at_largest_accepted_prime():
    # rank-deficient 4x4 matrices: row 3 is a combination of rows 0 and 1
    p = 3037000493  # largest prime <= 3037000499
    rng = random.Random(4)
    F = PrimeField(p)
    for _ in range(50):
        data = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
        a, b = rng.randrange(p), rng.randrange(p)
        data.append([(a * x + b * y) % p for x, y in zip(data[0], data[1])])
        assert rank_mod_p(PrimeFieldMatrix(F, data)) == ref_rank(data, p)


@st.composite
def matrices_with_planted_columns(draw):
    """(p, rows): a random sparse matrix with up to four extra columns of a
    single nonzero entry, columns shuffled."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 65537]))
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    cols = draw(st.lists(st.lists(entry, min_size=nrows, max_size=nrows), min_size=ncols, max_size=ncols))
    for row, value in draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(1, p - 1)), max_size=4)):
        cols.append([value if i == row else 0 for i in range(nrows)])
    if not cols:
        cols.append([0] * nrows)
    cols = draw(st.permutations(cols))
    return p, [list(row) for row in zip(*cols)]


@settings(max_examples=100, deadline=None)
@given(matrices_with_planted_columns())
def test_rank_matches_reference_property(case):
    # 65537 is above 46340, so it runs in int64; the others in int32.
    p, data = case
    F = PrimeField(p)
    m = PrimeFieldMatrix(F, data)
    assert m.array.dtype == (np.int64 if p > 46340 else np.int32)
    expected = ref_rank(data, p)
    assert rank_mod_p(m) == expected
    assert rank_mod_p(PrimeFieldMatrix(F, m.array.T)) == expected


LARGEST_PRIME = 3037000493  # largest prime <= 3037000499, the int64 path


@st.composite
def permuted_block_diagonal(draw):
    """(p, rows): 1-6 blocks of random shapes on the diagonal, each dense,
    sparse, zero or with one nonzero per column, rows and columns shuffled."""
    p = draw(st.sampled_from([7, LARGEST_PRIME]))
    entry = st.integers(1, p - 1)
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        kind = draw(st.sampled_from(["dense", "sparse", "zero", "singletons"]))
        block = [[0] * w for _ in range(h)]
        if kind == "singletons":
            for j in range(w):
                block[draw(st.integers(0, h - 1))][j] = draw(entry)
        elif kind != "zero":
            fill = st.just(True) if kind == "dense" else st.booleans()
            for i in range(h):
                for j in range(w):
                    if draw(fill):
                        block[i][j] = draw(entry)
        blocks.append(block)
    ncols = sum(len(b[0]) for b in blocks)
    rows = []
    left = 0
    for block in blocks:
        w = len(block[0])
        rows += [[0] * left + row + [0] * (ncols - left - w) for row in block]
        left += w
    rows = draw(st.permutations(rows))
    cols = draw(st.permutations(list(zip(*rows))))
    return p, [list(row) for row in zip(*cols)]


@settings(max_examples=100, deadline=None)
@given(permuted_block_diagonal())
def test_block_diagonal_rank_matches_reference(case):
    p, data = case
    expected = ref_rank(data, p)
    m = PrimeFieldMatrix(PrimeField(p), data)
    assert rank_mod_p(m) == expected
    assert rank_mod_p(PrimeFieldMatrix(m.field, m.array.T)) == expected


@st.composite
def block_entries(draw):
    """(p, blocks, entries): 1-8 blocks of random shapes, dense, sparse,
    zero or with one nonzero per column, as the entries of one
    block-diagonal matrix, listed in random order with the columns
    shuffled across blocks."""
    p = draw(st.sampled_from([2, 7, LARGEST_PRIME]))
    blocks = []
    for _ in range(draw(st.integers(1, 8))):
        h, w = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        kind = draw(st.sampled_from(["dense", "sparse", "zero", "singletons"]))
        block = np.zeros((h, w), dtype=np.int64)
        if kind == "singletons" and h:
            for j in range(w):
                block[draw(st.integers(0, h - 1)), j] = draw(st.integers(1, p - 1))
        elif kind in ("dense", "sparse"):
            keep = 1 if kind == "dense" else draw(st.sampled_from([2, 3]))
            seed = draw(st.integers(0, 2**32 - 1))
            rng = np.random.default_rng(seed)
            block = rng.integers(1, p, (h, w)) * (rng.integers(0, keep, (h, w)) == 0)
        blocks.append(block)
    nrows = sum(b.shape[0] for b in blocks)
    ncols = sum(b.shape[1] for b in blocks)
    shuffle = np.array(draw(st.permutations(range(ncols))), dtype=np.int64)
    rows, cols, values = [], [], []
    top = left = 0
    for block in blocks:
        r, c = np.nonzero(block)
        rows.append(r + top)
        cols.append(shuffle[c + left])
        values.append(block[r, c])
        top += block.shape[0]
        left += block.shape[1]
    rows, cols, values = (np.concatenate(a).astype(np.int64) for a in (rows, cols, values))
    order = np.array(draw(st.permutations(range(len(rows)))), dtype=np.int64)
    entries = SparseMatrix(PrimeField(p), rows[order], cols[order], values[order], nrows, ncols)
    return p, blocks, entries


@settings(max_examples=100, deadline=None)
@given(block_entries())
def test_block_ranks_match_reference_per_block(case):
    p, blocks, entries = case
    assert sparse_rank(entries) == sum(ref_rank(b.tolist(), p) for b in blocks)


def _largest_prime_below(n):
    return next(p for p in range(n - 1, 1, -1) if is_prime(p))


def _smallest_prime_from(n):
    return next(p for p in itertools.count(n) if is_prime(p))


def _rank_deficient(rng, p, rows, cols, rank):
    """A random rows x cols matrix of the given rank over F_p (with high
    probability), as Python ints."""
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left]


# (p - 1)^2 < 2^53 exactly up to this prime, so a float64 product of two
# residues is exact; the next prime needs the int64 elimination
FLOAT_PRIME = 94906249
assert (FLOAT_PRIME - 1) ** 2 < 1 << 53 <= (_smallest_prime_from(FLOAT_PRIME + 1) - 1) ** 2


def _kernel_inputs(p, extra=()):
    """The rank of a 400x400 matrix mod p, a 300x300 block of full rank
    beside fifty 2x2 blocks and the blocks ``extra``, all under shuffled
    rows and columns, against the reference, and the shapes of the arrays
    handed to the two kernels: (blocked, stacked)."""
    rng = np.random.default_rng(3)
    lower = np.tril(rng.integers(0, p, (300, 300)), -1) + np.eye(300, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, (300, 300)), 1) + np.diag(rng.integers(1, p, 300))
    big = lower @ upper % p  # det = product of upper's diagonal, nonzero mod p
    # no zero entry, so the peel leaves every 2x2 block whole
    small = [rng.integers(1, p, (2, 2)) for _ in range(50)]
    blocks = [big, *small, *extra]
    data = np.zeros(tuple(sum(b.shape[k] for b in blocks) for k in (0, 1)), dtype=np.int64)
    top = left = 0
    for block in blocks:
        data[top : top + block.shape[0], left : left + block.shape[1]] = block
        top += block.shape[0]
        left += block.shape[1]
    data = data[rng.permutation(len(data))][:, rng.permutation(data.shape[1])]
    blocked, stacked = [], []
    with pytest.MonkeyPatch.context() as patch:
        for name, seen in (("_blocked_rank", blocked), ("_stacked_rank", stacked)):
            kernel = getattr(hklab.fp_linalg, name)
            patch.setattr(hklab.fp_linalg, name, lambda a, p, k=kernel, s=seen: s.append(a.shape) or k(a, p))
        rank = rank_mod_p(PrimeFieldMatrix(PrimeField(p), data))
    assert rank == 300 + sum(ref_rank(b.tolist(), p) for b in blocks[1:])
    return blocked, stacked


@pytest.mark.parametrize("p", [101, _smallest_prime_from(FLOAT_PRIME + 1)])
def test_large_components_go_alone_and_the_rest_share_one_stack(p):
    # padding each 2x2 block to 300x300 would take 51 times the cells: the
    # large block goes alone, the small ones share one stack
    blocked, stacked = _kernel_inputs(p)
    if p == 101:
        assert blocked == [(300, 300)] and stacked == [(50, 2, 2)]
    else:
        assert blocked == [] and sorted(stacked) == [(1, 300, 300), (50, 2, 2)]


def test_the_stack_takes_components_just_below_the_blocked_size():
    # past FLOAT_PRIME a component of _BLOCKED_ROWS rows is a stack of one,
    # and one row fewer joins the 2x2 blocks in the shared stack
    p = _smallest_prime_from(FLOAT_PRIME + 1)
    rng = np.random.default_rng(5)
    size = hklab.fp_linalg._BLOCKED_ROWS
    extra = [rng.integers(1, p, (size, size)), rng.integers(1, p, (size - 1, size - 1))]
    blocked, stacked = _kernel_inputs(p, extra)
    assert blocked == []
    assert sorted(stacked) == [(1, size, size), (1, 300, 300), (51, size - 1, size - 1)]


@pytest.mark.parametrize("p", [5, 401, FLOAT_PRIME, _smallest_prime_from(FLOAT_PRIME + 1)])
def test_dense_blocks_rank_like_the_reference(p):
    # full blocks of at least _BLOCKED_ROWS rows leave a component that
    # large, which goes to the blocked elimination while float64 is exact,
    # and to the stacks past that
    rng = random.Random(p)
    size = hklab.fp_linalg._BLOCKED_ROWS
    shapes = [(size, size + 7, size - 20), (size + 9, size, 3), (size + 3, size + 3, size + 3)]
    mats = [_rank_deficient(rng, p, *shape) for shape in shapes]
    rows, cols, values, nrows, ncols = [], [], [], 0, 0
    for mat in mats:
        arr = np.array(mat, dtype=np.int64)
        r, c = np.nonzero(arr)
        rows.append(r + nrows)
        cols.append(c + ncols)
        values.append(arr[r, c])
        nrows += arr.shape[0]
        ncols += arr.shape[1]
    blocks = SparseMatrix(PrimeField(p), *map(np.concatenate, (rows, cols, values)), nrows, ncols)
    called = []
    blocked = hklab.fp_linalg._blocked_rank
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hklab.fp_linalg, "_blocked_rank", lambda a, p: called.append(a.shape) or blocked(a, p))
        rank = sparse_rank(blocks)
    assert rank == sum(ref_rank(mat, p) for mat in mats)
    assert len(called) == (3 if p <= FLOAT_PRIME else 0)


@pytest.mark.parametrize("p", [5, 401, FLOAT_PRIME, _smallest_prime_from(FLOAT_PRIME + 1)])
def test_rank_mod_p_sends_large_full_matrices_to_the_blocked_elimination(p):
    # a full matrix of at least _BLOCKED_ROWS rows and columns is one
    # component after the peel, which goes to the blocked elimination alone,
    # transposed when tall, while float64 is exact; so is the 2/3 full one
    rng = random.Random(p)
    size = hklab.fp_linalg._BLOCKED_ROWS
    full = [_rank_deficient(rng, p, *shape) for shape in [(size, size + 7, size - 20), (size + 9, size, 3)]]
    small = _rank_deficient(rng, p, size - 1, size + 30, size - 5)
    # every fourth column zero, which leaves a component of 63 columns for
    # the stack; and one zero in three on shifted diagonals, 2/3 full
    quarter = [[(v or 1) if c % 4 else 0 for c, v in enumerate(row[: size + 4])] for row in full[0]]
    sparse = [[v if (r + c) % 3 else 0 for c, v in enumerate(row)] for r, row in enumerate(full[0])]
    called = []
    blocked = hklab.fp_linalg._blocked_rank
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hklab.fp_linalg, "_blocked_rank", lambda a, p: called.append(a.shape) or blocked(a, p))
        for mat in [*full, small, quarter, sparse]:
            called.append(None)
            assert rank_mod_p(PrimeFieldMatrix(PrimeField(p), mat)) == ref_rank(mat, p)
    if p <= FLOAT_PRIME:
        assert called == [None, (size, size + 7), None, (size, size + 9), None, None, None, (size, size + 7)]
    else:
        assert called == [None] * 5


@pytest.mark.parametrize("k", [2, 4, 40])
def test_float_products_split_their_inner_dimension_at_the_bound(k):
    # the largest p with k·(p-1)^2 < 2^53 takes u @ v in one piece, and the
    # next prime in pieces of at most k - 1: both exact, from entries p - 1
    # (k = 1 ends the float path: FLOAT_PRIME)
    largest = _largest_prime_below(math.isqrt(((1 << 53) - 1) // k) + 2)
    past = _smallest_prime_from(largest + 1)
    assert k * (largest - 1) ** 2 < 1 << 53 <= k * (past - 1) ** 2
    rng = random.Random(k)
    for p in (largest, past):
        u = [[p - 1] * k, [rng.randrange(p) for _ in range(k)]]
        v = [[p - 1] * 3 for _ in range(k)]
        x = [[0, 1, p - 1], [rng.randrange(p) for _ in range(3)]]
        want = [
            [(x[i][j] - sum(u[i][t] * v[t][j] for t in range(k))) % p for j in range(3)]
            for i in range(2)
        ]
        got = hklab.fp_linalg._minus_product(*(np.array(a, dtype=np.float64) for a in (x, u, v)), p)
        assert got.tolist() == want, p


def test_blocked_rank_of_random_rank_deficient_matrices():
    rng = random.Random(7)
    # two and three levels of halving above _BASE_ROWS, a zero matrix, and
    # full row rank
    for p in (3, 65521):
        for shape in [(90, 110, 45), (140, 70, 69), (40, 40, 0), (70, 90, 70)]:
            mat = _rank_deficient(rng, p, *shape)
            arr = np.array(mat, dtype=np.float64)
            assert hklab.fp_linalg._blocked_rank(arr, p) == ref_rank(mat, p), (p, shape)
