import random

import numpy as np
import pytest

from hklab.fp_linalg import (
    PrimeField,
    PrimeFieldMatrix,
    is_prime,
    rank_mod_p,
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
