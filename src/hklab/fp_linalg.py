"""Exact dense linear algebra over prime fields.

Everything downstream (graded quotient dimensions, section counts, the
artinian dimension counts) reduces to the rank of a dense matrix of residues
mod p.  Matrices are immutable after construction; rank works on a private
copy, so values are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PrimeField", "PrimeFieldMatrix", "rank_mod_p", "is_prime"]

# Witnesses make Miller-Rabin deterministic for every n < 3.3e24, which
# covers all machine-word sized moduli.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest modulus whose elimination products (p-1)^2 fit in int64:
# isqrt(2^63 - 1).
_MAX_MODULUS = 3037000499


def is_prime(n: int) -> bool:
    """Deterministic primality test for word-sized integers."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field of residues mod a prime p."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if self.p > _MAX_MODULUS:
            raise ValueError(
                f"modulus {self.p} is above {_MAX_MODULUS}, the largest p for "
                "which (p-1)^2 fits in a 64-bit integer"
            )

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero residue."""
        return pow(a % self.p, -1, self.p)

    @property
    def dtype(self) -> type:
        # Elimination forms a - f*b with a, b, f in [0, p), so the widest
        # intermediate is f*b <= (p-1)^2 in magnitude.  int32 holds that for
        # p <= 46340; int64 for p <= _MAX_MODULUS, the largest p accepted.
        return np.int32 if self.p <= 46340 else np.int64


class PrimeFieldMatrix:
    """Dense row-major matrix of residues in [0, p).

    The backing array is marked read-only; operations that need scratch
    space copy first.
    """

    __slots__ = ("field", "array")

    def __init__(self, field: PrimeField, array) -> None:
        arr = np.asarray(array, dtype=field.dtype)
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= field.p):
            raise ValueError(f"entries must be residues in [0, {field.p})")
        arr.setflags(write=False)
        self.field = field
        self.array = arr

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrimeFieldMatrix):
            return NotImplemented
        return self.field.p == other.field.p and np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"PrimeFieldMatrix(p={self.field.p}, shape={self.array.shape})"


def rank_mod_p(m: PrimeFieldMatrix) -> int:
    """Rank of ``m`` over Z/pZ.

    A structural pass peels off columns whose active part has a single
    nonzero entry before the dense elimination runs; Frobenius-power ideals
    produce matrices where most columns are of this kind, and the pass cuts
    the dense core down to a small residual block.
    """
    if m.array.size == 0:
        return 0
    return _rank_of_array(m.array.copy(), m.field.p)


def _rank_of_array(a: np.ndarray, p: int) -> int:
    rank = 0
    while a.size:
        nz = a != 0
        singles = np.flatnonzero(nz.sum(axis=0) == 1)
        if singles.size == 0:
            break
        # A column with one nonzero entry pivots at that row.  Clearing the
        # row touches no other row, so rank(A) = 1 + rank(A minus the pivot
        # row and column); columns sharing the row lose their only entry and
        # may be dropped with it.
        pivot_rows = np.unique(nz[:, singles].argmax(axis=0))
        rank += pivot_rows.size
        row_keep = np.ones(a.shape[0], dtype=bool)
        row_keep[pivot_rows] = False
        col_keep = np.ones(a.shape[1], dtype=bool)
        col_keep[singles] = False
        a = a[row_keep][:, col_keep]
    if a.size:
        rank += _dense_rank(a, p)
    return rank


def _dense_rank(a: np.ndarray, p: int) -> int:
    # Row elimination with partial pivoting by first nonzero; pivot inverse
    # by extended Euclid (via pow).  Transposing keeps the pivot loop on the
    # short side.
    if a.shape[0] > a.shape[1]:
        a = np.ascontiguousarray(a.T)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nzidx = np.flatnonzero(a[r:, c])
        if nzidx.size == 0:
            continue
        piv = r + int(nzidx[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        if r + 1 < rows:
            factors = a[r + 1 :, c] * inv % p
            block = a[r + 1 :, c:]
            block -= factors[:, None] * a[r, c:][None, :]
            block %= p
        r += 1
    return r
