"""Exact dense linear algebra over prime fields.

Everything downstream (graded quotient dimensions, section counts, the
artinian dimension counts) reduces to the rank of a dense matrix of residues
mod p.  ``rank_mod_p`` peels the columns with one nonzero entry, splits the
core that is left into the connected components of its nonzero pattern and
eliminates them side by side in zero-padded stacks, one loop step per row
of the tallest block and no inverse.  Matrices are immutable after
construction; rank works on private copies, so values are safe to share
across threads.
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

# Labelling the components of a core costs about as much as this many
# elimination steps, so a core with no more rows or columns is one block.
_WHOLE_CORE = 8


def is_prime(n: int) -> bool:
    """Deterministic primality test for word-sized integers."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
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
        # Elimination forms v*a - f*b with a, b, f, v in [0, p), so the
        # widest intermediate is a product <= (p-1)^2 in magnitude.  int32
        # holds that for p <= 46340; int64 for p <= _MAX_MODULUS, the
        # largest p accepted.
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


def rank_mod_p(m: PrimeFieldMatrix) -> int:
    """Rank of ``m`` over Z/pZ.

    A structural pass peels off columns whose active part has a single
    nonzero entry; Frobenius-power ideals produce matrices where most
    columns are of this kind.  The core it leaves, minus its zero rows and
    columns, is block diagonal up to permutations whenever the matrix is
    homogeneous for a grading finer than the degree (for a diagonal
    relation and m^[q], the Han-Monsky residue classes), so its rank is the
    sum of the ranks of the connected components of its nonzero pattern.
    Those are eliminated side by side, zero-padded into few stacks; a core
    with at most ``_WHOLE_CORE`` rows or columns is one block.
    """
    a, p = m.array, m.field.p
    if a.size == 0:
        return 0
    # A column with one nonzero entry pivots at that row.  Clearing the row
    # touches no other row, so rank(A) = 1 + rank(A minus the pivot row and
    # column); columns sharing the row lose their only entry and drop out
    # with it.  The peel reads the pattern only: it clears the pivot rows
    # from a copy of it, keeps per-column counts and copies the core once.
    nz = a != 0
    count = nz.sum(axis=0)
    rank = 0
    while True:
        singles = np.flatnonzero(count == 1)
        if singles.size == 0:
            break
        pivots = np.zeros(len(nz), dtype=bool)
        pivots[nz[:, singles].argmax(axis=0)] = True
        rank += int(np.count_nonzero(pivots))
        count -= nz[pivots].sum(axis=0)
        nz[pivots] = False
    cols = np.flatnonzero(count)
    if not cols.size:
        return rank
    rows = np.flatnonzero(nz.any(axis=1))
    if min(len(rows), len(cols)) <= _WHOLE_CORE:
        core = a[rows][:, cols]
        return rank + _stacked_rank((core if len(rows) <= len(cols) else core.T.copy())[None], p)
    stacks = _component_stacks(a, rows, cols, nz[np.ix_(rows, cols)])
    return rank + sum(_stacked_rank(stack, p) for stack in stacks)


def _component_stacks(a: np.ndarray, rows: np.ndarray, cols: np.ndarray, nz: np.ndarray):
    """The connected components of the core of ``a`` on ``rows`` and
    ``cols``, whose nonzero pattern ``nz`` has no zero row or column, as
    zero-padded stacks of blocks.

    Each block is transposed if needed so that it has no more rows than
    columns.  Blocks go into stacks in increasing shape, and a stack is
    closed before its padded cells would exceed twice its blocks' cells.
    """
    r_of, c_of = np.nonzero(nz)
    c_by_col, r_by_col = np.nonzero(nz.T)
    row_starts = np.searchsorted(r_of, np.arange(nz.shape[0]))
    col_starts = np.searchsorted(c_by_col, np.arange(nz.shape[1]))
    # Min-label propagation over the row/column graph: at the fixed point
    # every row and column carries the smallest row index of its component.
    label = np.arange(nz.shape[0])
    while True:
        col_label = np.minimum.reduceat(label[r_by_col], col_starts)
        new = np.minimum.reduceat(col_label[c_of], row_starts)
        if np.array_equal(new, label):
            break
        label = new
    # Sorted by label, the rows and columns of each component are
    # consecutive, and the components come in the same order on both sides.
    row_order = np.argsort(label, kind="stable")
    col_order = np.argsort(col_label, kind="stable")
    heights = np.bincount(label)
    widths = np.bincount(col_label, minlength=len(heights))
    heads = heights > 0
    heights, widths = heights[heads].tolist(), widths[heads].tolist()
    a = a[np.ix_(rows[row_order], cols[col_order])]
    blocks = []
    top = left = 0
    for h, w in zip(heights, widths):
        block = a[top : top + h, left : left + w]
        blocks.append(block if h <= w else block.T)
        top += h
        left += w
    blocks.sort(key=lambda b: b.shape)
    # Greedy stacks in increasing (rows, columns): the newest block is the
    # tallest, so the padded size is known on the spot.
    stack = []
    cells = wide = 0
    for block in blocks:
        h, w = block.shape
        if stack and (len(stack) + 1) * h * max(wide, w) > 2 * (cells + h * w):
            yield _padded(stack)
            stack = []
            cells = wide = 0
        stack.append(block)
        cells += h * w
        wide = max(wide, w)
    yield _padded(stack)


def _padded(blocks: list) -> np.ndarray:
    """The blocks, the last of them the tallest, zero-padded into one stack."""
    wide = max(block.shape[1] for block in blocks)
    out = np.zeros((len(blocks), blocks[-1].shape[0], wide), dtype=blocks[0].dtype)
    for k, block in enumerate(blocks):
        out[k, : block.shape[0], : block.shape[1]] = block
    return out


def _stacked_rank(a: np.ndarray, p: int) -> int:
    """Sum of the ranks of the blocks a[k], each with rows <= columns.

    Step i pivots row i of every block at its largest entry v and clears
    that column from the rows below without an inverse: each row b below
    becomes v*b - f*row, f its entry in the pivot column (v = 1 for a block
    whose row i is zero).  Both products are at most (p-1)^2, so the dtype
    of ``PrimeField.dtype`` holds them exactly.  The loop runs once per
    row; a row that is zero by then depends on the rows above it.
    """
    blocks, rows, _ = a.shape
    idx = np.arange(blocks)
    rank = 0
    for i in range(rows):
        row = a[:, i, :]
        lead = row.argmax(axis=1)
        piv = row.max(axis=1)
        found = int(np.count_nonzero(piv))
        if not found:
            continue
        rank += found
        if i + 1 == rows:
            break
        factors = a[idx, i + 1 :, lead]
        below = a[:, i + 1 :, :]
        below *= np.maximum(piv, 1)[:, None, None]
        below -= factors[:, :, None] * row[:, None, :]
        below %= p
    return rank
