"""Exact linear algebra over prime fields.

The generic colength engine's graded quotient dimensions and the curve
smoothness check reduce to ranks of matrices of residues mod p; the
diagonal toolkit needs none (Han's theorem makes it integer arithmetic).
The plane-curve colength needs the row degrees of a polynomial matrix over
F_p[y] once row-reduced, which ``reduced_row_degrees`` gives.
``sparse_rank`` takes a matrix as its nonzero entries: it peels the columns
with one nonzero entry and splits the core that is left into the connected
components of its nonzero pattern.  A component with at least
``_BLOCKED_ROWS`` rows and columns is eliminated on its own: by a recursive
blocked elimination (in the manner of FFLAS-FFPACK: Dumas, Giorgi and
Pernet, ACM TOMS 35(3), 2008), whose updates are float64 matrix products
that stay exact integers, while float64 is exact for products of
residues, and past that as a stack of one.  All the smaller components
are eliminated side by side in one zero-padded stack, one loop step per
row of the tallest component and no inverse.
``rank_mod_p`` ranks a dense matrix, such as the Jacobian matrix of the
smoothness check, as ``sparse_rank`` of its nonzero entries.
Matrices are immutable after construction; rank works on private copies,
so values are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PrimeField",
    "PrimeFieldMatrix",
    "SparseMatrix",
    "rank_mod_p",
    "sparse_rank",
    "reduced_row_degrees",
    "is_prime",
]

# Witnesses make Miller-Rabin deterministic for every n < 3.3e24, which
# covers all machine-word sized moduli.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest modulus whose elimination products (p-1)^2 fit in int64:
# isqrt(2^63 - 1).
_MAX_MODULUS = 3037000499

# float64 holds every integer of magnitude below 2^53 exactly.
_FLOAT_EXACT = 1 << 53

# Components with at least this many rows (and as many columns) take the
# blocked elimination alone; smaller ones share one stack.  Ranks of
# random components mod 401 of rank 9/10 of their rows, 30% and 100% full
# (2 vCPUs, best of 3), stacked / alone: 20 of 64 rows 41 / 44 and 54 /
# 40 ms, 16 of 72 rows 47 / 49 and 57 / 42 ms, 14 of 80 rows 52 / 47 and
# 67 / 43 ms, 10 of 96 rows 59 / 39 and 73 / 34 ms, 3 of 192 rows 123 / 33
# and 145 / 29 ms.  One dense 800x800 matrix took 2.6 s stacked, 84 ms
# blocked.
_BLOCKED_ROWS = 80

# The blocked elimination reduces at most this many rows row by row.  A
# dense 800x800 matrix mod 401 took 97, 84 and 114 ms with 16, 32 and 64.
_BASE_ROWS = 32


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


class SparseMatrix(NamedTuple):
    """An ``nrows`` x ``ncols`` matrix over ``field`` as entries:
    ``values[k]`` at (``rows[k]``, ``cols[k]``), each position once, every
    value a nonzero residue."""

    field: PrimeField
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    nrows: int
    ncols: int


def rank_mod_p(m: PrimeFieldMatrix) -> int:
    """Rank of ``m`` over Z/pZ: ``sparse_rank`` of its nonzero entries."""
    a = m.array
    # half the time of np.nonzero on a 66x136 int32 matrix (numpy 2.4)
    flat = np.flatnonzero(a)
    rows, cols = np.divmod(flat, a.shape[1])
    return sparse_rank(SparseMatrix(m.field, rows, cols, a.ravel()[flat], *a.shape))


def sparse_rank(a: SparseMatrix) -> int:
    """The rank of ``a`` over Z/pZ.

    A structural pass peels off columns whose active part has a single
    nonzero entry; Frobenius-power ideals produce matrices where most
    columns are of this kind.  The core it leaves is block diagonal up to
    permutations whenever the matrix is homogeneous for a grading finer
    than the degree (for a diagonal relation and m^[q], the Han-Monsky
    residue classes), so its rank is the sum of the ranks of the connected
    components of its nonzero pattern.  A component with at least
    ``_BLOCKED_ROWS`` rows is eliminated alone: by ``_blocked_rank`` while
    float64 is exact for products of residues, and otherwise as a stack of
    one.  All the smaller components share one zero-padded stack and one
    ``_stacked_rank`` call.
    """
    rows, cols, values = a.rows, a.cols, a.values
    p = a.field.p
    float_exact = (p - 1) ** 2 < _FLOAT_EXACT
    rank = 0
    # A column with one nonzero entry pivots at that row.  Clearing the row
    # touches no other row, so the rank is 1 + the rank without the pivot
    # row and column; columns sharing the row lose their only entry and
    # drop out with it.
    count = np.bincount(cols, minlength=a.ncols)
    while True:
        single = count[cols] == 1
        if not single.any():
            break
        pivot = np.zeros(a.nrows, dtype=bool)
        pivot[rows[single]] = True
        rank += int(np.count_nonzero(pivot))
        cleared = pivot[rows]
        count -= np.bincount(cols[cleared], minlength=a.ncols)
        rows, cols, values = rows[~cleared], cols[~cleared], values[~cleared]
    if not rows.size:
        return rank
    comp, i, j, shapes = _components(rows, cols, a.nrows, a.ncols)
    # a component of at least _BLOCKED_ROWS rows is eliminated alone; all
    # the smaller ones share one zero-padded stack
    alone = shapes[:, 0] >= _BLOCKED_ROWS
    groups = [[k] for k in np.flatnonzero(alone).tolist()]
    if not alone.all():
        groups.append(np.flatnonzero(~alone))
    for ids in groups:
        slot = np.full(len(shapes), -1)
        slot[ids] = np.arange(len(ids))
        at = slot[comp] >= 0
        blocked = alone[ids[0]] and float_exact
        out = np.zeros((len(ids), *shapes[ids].max(axis=0)), dtype=np.float64 if blocked else a.field.dtype)
        out[slot[comp[at]], i[at], j[at]] = values[at]
        rank += _blocked_rank(out[0], p) if blocked else int(_stacked_rank(out, p).sum())
    return rank


def _components(rows: np.ndarray, cols: np.ndarray, nrows: int, ncols: int):
    """The connected components of the pattern of the entries at (rows,
    cols) as blocks with no more rows than columns: per entry its
    component and its (row, column) in that block, and the (rows, cols)
    shape of each block."""
    # number the rows and columns that hold an entry 0, 1, ...
    row_id = np.cumsum(np.bincount(rows, minlength=nrows) > 0) - 1
    col_id = np.cumsum(np.bincount(cols, minlength=ncols) > 0) - 1
    r, c = row_id[rows], col_id[cols]
    by_row = np.argsort(r, kind="stable")
    by_col = np.argsort(c, kind="stable")
    row_starts = np.flatnonzero(np.diff(r[by_row], prepend=-1))
    col_starts = np.flatnonzero(np.diff(c[by_col], prepend=-1))
    # Min-label propagation over the row/column graph: at the fixed point
    # every row and column carries the smallest row index of its component.
    label = np.arange(len(row_starts))
    while True:
        col_label = np.minimum.reduceat(label[r[by_col]], col_starts)
        new = np.minimum.reduceat(col_label[c[by_row]], row_starts)
        if np.array_equal(new, label):
            break
        label = new
    heads = label == np.arange(len(label))
    row_comp = (np.cumsum(heads) - 1)[label]
    col_comp = row_comp[col_label]
    heights = np.bincount(row_comp)
    widths = np.bincount(col_comp, minlength=len(heights))
    local_row = _local_index(row_comp, heights)
    local_col = _local_index(col_comp, widths)
    comp = row_comp[r]
    i, j = local_row[r], local_col[c]
    flip = (heights > widths)[comp]
    i, j = np.where(flip, j, i), np.where(flip, i, j)
    shapes = np.column_stack([np.minimum(heights, widths), np.maximum(heights, widths)])
    return comp, i, j, shapes


def _local_index(group: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Position of each item among the items of its group, in order."""
    order = np.argsort(group, kind="stable")
    local = np.empty(len(group), dtype=np.int64)
    local[order] = np.arange(len(group)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return local


def _stacked_rank(a: np.ndarray, p: int) -> np.ndarray:
    """The rank of each block a[k], each with rows <= columns.

    Step i pivots row i of every block at its largest entry v and clears
    that column from the rows below without an inverse: each row b below
    becomes v*b - f*row, f its entry in the pivot column (v = 1 for a block
    whose row i is zero).  Both products are at most (p-1)^2, so the dtype
    of ``PrimeField.dtype`` holds them exactly.  The loop runs once per
    row; a row that is zero by then depends on the rows above it.
    """
    blocks, rows, _ = a.shape
    idx = np.arange(blocks)
    rank = np.zeros(blocks, dtype=np.int64)
    for i in range(rows):
        row = a[:, i, :]
        lead = row.argmax(axis=1)
        piv = row.max(axis=1)
        found = piv > 0
        if not found.any():
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


def _blocked_rank(a: np.ndarray, p: int) -> int:
    """The rank of ``a``, float64 residues mod p with (p-1)^2 < 2^53."""
    return len(_echelon(a, p, reduced=False)[1])


def _echelon(a: np.ndarray, p: int, reduced: bool = True):
    """(e, pivots): rows e spanning the row space of ``a`` with e[:, pivots]
    the identity, pivots a list of column indices; e is None when not
    ``reduced``, and only the pivots are wanted.

    The rows are split in halves.  Once the top half is in this form, its
    pivot columns are cleared from the bottom half by one product,
    bottom - bottom[:, pivots] @ top, and the bottom half, without those
    columns, which are zero now, is brought into the form in turn.  A
    second product clears the bottom half's pivot columns from the top
    half.  At most ``_BASE_ROWS`` rows are reduced row by row.  Every
    value stays an integer of magnitude below 2^53 (``_minus_product``),
    so no float rounds.
    """
    if len(a) <= _BASE_ROWS:
        return _echelon_rows(a, p)
    half = len(a) // 2
    top, top_pivots = _echelon(a[:half], p)
    free = np.ones(a.shape[1], dtype=bool)
    free[top_pivots] = False
    rest = np.flatnonzero(free)
    bottom = _minus_product(a[half:, rest], a[half:, top_pivots], top[:, rest], p)
    low, low_pivots = _echelon(bottom, p, reduced)
    pivots = top_pivots + rest[low_pivots].tolist()
    if not reduced:
        return None, pivots
    top[:, rest] = _minus_product(top[:, rest], top[:, pivots[len(top_pivots):]], low, p)
    e = np.zeros((len(pivots), a.shape[1]))
    e[: len(top)] = top
    e[len(top) :, rest] = low
    return e, pivots


def _echelon_rows(a: np.ndarray, p: int):
    """``_echelon`` one row at a time: each pivot row is scaled to lead
    with 1 and cleared from every other row.  An entry is at most p - 1
    and a product at most (p-1)^2, so each step stays below 2^53."""
    a = a.copy()
    pivots, kept = [], []
    for i in range(len(a)):
        nonzero = np.flatnonzero(a[i])
        if not nonzero.size:
            continue
        c = int(nonzero[0])
        row = _mod(a[i] * pow(int(a[i, c]), -1, p), p)
        a -= np.outer(a[:, c], row)
        _mod(a, p)
        a[i] = row
        pivots.append(c)
        kept.append(i)
    return a[kept], pivots


def _minus_product(x: np.ndarray, u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """(x - u @ v) mod p for float64 residues: u @ v sums k = u.shape[1]
    products of at most (p-1)^2, exact while k·(p-1)^2 < 2^53, so the
    inner dimension is cut into chunks of that many and each chunk's
    product is reduced before the next."""
    step = max((_FLOAT_EXACT - 1) // (p - 1) ** 2, 1)
    for lo in range(0, u.shape[1], step):
        x = _mod(x - u[:, lo : lo + step] @ v[lo : lo + step], p)
    return x


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for float64 integers of magnitude below 2^53.

    x/p is within half an ulp, below 1/p for such x, of the exact
    quotient, which lies an integer plus a multiple of 1/p, so the floor
    is exact.  Five times faster than np.mod on floats (numpy 2.4)."""
    quotient = x / p
    np.floor(quotient, out=quotient)
    quotient *= p
    x -= quotient
    return x


def reduced_row_degrees(field: PrimeField, rows: np.ndarray) -> list:
    """The row degrees of a full-rank matrix over F_p[y] once row-reduced
    by Mulders–Storjohann simple transformations (J. Symbolic Comput. 35,
    2003), which ``rows`` undergoes in place.

    rows[r, t, c] is a residue, the coefficient of y^(t - s_c) in entry
    (r, c) for column shifts s_c >= 0, so a row's degree for the shifts,
    max_c(deg + s_c), is its last t with a nonzero entry, its top.

    A row's leading position is its last column with a nonzero entry at
    its top degree.  Rows are inserted one at a time into a set with
    distinct leading positions (weak Popov form, which is row-reduced):
    while a row leads where a set row does, the one of higher degree loses
    that entry to a multiple y^δ·λ of the other, which lowers its degree
    or moves its leading position left.  Each step updates the reduced
    row up to its top only, and its new top is found by scanning down from
    the old one.  Rows in the set are kept as residues; a row being reduced
    is reduced mod p only on entering the set, or before its entries could
    pass 2^63 in int64.
    """
    p = field.p
    limit = max(1, (1 << 62) // (p - 1) ** 2)
    tops, leads = [], []
    for row in rows:
        t = int(np.flatnonzero(row.any(axis=1))[-1])
        tops.append(t)
        leads.append(int(np.flatnonzero(row[t])[-1]))
    pending = [0] * len(rows)  # updates since the row was last reduced mod p
    owner = {}  # leading position -> the set row that leads there
    for a in range(len(rows)):
        while True:
            t, c = tops[a], leads[a]
            b = owner.get(c)
            if b is None or tops[b] > t:  # a enters the set; b, if any, leaves it
                if pending[a]:
                    rows[a, : t + 1] %= p
                    pending[a] = 0
                owner[c] = a
                if b is None:
                    break
                a = b
                continue
            top = tops[b]
            factor = int(rows[a, t, c]) * pow(int(rows[b, top, c]), -1, p) % p
            rows[a, t - top : t + 1] -= factor * rows[b, : top + 1]
            pending[a] += 1
            if pending[a] == limit:
                rows[a, : t + 1] %= p
                pending[a] = 0
            # columns past c are zero at t in both rows, and c cancels
            entries = rows[a, t, :c].tolist()
            while True:
                while entries and not entries[-1] % p:
                    entries.pop()
                if entries:
                    break
                t -= 1
                entries = rows[a, t].tolist()
            tops[a], leads[a] = t, len(entries) - 1
    return tops
