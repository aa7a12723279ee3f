"""Graded pieces of hypersurface rings F_p[x_1..x_s]/(f).

A single homogeneous relation keeps everything elementary: {f} is already a
Groebner basis of (f), so the standard monomials of degree m are the
degree-m monomials not divisible by the leading term of f, and a normal form
is the remainder of division by f.

Every basis is a slice of one read-only monomial table per variable count,
shared by all rings: its last rows are the degree-m monomials in descending
grevlex, so a row's position is its rank, and basis(m) keeps the rows with
some exponent on supp(LT(f)) below LT(f)'s.

Divisibility by LT(f) depends only on the exponents on S = supp(LT(f)), so
NF(mu_S * nu) = nu * NF(mu_S) for a monomial mu_S in the variables of S and
any monomial nu in the others.  Each ring keeps a memo of NF(mu_S), filled
on demand without a division loop: LT(f) = T mod f with T = LT(f) -
f/lc(f), so NF(x^beta * LT(f)) is a combination of the memo entries of the
smaller support parts of x^beta * T, one LT at a time.  The fill takes one
numpy step per depth of that recursion.  ``normal_form`` and the graded
multiplication matrices are gathers from the memo.  The monomial order is
graded reverse lexicographic with x_1 > x_2 > ... > x_s throughout;
nothing here is meaningful for any other order, so it is not configurable.

``relation=None`` gives the ambient polynomial ring itself; the smoothness
check on curves needs quotients of that ring, and everything degreewise
works verbatim with the unreduced Hilbert function.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Optional, Sequence

import numpy as np

from hklab.fp_linalg import PrimeField, PrimeFieldMatrix, SparseMatrix

__all__ = [
    "Monomial",
    "Polynomial",
    "HypersurfaceRing",
    "SpecParseError",
    "grevlex_key",
    "graded_map_entries",
    "graded_map_matrix",
    "parse_polynomial",
    "parse_ring_spec",
]

Monomial = tuple  # exponent tuples; length = ring's variable count


class SpecParseError(ValueError):
    """Raised for malformed polynomial / ring / ideal descriptions."""


def grevlex_key(mono: Monomial):
    """Sort key; larger key = larger monomial in grevlex with x1 > ... > xs."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _var_names(nvars: int) -> list:
    if nvars <= 4:
        return ["x", "y", "z", "w"][:nvars]
    return [f"x{i + 1}" for i in range(nvars)]


class Polynomial:
    """Multivariate polynomial over a prime field, stored sparsely.

    Treated as immutable: no method mutates ``terms`` after construction,
    and the dict is never handed out.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: PrimeField, nvars: int, terms: dict) -> None:
        p = field.p
        clean = {}
        for mono, coeff in terms.items():
            if len(mono) != nvars:
                raise ValueError("exponent tuple length != variable count")
            if any(e < 0 for e in mono):
                raise ValueError("negative exponent")
            c = coeff % p
            if c:
                clean[tuple(mono)] = c
        self.field = field
        self.nvars = nvars
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls, field: PrimeField, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {mono: 1})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    @property
    def degree(self) -> Optional[int]:
        """Total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    # -- arithmetic ---------------------------------------------------------

    def derivative(self, i: int) -> "Polynomial":
        out = {}
        for m, c in self.terms.items():
            if m[i]:
                dm = tuple(e - 1 if j == i else e for j, e in enumerate(m))
                out[dm] = out.get(dm, 0) + c * m[i]
        return Polynomial(self.field, self.nvars, out)

    # -- comparison / rendering ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.field.p == other.field.p
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = _var_names(self.nvars)
        parts = []
        for mono in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[mono]
            factors = []
            if c != 1 or not any(mono):
                factors.append(str(c))
            for name, e in zip(names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial(p={self.field.p}, {self})"


def _binomial(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


class HypersurfaceRing:
    """F_p[x_1..x_s]/(f) for one homogeneous f, or the plain polynomial ring
    when ``relation`` is None."""

    def __init__(
        self, field: PrimeField, s: int, relation: Optional[Polynomial]
    ) -> None:
        if s < 1:
            raise ValueError("need at least one variable")
        if relation is not None:
            if relation.field.p != field.p or relation.nvars != s:
                raise ValueError("relation lives in a different ring")
            if relation.is_zero:
                raise ValueError("relation must be nonzero")
            if not relation.is_homogeneous:
                raise ValueError("relation must be homogeneous")
            if relation.degree < 1:
                raise ValueError("relation must have degree >= 1")
        self.field = field
        self.s = s
        self.relation = relation
        self._d = None if relation is None else relation.degree
        if relation is None:
            self._lt = None
            self._support = ()
        else:
            lt = relation.leading_monomial()
            self._lt = lt
            self._support = support = tuple(i for i, e in enumerate(lt) if e)
            # T = LT(f) - f/lc(f): the coefficients of its terms, their
            # parts on S and the rest of each term
            lc_inv = field.inv(relation.terms[lt])
            tail = [(m, -c * lc_inv % field.p) for m, c in relation.terms.items() if m != lt]
            exps = np.array([m for m, _ in tail], dtype=np.int64).reshape(-1, s)
            self._tail_coeffs = np.array([c for _, c in tail], dtype=np.int64)
            self._tail_parts = exps[:, list(support)]
            self._tail_nu = exps.copy()
            self._tail_nu[:, list(support)] = 0
        self._binomials = np.zeros((0, s + 1), dtype=np.int64)
        self._nf_memo = {}

    @property
    def d(self) -> Optional[int]:
        return self._d

    @property
    def krull_dim(self) -> int:
        return self.s if self.relation is None else self.s - 1

    def __repr__(self) -> str:
        f = "0" if self.relation is None else str(self.relation)
        return f"HypersurfaceRing(p={self.field.p}, s={self.s}, f={f})"

    def canonical_string(self) -> str:
        f = "" if self.relation is None else str(self.relation)
        return f"p={self.field.p};s={self.s};f={f}"

    # -- graded pieces -------------------------------------------------------

    def hilbert_dim(self, m: int) -> int:
        """dim of the degree-m piece; exact integer combinatorics, valid for
        all m (0 for m < 0)."""
        s = self.s
        full = _binomial(m + s - 1, s - 1)
        if self.relation is None:
            return full
        return full - _binomial(m - self._d + s - 1, s - 1)

    def monomial_basis(self, m: int) -> np.ndarray:
        """Degree-m standard monomials as a read-only int64 array, one row
        each, in descending grevlex order."""
        return self._basis(m)[0]

    def _basis(self, m: int):
        """(monomial_basis(m), their increasing ``_lex_ranks``), read-only:
        the standard rows of the degree-m slice of ``_monomial_table`` and
        their positions there.  Nothing is stored, so threads may share it.
        """
        s = self.s
        count = _binomial(m + s - 1, s - 1)
        table = _monomial_table(s, m)
        rows = table[len(table) - count :]
        if self._lt is None:
            ranks = np.arange(count)
            exps = rows.copy()
        else:
            # x_s is m plus the last column, so x_s < e is that column < e - m
            bound = list(self._lt)
            bound[-1] -= m
            keep = np.zeros(count, dtype=bool)
            for i in self._support:
                keep |= rows[:, i] < bound[i]
            ranks = np.flatnonzero(keep)
            exps = rows[ranks]
        exps[:, -1] += m
        exps.setflags(write=False)
        ranks.setflags(write=False)
        return exps, ranks

    def _table(self, m: int) -> np.ndarray:
        """``table[r, k] = C(r + k, k)`` for at least r <= m and k <= s.

        One table per ring grows with m; extending it raises OverflowError
        rather than wrap if an entry exceeds int64.
        """
        table = self._binomials
        if len(table) <= m:
            new = [
                [math.comb(r + k, k) for k in range(self.s + 1)]
                for r in range(len(table), m + 1)
            ]
            table = np.concatenate([table, np.array(new, dtype=np.int64)])
            table.setflags(write=False)
            self._binomials = table
        return table

    # -- normal forms ----------------------------------------------------------

    def _fill_nf_memo(self, keys) -> None:
        """Enter NF(mu_S) in the memo for each support part mu_S in ``keys``
        (exponents on S = supp(LT(f))), and for every part it is built from.

        Entries are (int64 exponent rows, int64 coefficients), the rows in
        descending grevlex.  A standard mu_S is its own normal form.
        Otherwise ``_nf_parts`` writes mu_S = x^beta * LT and rewrites it
        as x^beta * T mod f; each term of that product is nu_t * mu_t, mu_t
        its part on S and nu_t the rest, so NF(mu_S) is the sum of c_t *
        nu_t * NF(mu_t) over the terms c_t * t of T: multiplying by nu_t
        keeps a monomial standard, because divisibility by LT reads only
        the exponents on S.  Every term of T is below LT in grevlex, so each
        such product term is below mu_S, and so is its part mu_t (mu_t >=
        mu_S would give nu_t * mu_t >= mu_S).  Grevlex is a well-order, so
        the recursion ends, and every entry is the exact normal form.  It is
        walked with an explicit stack, and the entries are filled by depth,
        one numpy step per depth, with equal terms merged by their lex rank.
        """
        memo = self._nf_memo
        deps = {}
        depth = {}
        todo = [k for k in keys if k not in memo]
        while todo:
            key = todo.pop()
            if key in depth:
                continue
            if key not in deps:
                deps[key] = self._nf_parts(key)
            parts = deps[key] or ()
            missing = [k for k in parts if k not in memo and k not in depth]
            if missing:
                todo += [key, *missing]
                continue
            below = (depth.get(k, 0) for k in parts)
            depth[key] = 0 if deps[key] is None else 1 + max(below, default=0)
        levels = {}
        for key, level in depth.items():
            levels.setdefault(level, []).append(key)
        for level in sorted(levels):
            batch = levels[level]
            if level == 0:
                rows = [[0] * self.s for _ in batch]
                for row, key in zip(rows, batch):
                    for i, e in zip(self._support, key):
                        row[i] = e
                exps = np.array(rows, dtype=np.int64).reshape(-1, self.s)
                coeffs = np.ones(len(batch), dtype=np.int64)
                bounds = range(len(batch) + 1)
            else:
                exps, coeffs, bounds = self._nf_combine(batch, deps)
            exps.setflags(write=False)
            coeffs.setflags(write=False)
            for j, key in enumerate(batch):
                memo[key] = (exps[bounds[j] : bounds[j + 1]], coeffs[bounds[j] : bounds[j + 1]])

    def _nf_parts(self, key: tuple):
        """None when mu_S = ``key`` is standard.  Otherwise the list of the
        |T| parts on S of x^beta * t, one for each term t of T, where mu_S =
        x^beta * LT."""
        if self._lt is None:
            return None
        base = [a - self._lt[i] for a, i in zip(key, self._support)]
        if min(base) < 0:
            return None
        return list(map(tuple, (self._tail_parts + base).tolist()))

    def _nf_combine(self, batch: list, deps: dict):
        """NF(mu_S) for every non-standard mu_S in ``batch`` from the memo
        entries of its parts, as (exponent rows, coefficients, bounds): the
        terms of batch[j] are rows bounds[j]:bounds[j + 1].

        Each product of a memo coefficient and T's coefficient is below p^2
        < 2^63 for every accepted p and is reduced before the merge, so a
        merged sum of n terms stays below n * p, far inside int64 for any
        batch that fits in memory.
        """
        p = self.field.p
        parts = [self._nf_memo[k] for key in batch for k in deps[key]]
        lens = np.array([len(c) for _, c in parts], dtype=np.int64)
        if not lens.sum():  # f has no tail, or every part reduces to 0
            return (
                np.zeros((0, self.s), dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(len(batch) + 1, dtype=np.int64),
            )
        # every key has |T| parts, and parts[i] comes from term i mod |T|
        owner, row = np.divmod(np.repeat(np.arange(len(parts)), lens), len(self._tail_coeffs))
        exps = np.concatenate([e for e, _ in parts]) + self._tail_nu[row]
        coeffs = np.concatenate([c for _, c in parts]) * self._tail_coeffs[row] % p
        degrees = np.array([sum(key) for key in batch], dtype=np.int64)
        codes = _lex_ranks(exps, degrees[owner], self._table(int(degrees.max())))
        order = np.lexsort((codes, owner))
        owner, codes = owner[order], codes[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (owner[1:] != owner[:-1]) | (codes[1:] != codes[:-1])
        starts = np.flatnonzero(first)
        sums = np.add.reduceat(coeffs[order], starts) % p
        nonzero = sums != 0
        keep = starts[nonzero]
        bounds = np.searchsorted(owner[keep], np.arange(len(batch) + 1))
        return exps[order[keep]], sums[nonzero], bounds

    def _nf_gather(self, monos: np.ndarray, m: int):
        """Normal forms of the degree-m monomials in the rows of ``monos``.

        Returns (src, codes, coeffs): NF(monos[src[j]]) has coefficient
        coeffs[j] at the standard monomial of ``_lex_ranks`` code codes[j],
        and each (src, codes) pair occurs once.  Uses NF(mu_S * nu) = nu *
        NF(mu_S), so only the distinct S-parts mu_S are looked up in the
        memo.
        """
        table = self._table(m)
        support = list(self._support)
        parts = monos[:, support]
        # (mu_S, m - |mu_S|) is a degree-m monomial in |S| + 1 variables;
        # its rank is an exact integer code of mu_S.
        codes = _lex_ranks(np.column_stack([parts, m - parts.sum(axis=1)]), m, table)
        _, pick, which = np.unique(codes, return_index=True, return_inverse=True)
        keys = [tuple(k) for k in parts[pick].tolist()]
        self._fill_nf_memo(keys)
        nfs = [self._nf_memo[k] for k in keys]
        exps = np.concatenate([e for e, _ in nfs])
        coeffs = np.concatenate([c for _, c in nfs])
        lens = np.array([len(c) for _, c in nfs], dtype=np.int64)
        counts = lens[which]
        src = np.repeat(np.arange(len(monos)), counts)
        # Entry j belongs to monomial src[j]; it is term j - (first entry of
        # that monomial) of its NF, which starts at offset[which] in exps.
        offset = np.cumsum(lens) - lens
        shift = np.repeat(offset[which] - (np.cumsum(counts) - counts), counts)
        term = shift + np.arange(len(src))
        nu = monos.copy()
        nu[:, support] = 0
        return src, _lex_ranks(exps[term] + nu[src], m, table), coeffs[term]

    def normal_form(self, g: Polynomial) -> Polynomial:
        """Remainder of g under division by the relation: no term divisible
        by LT(f), congruent to g mod (f), idempotent."""
        if g.field.p != self.field.p or g.nvars != self.s:
            raise ValueError("polynomial lives in a different ring")
        support = self._support
        keys = [tuple(mono[i] for i in support) for mono in g.terms]
        self._fill_nf_memo(keys)
        out = {}
        for (mono, c), key in zip(g.terms.items(), keys):
            nu = [0 if i in support else e for i, e in enumerate(mono)]
            exps, coeffs = self._nf_memo[key]
            for e, k in zip(exps.tolist(), coeffs.tolist()):
                e = tuple(a + b for a, b in zip(e, nu))
                out[e] = out.get(e, 0) + c * k
        return Polynomial(self.field, self.s, out)


# s -> int64 rows (exponents of x_1..x_{s-1}, then minus their degree) of
# the monomials in x_1..x_{s-1} of degree <= some M, in blocks of degree M
# down to 0, each in descending grevlex.  The last C(m + s - 1, s - 1) rows,
# with m added to the last column, are the degree-m monomials in x_1..x_s in
# descending grevlex.  Tables are published whole and never written.
_MONOMIAL_TABLES = {1: np.zeros((1, 1), dtype=np.int64)}
_MONOMIAL_TABLES[1].setflags(write=False)
_TABLE_LOCK = threading.Lock()
# dense-quartic4 (2 vCPUs, medians of 6 sessions): growth by 2 took 1.5 MB
# more peak RSS and 3% more wall time than growth by 1.25.
_TABLE_GROWTH = 1.25


def _monomial_table(s: int, m: int) -> np.ndarray:
    """Table s, grown to cover degree m if needed; growth holds a lock, so no
    thread publishes a smaller table over a larger one."""
    table = _MONOMIAL_TABLES.get(s)
    if table is None or len(table) < _binomial(m + s - 1, s - 1):
        with _TABLE_LOCK:
            table = _grow_table(s, m)
    return table


def _grow_table(s: int, m: int) -> np.ndarray:
    """``_monomial_table`` under the lock.  Block k of table s is the last
    C(k + s - 2, s - 2) rows of table s - 1, k added to their last column,
    then the column -k; table 1 is the monomial 1 and covers every degree."""
    table = _MONOMIAL_TABLES.get(s)
    if table is not None and len(table) >= _binomial(m + s - 1, s - 1):
        return table
    top = max(m, 0) if table is None else max(m, math.ceil(-table[0, -1] * _TABLE_GROWTH))
    lower = _grow_table(s - 1, top)
    counts = [math.comb(k + s - 2, s - 2) for k in range(top, -1, -1)]
    k = np.repeat(np.arange(top, -1, -1), counts)
    table = np.empty((len(k), s), dtype=np.int64)
    table[:, :-1] = np.concatenate([lower[len(lower) - c :] for c in counts])
    table[:, -2] += k
    table[:, -1] = -k
    table.setflags(write=False)
    _MONOMIAL_TABLES[s] = table
    return table


def _lex_ranks(monos: np.ndarray, m, table: np.ndarray) -> np.ndarray:
    """Rank of each degree-m row of ``monos`` among all degree-m monomials in
    as many variables, in descending grevlex order, which is ascending lex
    order on the reversed exponents; ``table[r, k] = C(r + k, k)``.  ``m``
    is one degree for every row, or one degree per row.

    Reading the exponents reversed, a_1..a_s, the monomials before a are
    those that agree with it up to some position i and are smaller there:
    C(r_i + k, k) - C(r_i - a_i + k, k) of them, with r_i = m - a_1 - ...
    - a_{i-1} left over and k = s - i variables after position i.  Each
    term is at most the count of degree-m monomials, and so is their sum,
    so the rank is exact whenever that count fits int64.  The terms are
    added one position at a time, each a pass over contiguous rows.
    """
    flat, width = table.ravel(), table.shape[1]
    left = m
    rank = np.zeros(len(monos), dtype=np.int64)
    for k in range(monos.shape[1] - 1, -1, -1):
        a = monos[:, k]
        rank += flat[left * width + k] - flat[(left - a) * width + k]
        left = left - a
    return rank


def graded_map_entries(ring: HypersurfaceRing, gens: Sequence, m: int) -> SparseMatrix:
    """The map of ``graded_map_matrix`` as the entries of a sparse matrix.

    No column is reduced on its own.  Writing each term of g_i as c_t*mu_t
    and each column monomial as u, the column of g_i*u is
    sum_t c_t * NF(mu_t*u), and NF(mu_t*u) = nu * NF(mu_S) where mu_S is the
    part of mu_t*u on the variables of LT(f) and nu the rest; NF(mu_S) comes
    from the ring's memo, in one gather.  Generators need not be reduced
    first.
    """
    for g in gens:
        if g.field.p != ring.field.p or g.nvars != ring.s:
            raise ValueError("polynomial lives in a different ring")
        if g.is_zero or not g.is_homogeneous:
            raise ValueError("generators must be nonzero homogeneous")
    p = ring.field.p
    row_ranks = ring._basis(m)[1]
    products = []
    chunks = []  # (first column, coefficient) per product array
    ncols = 0
    blocks = {e: ring.monomial_basis(m - e) for e in {g.degree for g in gens}}
    for g in gens:
        block = blocks[g.degree]
        for mono, c in g.terms.items():
            products.append(block + mono)
            chunks.append((ncols, c))
        ncols += len(block)
    sizes = np.array([len(b) for b in products], dtype=np.int64)
    if not sizes.sum():
        empty = np.zeros(0, dtype=np.int64)
        return SparseMatrix(ring.field, empty, empty, empty, len(row_ranks), ncols)
    first, coeff = (np.repeat(np.array(v, dtype=np.int64), sizes) for v in zip(*chunks))
    col = first + np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    src, codes, coeffs = ring._nf_gather(np.concatenate(products), m)
    rows = np.searchsorted(row_ranks, codes)
    # c*coeff < p^2 fits int64 for every accepted p; the terms of one
    # generator can meet at one (row, col), so entries are merged there
    key = rows * ncols + col[src]
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    values = np.add.reduceat((coeff[src] * coeffs % p)[order], starts) % p
    nonzero = values != 0
    rows, cols = np.divmod(key[starts[nonzero]], ncols)
    return SparseMatrix(ring.field, rows, cols, values[nonzero], len(row_ranks), ncols)


def graded_map_matrix(
    ring: HypersurfaceRing, gens: Sequence, m: int
) -> PrimeFieldMatrix:
    """Matrix of (v_i) |-> sum g_i * v_i from ⊕_i R_{m-e_i} to R_m:
    ``graded_map_entries``, dense.

    Columns run over the generators in order and, within one generator, over
    monomial_basis(ring, m - e_i); rows over monomial_basis(ring, m).
    Generators of degree > m contribute empty blocks.
    """
    entries = graded_map_entries(ring, gens, m)
    arr = np.zeros((entries.nrows, entries.ncols), dtype=ring.field.dtype)
    arr[entries.rows, entries.cols] = entries.values
    return PrimeFieldMatrix(ring.field, arr)


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-zA-Z]\w*)|([-+*^]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            raise SpecParseError(f"bad character in polynomial: {text[pos:]!r}")
        num, name, op = match.groups()
        if num is not None:
            tokens.append(("num", int(num)))
        elif name is not None:
            tokens.append(("var", name))
        else:
            tokens.append(("op", op))
        pos = match.end()
    return tokens


def parse_polynomial(field: PrimeField, nvars: int, text: str) -> Polynomial:
    """Parse ``3*x^2*y + z^4`` style input.

    Variables are x1..xs always, plus x,y,z,w when s <= 4; '*' between
    factors is optional; coefficients are integers reduced mod p.
    """
    names = {f"x{i + 1}": i for i in range(nvars)}
    if nvars <= 4:
        for i, n in enumerate(_var_names(nvars)):
            names[n] = i
    tokens = _tokenize(text)
    if not tokens:
        raise SpecParseError("empty polynomial")
    result = {}
    pos = 0

    def term(pos: int):
        coeff = 1
        expo = [0] * nvars
        saw_factor = False
        pending_star = False
        while pos < len(tokens):
            kind, val = tokens[pos]
            if kind == "op":
                if val == "*":
                    if not saw_factor or pending_star:
                        raise SpecParseError("misplaced '*'")
                    pending_star = True
                    pos += 1
                    continue
                break
            pending_star = False
            if kind == "num":
                coeff *= val
                pos += 1
            else:
                if val not in names:
                    raise SpecParseError(f"unknown variable {val!r}")
                e = 1
                pos += 1
                if pos < len(tokens) and tokens[pos] == ("op", "^"):
                    pos += 1
                    if pos >= len(tokens) or tokens[pos][0] != "num":
                        raise SpecParseError("missing exponent after '^'")
                    e = tokens[pos][1]
                    pos += 1
                expo[names[val]] += e
            saw_factor = True
        if not saw_factor or pending_star:
            raise SpecParseError("incomplete term")
        return coeff, tuple(expo), pos

    sign = 1
    if tokens[0] == ("op", "-"):
        sign = -1
        pos = 1
    elif tokens[0] == ("op", "+"):
        pos = 1
    while True:
        coeff, mono, pos = term(pos)
        result[mono] = result.get(mono, 0) + sign * coeff
        if pos == len(tokens):
            break
        kind, val = tokens[pos]
        if kind != "op" or val not in "+-":
            raise SpecParseError(f"expected '+' or '-' at {val!r}")
        sign = 1 if val == "+" else -1
        pos += 1
        if pos == len(tokens):
            raise SpecParseError("dangling sign")
    return Polynomial(field, nvars, result)


def _parse_kv(body: str, allowed: set) -> dict:
    out = {}
    for chunk in body.split(","):
        if not chunk:
            continue
        key, eq, value = chunk.partition("=")
        if not eq:
            raise SpecParseError(f"expected key=value, got {chunk!r}")
        key = key.strip()
        if key not in allowed:
            raise SpecParseError(f"unknown key {key!r}")
        if key in out:
            raise SpecParseError(f"duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _int_field(kv: dict, key: str) -> int:
    if key not in kv:
        raise SpecParseError(f"missing {key}=")
    try:
        return int(kv[key])
    except ValueError:
        raise SpecParseError(f"{key}= must be an integer") from None


def parse_ring_spec(text: str) -> HypersurfaceRing:
    """Build a ring from ``fermat:s=3,d=4,p=7``,
    ``hypersurface:s=3,p=7,f=x^3+y^3+z^3`` or ``polyring:s=2,p=5``."""
    kind, colon, body = text.strip().partition(":")
    kind = kind.strip()
    if not colon:
        raise SpecParseError("ring spec needs the form kind:key=value,...")
    try:
        if kind == "fermat":
            kv = _parse_kv(body, {"s", "d", "p"})
            field = PrimeField(_int_field(kv, "p"))
            s = _int_field(kv, "s")
            d = _int_field(kv, "d")
            if s < 1 or d < 1:
                raise SpecParseError("need s >= 1 and d >= 1")
            terms = {
                tuple(d if j == i else 0 for j in range(s)): 1 for i in range(s)
            }
            return HypersurfaceRing(field, s, Polynomial(field, s, terms))
        if kind == "hypersurface":
            kv = _parse_kv(body, {"s", "p", "f"})
            field = PrimeField(_int_field(kv, "p"))
            s = _int_field(kv, "s")
            if "f" not in kv:
                raise SpecParseError("missing f=")
            return HypersurfaceRing(field, s, parse_polynomial(field, s, kv["f"]))
        if kind == "polyring":
            kv = _parse_kv(body, {"s", "p"})
            return HypersurfaceRing(
                PrimeField(_int_field(kv, "p")), _int_field(kv, "s"), None
            )
    except ValueError as exc:
        raise SpecParseError(str(exc)) from None
    raise SpecParseError(f"unknown ring kind {kind!r}")
