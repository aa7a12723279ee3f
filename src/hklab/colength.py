"""Frobenius powers and total colengths.

The degree-m piece of R/J is the cokernel of the multiplication map
⊕_i R_{m-e_i} -> R_m, so its kernel, the degree-m syzygies of the generators
(``curves.cohomology_profile``), has dimension Σ_i dim R_{m-e_i} - dim R_m +
dim (R/J)_m.  On a plane curve R = F_p[x,y,z]/(f) every piece is closed
form: after a linear shift R is free over A = F_p[x,y], the syzygies form a
free A-module, and their generator degrees c_j come from one row reduction
of a polynomial matrix over F_p[y] (``_lattice_degrees``).  Every other
ring is ranked degree by degree, one build and one rank per degree, or
closed form where the syzygies vanish: below a degree where one rank shows
none, they vanish on every degree.  On a ring of positive Krull dimension
the colength loop ranks only from such a degree, at or below the last
degree whose map has more rows than columns, up to the first zero piece.
Standard grading makes vanishing hereditary, so the loop stops there.
Every colength is that of a Frobenius power J = I^[p^n], indexed by the
exponent n as in the limit ℓ(R/I^[p^n]) / p^(n·dim R).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from hklab.fp_linalg import PrimeField, reduced_row_degrees, sparse_rank
from hklab.graded import (
    HypersurfaceRing,
    Polynomial,
    SpecParseError,
    graded_map_entries,
    parse_polynomial,
)

__all__ = [
    "IdealSpec",
    "ColengthRecord",
    "NotPrimaryError",
    "SizeGuardError",
    "frobenius_power",
    "colength",
    "parse_ideal_spec",
]


class NotPrimaryError(ValueError):
    """The quotient never reached a zero graded piece: not primary."""


class SizeGuardError(RuntimeError):
    """A graded piece would need a matrix above the configured cap."""

    def __init__(self, m: int, rows: int, cols: int, cap: int) -> None:
        super().__init__(
            f"degree {m} needs a {rows}x{cols} matrix, above the cap {cap}"
        )
        self.m = m
        self.rows = rows
        self.cols = cols
        self.cap = cap

    @classmethod
    def for_degree(
        cls, ring: HypersurfaceRing, degrees: Sequence, m: int, cap: Optional[int]
    ) -> Optional["SizeGuardError"]:
        """The error for degree m of ⊕_i R_{m-e_i} -> R_m, e_i the generator
        degrees, when its matrix has more than ``cap`` rows or columns;
        None when it fits or there is no cap."""
        if cap is None:
            return None
        rows = ring.hilbert_dim(m)
        cols = sum(ring.hilbert_dim(m - e) for e in degrees)
        return cls(m, rows, cols, cap) if max(rows, cols) > cap else None


@dataclass(frozen=True)
class IdealSpec:
    """Homogeneous generators, zero ones dropped; their degrees are read
    off once."""

    generators: tuple
    degrees: tuple = field(init=False)

    def __post_init__(self) -> None:
        gens = tuple(g for g in self.generators if not g.is_zero)
        if not gens:
            raise ValueError("need at least one nonzero generator")
        if not all(g.is_homogeneous for g in gens):
            raise ValueError("generators must be nonzero homogeneous")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "degrees", tuple(g.degree for g in gens))

    @classmethod
    def maximal_ideal(cls, ring: HypersurfaceRing) -> "IdealSpec":
        return cls(tuple(Polynomial.variable(ring.field, ring.s, i) for i in range(ring.s)))

    @property
    def is_maximal(self) -> bool:
        """Whether the generators are nonzero multiples of the variables, one
        per variable: the form in which the maximal ideal is recognised (a
        basis change such as x+y, y, z is not)."""
        s = self.generators[0].nvars
        units = sorted((tuple(int(j == i) for j in range(s)),) for i in range(s))
        return sorted(tuple(g.terms) for g in self.generators) == units

    def canonical_string(self) -> str:
        return ",".join(sorted(str(g) for g in self.generators))


@dataclass(frozen=True)
class ColengthRecord:
    """Per-degree dimensions of R/I^[q], q = p^n, through the first zero
    piece, and the q-normalized total; ``from_dims`` builds every record."""

    p: int
    n: int
    q: int
    dims: tuple
    total: int
    normalized: Fraction

    @classmethod
    def from_dims(cls, p: int, n: int, dims: Sequence, krull_dim: int) -> "ColengthRecord":
        """The record of the pieces ``dims`` of R/I^[q], kept through the
        first zero piece: with standard grading R is generated in degree 1,
        so a zero piece of R/I^[q] makes every later piece zero.
        ValueError on a negative piece; NotPrimaryError when no piece is
        zero."""
        dims = tuple(dims)
        if any(v < 0 for v in dims):
            raise ValueError(f"negative piece {min(dims)}")
        if 0 not in dims:
            raise NotPrimaryError("not primary: no graded piece vanished by the cap")
        dims = dims[: dims.index(0) + 1]
        q, total = p**n, sum(dims)
        return cls(p, n, q, dims, total, Fraction(total, q**krull_dim))

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "q": self.q,
            "dims": list(self.dims),
            "total": self.total,
            "normalized": f"{self.normalized.numerator}/{self.normalized.denominator}",
        }


def frobenius_power(ring: HypersurfaceRing, ideal: IdealSpec, n: int) -> IdealSpec:
    """(f_1, ..., f_s) -> (f_1^q, ..., f_s^q) for q = p^n, p the ring's
    characteristic.

    In characteristic p the q-th power is additive and c^q = c on residues,
    so (Σ c_i x^a_i)^q = Σ c_i x^(q·a_i): one pass moves only the exponents.
    """
    if n < 0:
        raise ValueError(f"Frobenius exponent must be >= 0, got {n}")
    q = ring.field.p**n
    powers = []
    for g in ideal.generators:
        terms = {tuple(e * q for e in m): c for m, c in g.terms.items()}
        powers.append(Polynomial(g.field, g.nvars, terms))
    return IdealSpec(tuple(powers))


def colength(
    ring: HypersurfaceRing,
    ideal: IdealSpec,
    n: int = 0,
    max_dim: Optional[int] = None,
) -> ColengthRecord:
    """Total dimension of R/I^[p^n], through its first zero piece.

    With standard grading all later pieces vanish too; if none occurs up to
    sum(deg g_i) + d + 1, g_i the generators of J = I^[p^n], the ideal is
    not primary to the irrelevant maximal ideal.  SizeGuardError.for_degree
    gives the shape of each degree's map; a guard raises where a loop over
    every degree would, at the first degree through the record's end whose
    map exceeds the cap, and before any degree at or past it is built.

    On a plane curve R = F_p[x,y,z]/(f) of degree d, with two or more
    generators outside (f), for the maximal ideal or n >= 1, every piece
    is closed form.  x -> x + s·z, y -> y + t·z with f(s, t, 1) != 0 makes
    f monic in z (``_NoetherModule``), so R = ⊕_{k<d} A·z^k is free over A
    = F_p[x,y], and R/J is the cokernel of Ψ: ⊕_{i,j<d} A(-E_i-j) ->
    ⊕_{k<d} A(-k), column (i, j) the coordinates of G_i·z^j, for any
    generators G_i of J of degrees E_i.  J contains x^ex and y^ey: x^q and
    y^q for m^[q], which does not depend on coordinates, and otherwise a
    generator that is a power of x or y, or the q-th powers of x^N and
    y^N, N the end of R/I, since (R/I)_N = 0 puts every form of degree N
    in I.  Adding them to the generators leaves J as it is.

    Exactness.  R/J has finite length, so depth 0 and, over the regular
    ring A of dimension 2, projective dimension 2 (Auslander–Buchsbaum).
    Hence K = ker Ψ is free, of rank (k-1)·d for k generators since R/J
    has rank 0: K = ⊕_j A(-c_j), and

        dim (R/J)_m = dim R_m - Σ_i dim R_{m-E_i} + Σ_j (m - c_j + 1)_+.

    Setting x = 1 sends the degree-m part of K one to one onto the
    vectors of F_p[y]-syzygies whose entry (i, j) has degree at most m -
    E_i - j, a bound homogenization inverts.  x^ex becomes the identity,
    so the rows (-Ψ_i[:, j] | e_(i,j)), i >= 2, are an F_p[y]-basis of the
    syzygies.  Once that basis is row-reduced for the column shifts E_i +
    j, a combination Σ u_r·b_r has shifted degree max_r(deg u_r + c_r), c_r
    the shifted degree of b_r (the predictable-degree property: Forney,
    SIAM J. Control 13, 1975; Kailath, Linear Systems, 1980).  So the
    degree-m syzygies have dimension Σ_r (m - c_r + 1)_+, and the c_r of
    ``reduced_row_degrees`` are the c_j.

    The lattice size-checks the degrees below the lowest generator degree,
    where every piece is R_m != 0, before it builds anything, and the
    degrees from there through the record's end after the reduction.
    It takes every plane curve but those ``_NoetherModule.of`` refuses.
    Every other case is ranked, each degree's map built by
    ``graded_map_entries`` and ranked by ``sparse_rank``; a degree below
    every generator degree needs neither.

    On the rings the lattice leaves (``_below_window`` names them), of
    positive Krull dimension and with at least two generators outside (f),
    only the degrees above L0, the last degree with h0 = 0, are ranked up
    to the first zero piece, plus a few probes.  With e_i = deg g_i,
    dim (R/J)_m = dim R_m - Σ_i dim R_{m-e_i} + h0(m), where h0(m) counts
    the degree-m syzygies of the g_i.  h0 cannot rise as m falls: over the
    algebraic closure some linear form ℓ does not divide f, so it is a
    nonzerodivisor on R, multiplying by ℓ maps the degree-m syzygies
    injectively into the degree-(m+1) ones, and ranks do not change under
    field extension.  So every piece of 0..L0 is closed form, and
    ``_below_window`` finds L0; the loop reuses its probes' ranks.  An
    ideal that is not primary never reaches a zero piece and raises
    NotPrimaryError.  Krull dimension 0, where no linear form is a
    nonzerodivisor, and a single generator rank every degree.
    """
    frob = frobenius_power(ring, ideal, n)
    top = sum(frob.degrees) + (ring.d or 0) + 1
    # Generators in (f) add only zero columns.  The others go in unreduced:
    # graded_map_entries reduces each product, which gives the same matrix.
    # With none left, R/J = R, which has finite length only in Krull
    # dimension 0; there the map has no columns and rank 0.
    outside = [(g, h) for g, h in zip(ideal.generators, frob.generators) if not _in_relation(ring, h)]
    gens = [h for _, h in outside]
    if not gens and ring.krull_dim > 0:
        raise NotPrimaryError(
            "not primary: every generator lies in the relation ideal"
        )
    degrees = [g.degree for g in gens]
    if len(degrees) > 1 and (n or ideal.is_maximal):
        record = _lattice_record(ring, ideal, [g for g, _ in outside], n, degrees, max_dim)
        if record is not None:
            return record
    piece = functools.partial(_piece_dim, ring, gens)
    dims = []
    if ring.krull_dim > 0 and len(degrees) > 1:
        piece = functools.cache(piece)  # the window search's probes above L0 serve the loop too
        dims = _below_window(ring, degrees, piece, max_dim)
    for m in range(len(dims), top + 1):
        _check_size(ring, degrees, m, max_dim)
        if not any(ring.hilbert_dim(m - e) for e in degrees):  # no columns: (R/J)_m = R_m
            dims.append(ring.hilbert_dim(m))
        else:
            dims.append(piece(m))
        if dims[-1] == 0:  # later pieces are zero too
            break
    return ColengthRecord.from_dims(ring.field.p, n, dims, ring.krull_dim)


def _in_relation(ring: HypersurfaceRing, g: Polynomial) -> bool:
    """Whether g lies in (f).  A monomial does exactly when f is one term
    that divides it, which needs no normal form."""
    if len(g.terms) > 1:
        return ring.normal_form(g).is_zero
    if ring.relation is None or len(ring.relation.terms) > 1:
        return False
    (lead,) = ring.relation.terms
    (mono,) = g.terms
    return all(a <= b for a, b in zip(lead, mono))


def _check_size(ring: HypersurfaceRing, degrees: Sequence, m: int, cap: Optional[int]) -> None:
    """Raise the SizeGuardError of degree m if it trips."""
    trip = SizeGuardError.for_degree(ring, degrees, m, cap)
    if trip is not None:
        raise trip


def _free_part(ring: HypersurfaceRing, degrees: Sequence, m: int) -> int:
    """dim R_m - Σ_i dim R_{m-e_i}: rows minus columns of degree m's map,
    and dim (R/J)_m wherever there is no degree-m syzygy."""
    return ring.hilbert_dim(m) - sum(ring.hilbert_dim(m - e) for e in degrees)


def _below_window(ring: HypersurfaceRing, degrees: Sequence, piece, max_dim: Optional[int]) -> list:
    """dim (R/J)_m, J generated in ``degrees``, for m = 0..L0, all closed
    form; ``piece(m)`` ranks degree m.  ``colength`` calls it on the rings
    its lattice leaves: two variables, four or more, polynomial rings, plane
    curves ``_NoetherModule.of`` refuses, and n = 0 for an ideal other than m.

    The walk starts at the last degree of the run 0, 1, 2, ... whose
    matrices have more rows than columns, each size-checked on the way up,
    moves down by 1, 2, 4, ... while h0 > 0, and then bisects between the
    last start with h0 > 0 and the first with h0 = 0.  h0 is nonnegative
    and nondecreasing, so this finds L0, the last degree at or below the
    start with h0 = 0; below the lowest generator degree h0 = 0 needs no
    rank.  A degree with h0 > 0 has a nonzero piece, so the record runs
    past every probe, and the size checks of the walk up, made before
    anything is built, are ones a loop over every degree makes too.  With
    k >= 2 generators, rows minus columns behaves like (1-k)·c·m^(δ-1) for
    large m, where c·m^(δ-1) leads dim R_m and δ >= 1 is the Krull
    dimension, so it turns negative and the walk up ends; with k = 1 and
    δ >= 2 it stays positive.
    """
    free = []  # rows minus columns of degrees 0..start
    while (part := _free_part(ring, degrees, len(free))) > 0:
        _check_size(ring, degrees, len(free), max_dim)
        free.append(part)

    def vanishes(m: int) -> bool:  # h0(m) = 0
        return m < min(degrees) or piece(m) == free[m]

    high, low, step = len(free), len(free) - 1, 1
    while not vanishes(low):
        high, low, step = low, low - step, 2 * step
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if vanishes(mid) else (low, mid)
    return free[: low + 1]


def _piece_dim(ring: HypersurfaceRing, gens: Sequence, m: int) -> int:
    """dim (R/J)_m from one build and one rank."""
    return ring.hilbert_dim(m) - sparse_rank(graded_map_entries(ring, gens, m))


class _NoetherModule:
    """R/y^L·R for a plane curve R = F_p[x,y,z]/(f), after a linear shift.

    x -> x + s·z, y -> y + t·z turns the coefficient of z^d in f into f(s,
    t, 1); with f(s, t, 1) != 0, f is monic in z after scaling: z^d =
    Σ_{i<d} c_i·z^i with c_i a binary form of degree d - i (``tail``).  Then
    R is free over A = F_p[x,y] with basis 1, z, ..., z^(d-1) (Noether
    normalization), and an element of R/y^L·R homogeneous of degree N is a
    (d, L) array: row k is the binary form of degree N - k at z^k, entry b
    the coefficient of x^(N-k-b)·y^b.  y^b with b >= L is zero and not
    stored; truncating there is a ring map A -> A/y^L, so every stored
    entry is exact.  np.convolve sums at most L products of residues in
    int64, hence the bound L·(p-1)^2 < 2^63.
    """

    def __init__(self, field: PrimeField, length: int, shift: tuple, tail: tuple) -> None:
        self.field = field
        self.length = length
        self.shift = shift
        self.tail = tail

    @classmethod
    def of(cls, ring: HypersurfaceRing, length: int) -> Optional["_NoetherModule"]:
        """The module of a plane curve for ``length``, after the first shift
        (s, t) with f(s, t, 1) != 0, t and then s counted up from 0; None
        off a plane curve (three variables, one relation), when f(s, t, 1)
        = 0 on all of F_p^2, and when length·(p-1)^2 >= 2^63.  f(s, t, 1)
        has degree at most d in s, so when s = 0..d all miss for one t,
        every s does."""
        p, f = ring.field.p, ring.relation
        if ring.s != 3 or f is None or length * (p - 1) ** 2 >= 1 << 63:
            return None
        for t in range(p):
            for s in range(min(p, f.degree + 1)):
                if sum(c * s**a * t**b for (a, b, _), c in f.terms.items()) % p:
                    shifted = _shifted_terms(f, s, t)
                    coeffs = np.zeros((f.degree + 1, f.degree + 1), dtype=np.int64)
                    for (_, b, e), c in shifted.items():
                        coeffs[e, b] = c
                    scale = -pow(int(coeffs[f.degree, 0]), -1, p)  # 1 / f(s, t, 1)
                    tail = tuple(coeffs[k, : f.degree - k + 1] * scale % p for k in range(f.degree))
                    return cls(ring.field, length, (s, t), tail)
        return None

    def power(self, e: int) -> np.ndarray:
        """z^e, by repeated squaring from 1.  The forms of z^k have no
        y^b past b = k, so each square convolves only that many columns."""
        power, k = np.zeros((len(self.tail), self.length), dtype=np.int64), 0
        power[0, 0] = 1
        for bit in bin(e)[2:]:
            power, k = self._square(power[:, : k + 1]), 2 * k
            if bit == "1":
                power, k = self._times_z(power), k + 1
        return power

    def columns(self, terms: dict, q: int) -> np.ndarray:
        """C[j] = G^q·z^j for j < d, where G = Σ c·x^a·y^b·z^e is ``terms``
        in the shifted coordinates: Frobenius moves only exponents, so G^q
        = Σ c·x^(aq)·y^(bq)·z^(eq), and x is set to 1."""
        d, width, p = len(self.tail), self.length, self.field.p
        out = np.zeros((d, d, width), dtype=np.int64)
        powers = {}
        for (_, b, e), c in terms.items():
            if b * q >= width:
                continue
            w = powers.get(e)
            if w is None:
                w = powers[e] = self.power(e * q)
            for j in range(d):
                out[j, :, b * q :] = (out[j, :, b * q :] + c * w[:, : width - b * q]) % p
                w = self._times_z(w)
        return out

    def _square(self, u: np.ndarray) -> np.ndarray:
        d, width, p = len(self.tail), self.length, self.field.p
        w = np.zeros((2 * d - 1, width), dtype=np.int64)
        for k in range(d):
            for j in range(d):
                product = np.convolve(u[k], u[j])[:width] % p
                w[k + j, : len(product)] += product
        return self._reduce(w % p)

    def _times_z(self, u: np.ndarray) -> np.ndarray:
        w = np.zeros((len(u) + 1, self.length), dtype=np.int64)
        w[1:] = u
        return self._reduce(w)

    def _reduce(self, w: np.ndarray) -> np.ndarray:
        """Σ_e w[e]·z^e, residues, in the basis z^k, k < d: z^e =
        z^(e-d)·Σ_i c_i·z^i, from the top e down."""
        d, width, p = len(self.tail), self.length, self.field.p
        for e in range(len(w) - 1, d - 1, -1):
            for i, c in enumerate(self.tail):
                w[e - d + i] += np.convolve(w[e], c)[:width] % p
            w[e - d : e] %= p
        return w[:d]


def _shifted_terms(g: Polynomial, s: int, t: int) -> dict:
    """g(x + s·z, y + t·z, z) as {(a, b, e): c}."""
    p, out = g.field.p, {}
    for (a, b, e), c in g.terms.items():
        for i in range(a + 1):
            for j in range(b + 1):
                term = c * math.comb(a, i) * s ** (a - i) * math.comb(b, j) * t ** (b - j)
                key = (i, j, a - i + b - j + e)
                out[key] = (out.get(key, 0) + term) % p
    return {key: c for key, c in out.items() if c}


def _pure_power(terms: dict, i: int) -> int:
    """a when ``terms`` is one term c·x_i^a, else 0."""
    if len(terms) != 1:
        return 0
    (mono,) = terms
    return mono[i] if sum(mono) == mono[i] else 0


def _lattice_record(
    ring: HypersurfaceRing, ideal: IdealSpec, gens: Sequence, n: int, degrees: Sequence, max_dim: Optional[int]
) -> Optional[ColengthRecord]:
    """The record of R/J, J = I^[q], on a plane curve, read off the
    syzygy degrees of ``_lattice_degrees`` (see ``colength``); None when
    ``_NoetherModule.of`` refuses the ring.  ``gens`` are the generators of
    I whose q-th powers lie outside (f), ``degrees`` those powers'
    degrees."""
    p = ring.field.p
    q, d = p**n, ring.d
    module = _NoetherModule.of(ring, q)
    if module is None:
        return None
    low = min(degrees)
    for m in range(low):  # below every generator degree each piece is R_m != 0
        _check_size(ring, degrees, m, max_dim)
    if ideal.is_maximal:  # m^[q] = (x^q, y^q, z^q) in any coordinates
        terms = [{(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}]
    else:
        terms = [_shifted_terms(g, *module.shift) for g in gens]
    # x^ex and y^ey lie in J: the least powers of x and y among the
    # generators, or else the q-th powers of x^N and y^N, N the end of R/I,
    # which lie in I since (R/I)_N = 0
    ends = [min((q * a for a in (_pure_power(g, i) for g in terms) if a), default=0) for i in (0, 1)]
    if not all(ends):
        try:
            end = q * (len(colength(ring, ideal, 0).dims) - 1)
        except NotPrimaryError:  # R/J has no end: a loop over every degree trips first
            for m in range(low, sum(degrees) + d + 2):
                _check_size(ring, degrees, m, max_dim)
            raise
        ends = [e or end for e in ends]
    ex, ey = ends
    if ey > q and (module := _NoetherModule.of(ring, ey)) is None:
        return None
    shifts, c = _lattice_degrees(module, terms, q, ex, ey)
    m = np.arange(ex + ey + d)[:, None]  # R/(x^ex, y^ey) ends at ex + ey + d - 3

    def free(x):  # Σ_x dim A_(m - x), the Hilbert function of ⊕_x A(-x)
        return np.maximum(m - np.asarray(x) + 1, 0).sum(axis=1)

    dims = free(np.arange(d)) - free(shifts) + free(c)
    record = ColengthRecord.from_dims(p, n, dims.tolist(), ring.krull_dim)
    for m in range(low, len(record.dims)):
        _check_size(ring, degrees, m, max_dim)
    return record


def _lattice_degrees(module: _NoetherModule, terms: Sequence, q: int, ex: int, ey: int) -> tuple:
    """(shifts, c): the degrees E_i + j of the columns (i, j) of Ψ, and the
    sorted degrees c_j of a basis of its kernel, for the generators x^ex,
    y^ey and the q-th powers of ``terms`` other than those two.  A
    generator of two or more terms is left out when the q-th power of each
    term lies in (x^ex, y^ey) or in the q-th power of a one-term
    generator, since J is the same without it.

    With x = 1, x^ex acts as the identity, so the rows (-C_i[j] | e_(i,j)),
    i >= 1, are a basis of the kernel over F_p[y], C_i[j] the column of
    G_i·z^j.  Block 1 is y^ey, whose columns y^ey·e_j are kept whole; the
    later blocks' columns are taken mod y^ey, which adds multiples of
    block 1's columns to them and changes neither J nor the kernel's
    degrees.  ``reduced_row_degrees`` row-reduces the basis, t-major:
    rows[r, t, c] is the coefficient of y^(t + base - shifts[c]) in column
    c of row r.
    """
    p, d = module.field.p, len(module.tail)
    monomials = [m for g in terms if len(g) == 1 for m in g]

    def covered(t):  # t^q lies in (x^ex, y^ey) or in a monomial generator's q-th power
        return t[0] * q >= ex or t[1] * q >= ey or any(all(u >= v for u, v in zip(t, m)) for m in monomials)

    kept = [
        g
        for g in terms
        if q * _pure_power(g, 0) != ex and q * _pure_power(g, 1) != ey and not (len(g) > 1 and all(map(covered, g)))
    ]
    shifts = np.add.outer([ex, ey] + [q * sum(next(iter(g))) for g in kept], np.arange(d)).ravel()
    base = int(shifts.min())
    width = max(ex + ey + d, shifts.max() + 1) - base  # past every entry of every row
    rows = np.zeros(((len(kept) + 1) * d, width, (len(kept) + 2) * d), dtype=np.int64)
    j = np.arange(d)
    rows[j, ey + ex + j - base, j] = p - 1
    for i, g in enumerate([None] + kept):
        r, col = i * d + j, (i + 1) * d + j
        rows[r, shifts[col] - base, col] = 1
        if g is not None:
            block = module.columns(g, q)
            for k in range(d):
                rows[r, ex + k - base : ex + k - base + ey, k] = -block[:, k] % p
    return shifts, sorted(t + base for t in reduced_row_degrees(module.field, rows))


def parse_ideal_spec(ring: HypersurfaceRing, text: str) -> IdealSpec:
    """``maximal`` or a comma-separated list of homogeneous polynomials."""
    text = text.strip()
    if text == "maximal":
        return IdealSpec.maximal_ideal(ring)
    gens = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise SpecParseError("empty generator in ideal list")
        gens.append(parse_polynomial(ring.field, ring.s, chunk))
    try:
        return IdealSpec(gens)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from None
