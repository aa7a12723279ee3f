"""Frobenius powers and total colengths.

The degree-m piece of R/J is the cokernel of the multiplication map
⊕_i R_{m-e_i} -> R_m, so its kernel, the degree-m syzygies of the generators
(``curves.cohomology_profile``), has dimension Σ_i dim R_{m-e_i} - dim R_m +
dim (R/J)_m.  A piece is one rank computation, or closed form where the
syzygies vanish: below a degree where one rank shows none, they vanish on
every degree.  On a ring of positive Krull dimension the colength loop
ranks only from such a degree, at or below the last degree whose map has
more rows than columns, up to the first zero piece.  Every ranked degree
is one build and one rank.  Standard grading makes vanishing hereditary,
so the loop stops there.  For the maximal ideal of a plane curve those
ranks use no normal forms: after a linear change of coordinates R is free
over F_p[x,y] (Noether normalization), R/m^[q] is R/(x^q, y^q)·R modulo
z^q, and each degree's map is a d×d grid of Toeplitz blocks of binary forms
(``_NoetherModule``).  Every colength is that of a Frobenius power J =
I^[p^n], indexed by the exponent n as in the limit ℓ(R/I^[p^n]) /
p^(n·dim R).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from hklab.fp_linalg import PrimeField, dense_rank, sparse_rank
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
    """Total dimension of R/I^[p^n], summed degree by degree.

    Stops at the first zero piece (with standard grading all later pieces
    vanish too); if none occurs up to sum(deg g_i) + d + 1, g_i the
    generators of J = I^[p^n], the ideal is not primary to the irrelevant
    maximal ideal.  Each ranked degree is one build and one rank: its map
    is built by ``graded_map_entries`` and ranked by ``sparse_rank``; a
    degree below every generator degree needs neither.
    SizeGuardError.for_degree checks every degree in order through the
    record's end, ranked or not, so a guard raises where a loop over every
    degree would, and before any degree at or past it is built.

    On a ring of positive Krull dimension with at least two generators
    outside (f), only the degrees above L0, the last degree with h0 = 0,
    are ranked up to the first zero piece, plus a few probes.  With e_i =
    deg g_i, dim (R/J)_m = dim R_m - Σ_i dim R_{m-e_i} + h0(m), where
    h0(m) counts the degree-m syzygies of the g_i.  h0 cannot rise as m
    falls: over the algebraic closure some linear form ℓ does not divide
    f, so it is a nonzerodivisor on R, multiplying by ℓ maps the degree-m
    syzygies injectively into the degree-(m+1) ones, and ranks do not
    change under field extension.  So every piece of 0..L0 is closed form,
    and ``_below_window`` finds L0; the loop reuses its probes' ranks.  An
    ideal that is not primary never reaches a zero piece and raises
    NotPrimaryError.  Krull dimension 0, where no linear form is a
    nonzerodivisor, and a single generator rank every degree.

    For the maximal ideal of a plane curve, ``_noether_matrix`` builds each
    ranked degree in place of ``graded_map_entries``, from z^q, ...,
    z^(q+d-1) in R/(x^q, y^q)·R, computed once the size checks of the walk
    up have passed, and ``dense_rank`` ranks it.  Rings where f(s, t, 1) = 0
    on all of F_p^2, or where q·(p-1)^2 reaches 2^63, keep the generic
    builder.
    """
    frob = frobenius_power(ring, ideal, n)
    top = sum(frob.degrees) + (ring.d or 0) + 1
    # Generators in (f) add only zero columns.  The others go in unreduced:
    # graded_map_entries reduces each product, which gives the same matrix.
    # With none left, R/J = R, which has finite length only in Krull
    # dimension 0; there the map has no columns and rank 0.
    gens = [g for g in frob.generators if not _in_relation(ring, g)]
    if not gens and ring.krull_dim > 0:
        raise NotPrimaryError(
            "not primary: every generator lies in the relation ideal"
        )
    degrees = [g.degree for g in gens]
    piece = functools.partial(_piece_dim, ring, gens)
    dims = []
    if ring.krull_dim > 0 and len(degrees) > 1:
        module = _NoetherModule.of(ring, ring.field.p**n) if ideal.is_maximal else None
        if module is not None:
            piece = functools.partial(_noether_dim, module)
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
    form; ``piece(m)`` ranks degree m.

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
    """R/(x^q, y^q)·R for a plane curve R = F_p[x,y,z]/(f), on which
    R/m^[q] is the quotient by z^q.

    m^[q] = (x^q, y^q, z^q) does not depend on coordinates, since (x + s·z)^q
    = x^q + s·z^q over F_p.  So x -> x + s·z, y -> y + t·z, which turns the
    coefficient of z^d in f into f(s, t, 1), leaves the colength alone, and
    with f(s, t, 1) != 0 makes f monic in z after scaling: z^d = Σ_{i<d}
    c_i·z^i with c_i a binary form of degree d - i (``tail``).  Then R is
    free over S = F_p[x,y] with basis 1, z, ..., z^(d-1) (Noether
    normalization), and R/(x^q, y^q)·R is M = ⊕_{k<d} A·z^k with A =
    S/(x^q, y^q).  Its degree-N elements are (d, q) arrays: row k is the
    binary form of degree N - k at z^k, entry b the coefficient of
    x^(N-k-b)·y^b.  y^b with b >= q is zero in A and not stored.  An entry
    whose x exponent is q or more is zero in A too; it is kept, since
    products never move it to a smaller x exponent, and no map reads it.
    """

    def __init__(self, field: PrimeField, q: int, tail: tuple) -> None:
        self.field = field
        self.q = q
        self.tail = tail

    @classmethod
    def of(cls, ring: HypersurfaceRing, q: int) -> Optional["_NoetherModule"]:
        """The module of a plane curve at q, after the first shift (s, t)
        with f(s, t, 1) != 0, t and then s counted up from 0; None off a
        plane curve (three variables, one relation) and when f(s, t, 1) =
        0 on all of F_p^2.  f(s, t, 1) has degree at most d in s, so when
        s = 0..d all miss for one t, every s does.  None as well when
        q·(p-1)^2 >= 2^63: np.convolve sums at most q products of residues
        in int64."""
        p, f = ring.field.p, ring.relation
        if ring.s != 3 or f is None or q * (p - 1) ** 2 >= 1 << 63:
            return None
        for t in range(p):
            for s in range(min(p, f.degree + 1)):
                if sum(c * s**a * t**b for (a, b, _), c in f.terms.items()) % p:
                    return cls(ring.field, q, _shifted_tail(f, s, t))
        return None

    @functools.cached_property
    def powers(self) -> np.ndarray:
        """W[j, k], the binary form of degree q + j - k at z^k in z^(q+j),
        for j, k < d: z^q by repeated squaring from 1, then one factor z
        at a time."""
        d, q = len(self.tail), self.q
        power, degree = np.zeros((d, q), dtype=np.int64), 0
        power[0, 0] = 1
        for bit in bin(q)[2:]:
            power, degree = self._times(power, power), 2 * degree
            if bit == "1":
                power, degree = self._times_z(power), degree + 1
        powers = [power]
        while len(powers) < d:
            powers.append(self._times_z(powers[-1]))
        return np.stack(powers)

    def _times(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        d, q, p = len(self.tail), self.q, self.field.p
        w = np.zeros((2 * d - 1, q), dtype=np.int64)
        for k in range(d):
            for j in range(d):
                w[k + j] += np.convolve(u[k], v[j])[:q] % p
        return self._reduce(w % p)

    def _times_z(self, u: np.ndarray) -> np.ndarray:
        w = np.zeros((len(u) + 1, self.q), dtype=np.int64)
        w[1:] = u
        return self._reduce(w)

    def _reduce(self, w: np.ndarray) -> np.ndarray:
        """Σ_e w[e]·z^e, residues, in the basis z^k, k < d: z^e =
        z^(e-d)·Σ_i c_i·z^i, from the top e down."""
        d, q, p = len(self.tail), self.q, self.field.p
        for e in range(len(w) - 1, d - 1, -1):
            for i, c in enumerate(self.tail):
                w[e - d + i] += np.convolve(w[e], c)[:q] % p
            w[e - d : e] %= p
        return w[:d]


def _shifted_tail(f: Polynomial, s: int, t: int) -> tuple:
    """c_0..c_{d-1} with z^d = Σ_i c_i·z^i modulo f(x + s·z, y + t·z, z),
    c_i as ``_NoetherModule`` stores a binary form of degree d - i."""
    p, d = f.field.p, f.degree
    coeffs = [[0] * (d - k + 1) for k in range(d + 1)]
    for (a, b, e), c in f.terms.items():
        for i in range(a + 1):
            for j in range(b + 1):
                term = c * math.comb(a, i) * s ** (a - i) * math.comb(b, j) * t ** (b - j)
                coeffs[a - i + b - j + e][j] += term
    scale = -pow(coeffs[d][0], -1, p)  # coeffs[d][0] = f(s, t, 1)
    return tuple(np.array(row, dtype=np.int64) * scale % p for row in coeffs[:d])


def _span(t: int, q: int) -> np.ndarray:
    """The y exponents b of the monomials x^(t-b)·y^b of A = F_p[x,y]/(x^q,
    y^q) in degree t."""
    return np.arange(max(0, t - q + 1), min(t, q - 1) + 1)


def _noether_matrix(module: _NoetherModule, m: int) -> np.ndarray:
    """Multiplication by z^q from M_{m-q} to M_m, residues in a dense
    matrix.  Row (k, b') is x^(m-k-b')·y^b'·z^k and column (j, b) is
    x^(m-q-j-b)·y^b·z^j; the entry is the coefficient of y^(b'-b) in
    W[j, k], so each of the d×d blocks is Toeplitz.  b' - b > -q, and b' -
    b < q as well, so W with q zeros in front holds every entry."""
    q, d = module.q, len(module.tail)
    w = np.pad(module.powers, ((0, 0), (0, 0), (q, 0)))
    into = [_span(m - k, q) for k in range(d)]
    out_of = [_span(m - q - j, q) for j in range(d)]
    k = np.repeat(np.arange(d), [len(b) for b in into])
    j = np.repeat(np.arange(d), [len(b) for b in out_of])
    shift = np.concatenate(into)[:, None] - np.concatenate(out_of)[None, :]
    return w[j[None, :], k[:, None], shift + q]


def _noether_dim(module: _NoetherModule, m: int) -> int:
    """dim (R/m^[q])_m = dim M_m - rank(z^q: M_{m-q} -> M_m)."""
    matrix = _noether_matrix(module, m)
    return len(matrix) - dense_rank(module.field, matrix)


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
