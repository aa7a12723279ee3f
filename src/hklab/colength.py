"""Frobenius powers and total colengths.

Everything is one rank computation per degree: the degree-m piece of R/J is
the cokernel of the multiplication map ⊕_i R_{m-e_i} -> R_m, so its kernel,
the degree-m syzygies of the generators (``curves.cohomology_profile``), has
dimension Σ_i dim R_{m-e_i} - dim R_m + dim (R/J)_m.  Standard grading makes
vanishing hereditary, so the colength loop stops at the first zero piece.
Every colength is that of a Frobenius power J = I^[p^n], indexed by the
exponent n as in the limit ℓ(R/I^[p^n]) / p^(n·dim R).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from hklab.fp_linalg import block_ranks
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

# Degrees ranked together hold at most this many matrix cells in all.  For
# the colengths of m^[p] on x^2+y^2+z^2 at p = 61 and 67 (2 vCPUs, medians
# of 9 fresh processes), runs of 2^16, 2^17, 2^18 and unbounded cells took
# 0.074, 0.058, 0.064 and 0.073 s against 0.13 s one degree at a time, and
# raised diag-session's peak RSS by 0.0, 0.5, 1.8 and 4.0 MB.
_RUN_CELLS = 1 << 17


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
        NotPrimaryError when no piece is zero."""
        dims = tuple(dims)
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

    @classmethod
    def from_json_dict(cls, data: dict) -> "ColengthRecord":
        num, _, den = data["normalized"].partition("/")
        return cls(
            p=int(data["p"]),
            n=int(data["n"]),
            q=int(data["q"]),
            dims=tuple(int(v) for v in data["dims"]),
            total=int(data["total"]),
            normalized=Fraction(int(num), int(den)),
        )


def frobenius_power(ring: HypersurfaceRing, ideal: IdealSpec, n: int) -> IdealSpec:
    """(f_1, ..., f_s) -> (f_1^q, ..., f_s^q) for q = p^n, p the ring's
    characteristic.

    Computed by n-fold p-th powering: in characteristic p the p-th power is
    additive, so each step just multiplies exponents by p.
    """
    if n < 0:
        raise ValueError(f"Frobenius exponent must be >= 0, got {n}")
    gens = ideal.generators
    for _ in range(n):
        gens = tuple(g.pth_power() for g in gens)
    return IdealSpec(gens)


def colength(
    ring: HypersurfaceRing,
    ideal: IdealSpec,
    n: int = 0,
    max_dim: Optional[int] = None,
) -> ColengthRecord:
    """Total dimension of R/I^[p^n], summed degree by degree.

    Stops at the first zero piece (with standard grading all later pieces
    vanish too); if none occurs up to sum(deg g_i) + d + 1, g_i the
    generators of I^[p^n], the ideal is not primary to the irrelevant
    maximal ideal.  Each degree's map is built by ``graded_map_entries``
    and ranked by ``block_ranks``; SizeGuardError is raised instead of
    building one with more than ``max_dim`` rows or columns.

    A degree whose matrix has more rows than columns has a piece of
    dimension at least rows - cols > 0, so the loop cannot stop there.
    Consecutive such degrees are built and ranked together, as the blocks
    of one ``graded_map_entries`` call, while their summed cells stay
    within ``_RUN_CELLS``; a degree with rows <= cols is ranked alone.
    Each degree is size-checked in order before it joins a run, so a trip
    raises where a loop over single degrees would.
    """
    frob = frobenius_power(ring, ideal, n)
    top = sum(frob.degrees) + (ring.d or 0) + 1
    # Generators in (f) add only zero columns.  The others go in unreduced:
    # graded_map_entries reduces each product, which gives the same matrix.
    # With none left, R/J = R, which has finite length only in Krull
    # dimension 0; there the map has no columns and rank 0.
    gens = [g for g in frob.generators if not ring.normal_form(g).is_zero]
    if not gens and ring.krull_dim > 0:
        raise NotPrimaryError(
            "not primary: every generator lies in the relation ideal"
        )
    degrees = [g.degree for g in gens]
    dims, run, cells = [], [], 0
    for m in range(top + 1):
        trip = SizeGuardError.for_degree(ring, degrees, m, max_dim)
        if trip is not None:
            raise trip
        rows = ring.hilbert_dim(m)
        cols = sum(ring.hilbert_dim(m - e) for e in degrees)
        if run and (rows <= cols or cells + rows * cols > _RUN_CELLS):
            dims += _piece_dims(ring, gens, run)
            run, cells = [], 0
        if not cols:  # below every generator degree: (R/J)_m = R_m
            dims.append(rows)
        elif rows <= cols:
            dims += _piece_dims(ring, gens, [m])
        else:
            run.append(m)
            cells += rows * cols
            continue
        if dims[-1] == 0:  # later pieces are zero too
            break
    # a run left over holds no zero piece, so from_dims raises without it
    return ColengthRecord.from_dims(ring.field.p, n, dims, ring.krull_dim)


def _piece_dims(ring: HypersurfaceRing, gens: Sequence, degrees: list) -> list:
    """dim (R/J)_m for each m in ``degrees``, from one build and one
    elimination."""
    ranks = block_ranks(graded_map_entries(ring, gens, degrees))
    return [ring.hilbert_dim(m) - rank for m, rank in zip(degrees, ranks.tolist())]


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
