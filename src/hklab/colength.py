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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from hklab.fp_linalg import rank_mod_p
from hklab.graded import (
    HypersurfaceRing,
    Polynomial,
    SpecParseError,
    graded_map_matrix,
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
    """Homogeneous generators with their degrees."""

    generators: tuple
    degrees: tuple

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("need at least one generator")
        for g, e in zip(self.generators, self.degrees):
            if g.is_zero or not g.is_homogeneous:
                raise ValueError("generators must be nonzero homogeneous")
            if g.degree != e:
                raise ValueError("degree list does not match generators")

    @classmethod
    def from_polynomials(cls, gens: Sequence) -> "IdealSpec":
        gens = tuple(g for g in gens if not g.is_zero)
        if not gens:
            raise ValueError("need at least one nonzero generator")
        return cls(gens, tuple(g.degree for g in gens))

    @classmethod
    def maximal_ideal(cls, ring: HypersurfaceRing) -> "IdealSpec":
        return cls.from_polynomials(
            [Polynomial.variable(ring.field, ring.s, i) for i in range(ring.s)]
        )

    def canonical_string(self) -> str:
        return ",".join(sorted(str(g) for g in self.generators))


@dataclass(frozen=True)
class ColengthRecord:
    """Per-degree dimensions of R/I^[q], q = p^n, and the q-normalized
    total; ``from_dims`` derives every field but ``dims``."""

    p: int
    n: int
    q: int
    dims: tuple
    total: int
    normalized: Fraction

    @classmethod
    def from_dims(cls, p: int, n: int, dims: Sequence, krull_dim: int) -> "ColengthRecord":
        q, total = p**n, sum(dims)
        return cls(p, n, q, tuple(dims), total, Fraction(total, q**krull_dim))

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
    gens = list(ideal.generators)
    for _ in range(n):
        gens = [g.pth_power() for g in gens]
    q = ring.field.p**n
    return IdealSpec(tuple(gens), tuple(e * q for e in ideal.degrees))


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
    maximal ideal.  Each degree's rank is that of ``graded_map_matrix``;
    SizeGuardError is raised instead of building one with more than
    ``max_dim`` rows or columns.
    """
    frob = frobenius_power(ring, ideal, n)
    top = sum(frob.degrees) + (ring.d or 0) + 1
    # Generators in (f) add only zero columns.  The others go in unreduced:
    # graded_map_matrix reduces each product, which gives the same matrix.
    # With none left, R/J = R, which has finite length only in Krull
    # dimension 0; there the map has no columns and rank 0.
    gens = [g for g in frob.generators if not ring.normal_form(g).is_zero]
    if not gens and ring.krull_dim > 0:
        raise NotPrimaryError(
            "not primary: every generator lies in the relation ideal"
        )
    degrees = [g.degree for g in gens]
    dims = []
    for m in range(top + 1):
        trip = SizeGuardError.for_degree(ring, degrees, m, max_dim)
        if trip is not None:
            raise trip
        dims.append(ring.hilbert_dim(m) - rank_mod_p(graded_map_matrix(ring, gens, m)))
        if dims[-1] == 0:
            return ColengthRecord.from_dims(ring.field.p, n, dims, ring.krull_dim)
    raise NotPrimaryError("not primary: no graded piece vanished by the cap")


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
        return IdealSpec.from_polynomials(gens)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from None
