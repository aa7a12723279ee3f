"""Frobenius powers, the graded-rank kernel and total colengths.

Everything is one rank computation per degree, ``graded_rank``: the degree-m
piece of R/J is the cokernel of the multiplication map ⊕_i R_{m-e_i} -> R_m,
and the degree-m syzygies of the generators (``curves.cohomology_profile``)
are its kernel.  Standard grading makes vanishing hereditary, so the
colength loop stops at the first zero piece.
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
    "graded_rank",
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
    """Per-degree dimensions of R/J and the q-normalized total.

    ``n`` is the Frobenius exponent when ``q = p^n``; records produced at a
    non-Frobenius scale (q any positive integer) carry ``n = None``.
    """

    p: int
    n: Optional[int]
    q: int
    dims: tuple
    total: int
    normalized: Fraction

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
            n=None if data["n"] is None else int(data["n"]),
            q=int(data["q"]),
            dims=tuple(int(v) for v in data["dims"]),
            total=int(data["total"]),
            normalized=Fraction(int(num), int(den)),
        )


def _power_of_p(q: int, p: int) -> int:
    """Exponent n with q = p^n, or raise."""
    if q < 1:
        raise ValueError("q must be positive")
    n = 0
    while q > 1:
        if q % p:
            raise ValueError(f"q is not a power of the characteristic {p}")
        q //= p
        n += 1
    return n


def frobenius_power(ring: HypersurfaceRing, ideal: IdealSpec, q: int) -> IdealSpec:
    """(f_1, ..., f_s) -> (f_1^q, ..., f_s^q) for q = p^n.

    Computed by n-fold p-th powering: in characteristic p the p-th power is
    additive, so each step just multiplies exponents by p.
    """
    n = _power_of_p(q, ring.field.p)
    gens = list(ideal.generators)
    for _ in range(n):
        gens = [g.pth_power() for g in gens]
    return IdealSpec(tuple(gens), tuple(e * q for e in ideal.degrees))


def graded_rank(
    ring: HypersurfaceRing, gens: Sequence, m: int, max_dim: Optional[int] = None
) -> int:
    """Rank over F_p of the degree-m multiplication map ⊕_i R_{m-e_i} -> R_m.

    Raises SizeGuardError instead of building a matrix with more than
    ``max_dim`` rows or columns.
    """
    if max_dim is not None:
        rows = ring.hilbert_dim(m)
        cols = sum(ring.hilbert_dim(m - g.degree) for g in gens)
        if max(rows, cols) > max_dim:
            raise SizeGuardError(m, rows, cols, max_dim)
    return rank_mod_p(graded_map_matrix(ring, gens, m))


def colength(
    ring: HypersurfaceRing,
    ideal: IdealSpec,
    q: int = 1,
    n: Optional[int] = None,
    max_dim: Optional[int] = None,
) -> ColengthRecord:
    """Total dimension of R/J, summed degree by degree.

    Stops at the first zero piece (with standard grading all later pieces
    vanish too); if none occurs up to sum(deg g_i) + d + 1, the ideal is not
    primary to the irrelevant maximal ideal.  ``q`` is only a normalization
    scale here: ``normalized = total / q^krull_dim``.
    """
    d = ring.d or 0
    cap = sum(ideal.degrees) + d + 1
    try:
        reduced = IdealSpec.from_polynomials(
            [ring.normal_form(g) for g in ideal.generators]
        )
    except ValueError:
        raise NotPrimaryError(
            "not primary: every generator lies in the relation ideal"
        ) from None
    dims = []
    total = 0
    for m in range(cap + 1):
        dim = ring.hilbert_dim(m) - graded_rank(ring, reduced.generators, m, max_dim)
        dims.append(dim)
        if dim == 0:
            normalized = Fraction(total, q ** ring.krull_dim)
            return ColengthRecord(
                p=ring.field.p,
                n=n,
                q=q,
                dims=tuple(dims),
                total=total,
                normalized=normalized,
            )
        total += dim
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
