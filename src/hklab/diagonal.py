"""Diagonal-hypersurface toolkit: truncated power-of-sum dimensions over
prime fields, their exact characteristic-zero values, the sign-vector
g-sums, limit values, the sandwich bounds tying them to actual Frobenius
colengths, and those colengths themselves by block decomposition.

Han-Monsky block identity: for R = F_p[x_1..x_s]/(sum c_i x_i^d), every
c_i nonzero, R/m^[q] is A/(f) with A the tensor product of the
F_p[x_i]/(x_i^q).  Over F_p[T_i] with T_i = x_i^d, each F_p[x_i]/(x_i^q)
splits into the blocks x_i^{r_i} F_p[T_i]/(T_i^{k_i}), r_i in [0, d) and
k_i = ceil((q - r_i)/d), and f acts on the block of a residue tuple r as
sum c_i T_i.  So the degree-m piece of R/m^[q] is the sum, over r, of the
degree-j pieces of F_p[T]/(T_i^{k_i}, sum T_i) with |r| + d*j = m: the
graded d_f.  A residue r_i >= q has no block (k_i <= 0), so its tuples
contribute nothing; that happens only when q < d.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from hklab.colength import ColengthRecord, IdealSpec, SizeGuardError
from hklab.fp_linalg import PrimeField, PrimeFieldMatrix, rank_mod_p
from hklab.graded import HypersurfaceRing, Polynomial
from hklab.limits import normalized_colength

__all__ = [
    "DiagonalSpec",
    "GValue",
    "DiagonalLimits",
    "SandwichReport",
    "d_f",
    "han_monsky_applies",
    "han_monsky_colength",
    "d_char0",
    "g_lambda",
    "g_value",
    "diagonal_limits",
    "sandwich_check",
    "diagonal_ring",
]


@dataclass(frozen=True)
class DiagonalSpec:
    """Exponents (d_1..d_s) of x_1^{d_1} + ... + x_s^{d_s}."""

    exponents: Tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) < 2:
            raise ValueError("need at least two exponents")
        if any(d < 1 or d != int(d) for d in self.exponents):
            raise ValueError("exponents must be positive integers")
        object.__setattr__(self, "exponents", tuple(int(d) for d in self.exponents))

    @property
    def s(self) -> int:
        return len(self.exponents)

    @property
    def product(self) -> int:
        return math.prod(self.exponents)


@dataclass(frozen=True)
class GValue:
    """Sign-vector sum: per-lambda contributions, prefactor, and the
    prefactored total."""

    prefactor: Fraction
    lambda_terms: Dict[int, Fraction]
    total: Fraction


class DiagonalLimits(NamedTuple):
    e_hk_infinity: Fraction
    e_naive: Fraction


@dataclass(frozen=True)
class SandwichReport:
    p: int
    n: int
    lower: Fraction
    value: Fraction
    upper: Fraction
    gap: Fraction
    gap_p: Fraction


def _multinomial(n: int, parts: Sequence[int]) -> int:
    out = math.factorial(n)
    for a in parts:
        out //= math.factorial(a)
    return out


def _truncation_hilbert(p: int, ks: Sequence[int], top: Optional[int] = None) -> List[int]:
    """Hilbert function of F_p[T_1..T_s]/(T_1^{k_1}, .., T_s^{k_s}, T_1+..+T_s)
    in degrees 0..top (default: every degree where it can be nonzero).

    The quotient is symmetric in the k_i, so the largest is taken as k_s.
    Eliminating T_s leaves B = F_p[T_1..T_{s-1}]/(T_i^{k_i}) modulo
    (T_1+..+T_{s-1})^{k_s}; B is graded and the power maps B_{j-k_s} into
    B_j, so degree j contributes dim B_j minus the rank of one small block.
    """
    field = PrimeField(p)
    *caps, power = sorted(ks)
    caps = np.array(caps, dtype=np.int64)
    strides = np.cumprod(np.append(1, caps[:0:-1]))[::-1]  # row-major
    box_top = int((caps - 1).sum())
    top = box_top if top is None else min(top, box_top)
    # B_j as the sorted mixed-radix indices of its monomials
    pieces = [np.zeros(1, dtype=np.int64)]
    for _ in range(top):
        prev = pieces[-1]
        grows = prev[:, None] // strides % caps + 1 < caps
        pieces.append(np.unique((prev[:, None] + strides)[grows]))
    if power <= top:
        # exponent vectors c of the power's terms, |c| = power, and their
        # multinomial coefficients
        terms = pieces[power]
        term_exps = terms[:, None] // strides % caps
        coeffs = np.array(
            [_multinomial(power, c) % p for c in term_exps.tolist()], dtype=np.int64
        )
    dims = []
    for j, rows in enumerate(pieces):
        rank = 0
        if j >= power:
            cols = pieces[j - power]
            col_exps = cols[:, None] // strides % caps
            fits = np.ones((cols.size, terms.size), dtype=bool)
            for i, cap in enumerate(caps.tolist()):
                fits &= col_exps[:, i, None] + term_exps[None, :, i] < cap
            col_pos, term_pos = np.nonzero(fits)
            row_pos = np.searchsorted(rows, cols[col_pos] + terms[term_pos])
            block = np.zeros((rows.size, cols.size), dtype=field.dtype)
            block[row_pos, col_pos] = coeffs[term_pos]
            rank = rank_mod_p(PrimeFieldMatrix(field, block))
        dims.append(rows.size - rank)
    return dims


def d_f(p: int, *ks: int) -> int:
    """dim of F_p[x_1..x_{s-1}]/(x_i^{k_i}) modulo the image of
    multiplication by (x_1+..+x_{s-1})^{k_s}.

    Symmetric in all s arguments, power slot included: it is the colength
    of (x_1^{k_1}, .., x_s^{k_s}) in F_p[x_1..x_s]/(x_1+..+x_s).  Computed
    degree by degree, one block per degree (``_truncation_hilbert``).
    """
    if len(ks) < 2:
        raise ValueError("need at least two exponents")
    if any(k < 1 for k in ks):
        raise ValueError("exponents must be positive")
    return sum(_truncation_hilbert(p, ks))


def han_monsky_applies(ring: HypersurfaceRing, ideal: IdealSpec) -> bool:
    """Whether ``han_monsky_colength`` serves this ring and ideal: the
    relation is sum c_i x_i^d with all s >= 2 variables present (every c_i
    nonzero), and the ideal is generated by one single-term c*x_i per
    variable (so it is the maximal ideal)."""
    f, s = ring.relation, ring.s
    if f is None or s < 2 or any(len(g.terms) != 1 for g in ideal.generators):
        return False
    powers = sorted(tuple(ring.d * (j == i) for j in range(s)) for i in range(s))
    units = sorted(tuple(int(j == i) for j in range(s)) for i in range(s))
    monos = sorted(mono for g in ideal.generators for mono in g.terms)
    return sorted(f.terms) == powers and monos == units


def han_monsky_colength(
    ring: HypersurfaceRing, ideal: IdealSpec, n: int = 0, max_dim: Optional[int] = None
) -> ColengthRecord:
    """The record ``colength(ring, ideal, n)`` gives, by the block identity
    of the module docstring; the ring and ideal must pass
    ``han_monsky_applies``.

    Residue tuples with some k_i <= 0 are skipped, and the graded d_f is
    computed once per sorted k-tuple (at most s+1 of them).  Raises the
    generic engine's SizeGuardError (same m, rows, cols) when ``max_dim``
    is set: ``SizeGuardError.for_degree`` gives the shapes, and only the
    degrees below the one that trips are computed, to see whether a zero
    piece ends the run first.
    """
    if not han_monsky_applies(ring, ideal):
        raise ValueError("needs sum c_i x_i^d in every variable and the maximal ideal")
    p, s, d = ring.field.p, ring.s, ring.d
    q = p**n
    last = s * (q - 1)  # top degree of A
    trip = None
    if max_dim is not None:
        for m in range(last + 2):
            trip = SizeGuardError.for_degree(ring, (q,) * s, m, max_dim)
            if trip is not None:
                last = m - 1
                break
    dims = [0] * (last + 1)
    memo = {}
    for r in itertools.product(range(d), repeat=s):
        ks = tuple(sorted(-((r_i - q) // d) for r_i in r))
        if ks[0] <= 0:
            continue
        if ks not in memo:
            memo[ks] = _truncation_hilbert(p, ks, last // d)
        for m, dim in zip(range(sum(r), last + 1, d), memo[ks]):
            dims[m] += dim
    if 0 not in dims:
        if trip is not None:
            raise trip
        dims.append(0)
    return ColengthRecord.from_dims(p, n, dims[: dims.index(0) + 1], ring.krull_dim)


def d_char0(*ks: int) -> int:
    """Characteristic-zero value of d_f, by Clebsch-Gordan.

    Over Q, multiplication by x_1+..+x_s on the tensor product of the
    Q[x_i]/(x_i^{k_i}) is the sl_2 lowering operator on V_{k_1} ⊗ .. ⊗
    V_{k_s}, V_k the irreducible of dimension k, and d_f is the number of
    its Jordan blocks.  V_a ⊗ V_b = ⊕_{j < min(a,b)} V_{a+b-1-2j}, folded
    over the k_i on a count of block sizes.
    """
    if len(ks) < 2:
        raise ValueError("need at least two exponents")
    if any(k < 1 for k in ks):
        raise ValueError("exponents must be positive")
    blocks = Counter([ks[0]])
    for b in ks[1:]:
        folded = Counter()
        for a, count in blocks.items():
            for j in range(min(a, b)):
                folded[a + b - 1 - 2 * j] += count
        blocks = folded
    return sum(blocks.values())


def g_lambda(xs: Sequence, lam: int) -> Fraction:
    """Signed sum of (eps.x - 2*lam)^{s-1} over sign vectors with
    eps.x >= 2*lam."""
    xs = [Fraction(x) for x in xs]
    s = len(xs)
    if s < 2:
        raise ValueError("need at least two coordinates")
    total = Fraction(0)
    for bits in range(1 << s):
        dot = Fraction(0)
        sign = 1
        for i, x in enumerate(xs):
            if bits & (1 << i):
                dot -= x
                sign = -sign
            else:
                dot += x
        dot -= 2 * lam
        if dot >= 0:
            total += sign * dot ** (s - 1)
    return total


def g_value(xs: Sequence) -> GValue:
    """All nonzero lambda contributions plus the prefactored total.

    Outside |2*lam| <= sum(xs) the sum is empty or has full sign support,
    and a full signed sum of a degree-(s-1) polynomial vanishes, so the
    scan range is exact.
    """
    xs = [Fraction(x) for x in xs]
    s = len(xs)
    if s < 2:
        raise ValueError("need at least two coordinates")
    bound = math.ceil(sum(xs) / 2)
    terms = {}
    for lam in range(-bound, bound + 1):
        v = g_lambda(xs, lam)
        if v or lam == 0:
            terms[lam] = v
    prefactor = Fraction(1, 2 ** (s - 1) * math.factorial(s - 1))
    total = prefactor * sum(terms.values())
    return GValue(prefactor=prefactor, lambda_terms=terms, total=total)


def diagonal_limits(spec: DiagonalSpec) -> DiagonalLimits:
    """Limit multiplicity and its lambda=0 truncation for the diagonal
    hypersurface, both carrying the d_1..d_s normalization."""
    gv = g_value([Fraction(1, d) for d in spec.exponents])
    scale = spec.product
    return DiagonalLimits(
        e_hk_infinity=scale * gv.total,
        e_naive=scale * gv.prefactor * gv.lambda_terms[0],
    )


def diagonal_ring(spec: DiagonalSpec, p: int) -> HypersurfaceRing:
    """F_p[x_1..x_s]/(x_1^d + .. + x_s^d); equal exponents only, since the
    colength engine works with the standard grading."""
    d = spec.exponents[0]
    if any(e != d for e in spec.exponents):
        raise ValueError("colength needs equal exponents (standard grading)")
    field = PrimeField(p)
    s = spec.s
    relation = Polynomial(
        field, s, {tuple(d if j == i else 0 for j in range(s)): 1 for i in range(s)}
    )
    return HypersurfaceRing(field, s, relation)


def sandwich_check(spec: DiagonalSpec, p: int, n: int) -> SandwichReport:
    """L <= normalized colength <= U with L, U from d_f at floor(p/d_i)
    and floor(p/d_i)+1; violation means a bug, so it raises."""
    if n < 1:
        raise ValueError("n must be >= 1")
    scale = spec.product
    denom = p ** (spec.s - 1)
    floors = [p // d for d in spec.exponents]
    lower = Fraction(scale * d_f(p, *floors), denom)
    upper = Fraction(scale * d_f(p, *[f + 1 for f in floors]), denom)
    ring = diagonal_ring(spec, p)
    value = normalized_colength(ring, IdealSpec.maximal_ideal(ring), n)
    if not lower <= value <= upper:
        raise AssertionError(
            f"sandwich violated at p={p}, n={n}: "
            f"{lower} <= {value} <= {upper} fails"
        )
    gap = upper - lower
    return SandwichReport(
        p=p, n=n, lower=lower, value=value, upper=upper, gap=gap, gap_p=gap * p
    )
