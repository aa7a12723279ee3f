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

Jordan-type fold: T = T_1+..+T_s makes the tensor product of the
[0,k_i] = F_p[T_i]/(T_i^{k_i}) a graded F_p[T]-module, a sum of strings
[start, length]; the graded d_f counts them by start degree.  The type of
M ⊗ [0,k] is the sum, over the strings [s0, l] of M, of the type of
[0,l] ⊗ [0,k] shifted by s0.  [0,a] ⊗ [0,b] has H_c(s+c-1) -
H_{c-1}(s+c-1) strings that start in degree s and have length >= c, H_c
the Hilbert function of F_p[x,y]/(x^a, y^b, (x+y)^c) below (H_0 = 0).
The last two k_i need no type: each string [s0, l] adds H for
(l, k_{s-1}, k_s), shifted by s0.

Hilbert-Burch for three arguments: after T_3 = -(T_1+T_2) the
graded d_f(a, b, c) is the Hilbert function H of S/I, S = F_p[x,y] and
I = (x^a, y^b, (x+y)^c).  I is m-primary, so the syzygies of its three
generators form a free module of rank 2, with degrees u <= v and
u + v = a + b + c (also when (x+y)^c lies in (x^a, y^b)).  With
t_+ = max(t, 0),

    H(j) = (j+1)_+ - (j-a+1)_+ - (j-b+1)_+ - (j-c+1)_+ + (j-u+1)_+ + (j-v+1)_+.

At j* = ceil((a+b+c)/2) - 1 the v term is 0 and the u term strictly
decreases in u, so one block rank in degree j* gives u and then every H(j).
v - u is Han's syzygy gap delta.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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


def _fold(pair_type: Callable[[int, int], Tuple], ks: Sequence[int]) -> Counter:
    """Graded Jordan type {(start, length): count} of [0,k_1] ⊗ .. ⊗ [0,k_r]
    (module docstring); ``pair_type(a, b)``, a <= b, gives the strings
    (start, length) of [0,a] ⊗ [0,b], at most one per start degree."""
    strings = Counter({(0, 1): 1})
    for k in ks:
        folded = Counter()
        for (s0, length), count in strings.items():
            for start, size in pair_type(*sorted((length, k))):
                folded[s0 + start, size] += count
        strings = folded
    return strings


@functools.lru_cache(maxsize=4096)
def _pair_type(p: int, a: int, b: int) -> Tuple[Tuple[int, int], ...]:
    """Strings (start, length) of [0,a] ⊗ [0,b] over F_p, a <= b: the
    string from degree s has length >= c exactly when H_c(s+c-1) >
    H_{c-1}(s+c-1) (module docstring), and (x+y)^{a+b-1} kills it all."""
    if a == 1:
        return ((0, b),)
    field = PrimeField(p)
    lengths = np.zeros(a + b - 1, dtype=np.int64)
    below = np.zeros(a + b - 1, dtype=np.int64)  # H_{c-1}
    for c in range(1, a + b):
        if below.sum() == a * b:
            break
        hilbert = np.array(_hilbert_burch(field, *sorted((a, b, c)), a + b - 2))
        lengths[: a + b - c] += (hilbert - below)[c - 1 :]
        below = hilbert
    return tuple((start, size) for start, size in enumerate(lengths.tolist()) if size)


def _truncation_hilbert(p: int, ks: Sequence[int], top: Optional[int] = None) -> List[int]:
    """Hilbert function of F_p[T_1..T_s]/(T_1^{k_1}, .., T_s^{k_s}, T_1+..+T_s)
    in degrees 0..top (default: every degree where it can be nonzero).

    The k_i sorted, k_1..k_{s-2} fold into strings [s0, l], and each adds
    the three-argument H of (l, k_{s-1}, k_s) from degree s0 on (module
    docstring), so three arguments take one rank.
    """
    field = PrimeField(p)
    *head, a, b = sorted(ks)
    box_top = sum(head) + a - len(head) - 1
    top = box_top if top is None else min(top, box_top)
    dims = [0] * (top + 1)
    for (s0, length), count in _fold(functools.partial(_pair_type, p), head).items():
        if s0 <= top:  # a guarded han_monsky_colength asks for few degrees
            hilbert = _hilbert_burch(field, *sorted((length, a, b)), top - s0)
            for j, dim in enumerate(hilbert, s0):
                dims[j] += count * dim
    return dims


def _hilbert_burch(field: PrimeField, a: int, b: int, c: int, top: int) -> List[int]:
    """Hilbert function of F_p[x,y]/(x^a, y^b, (x+y)^c), a <= b <= c, in
    degrees 0..top, from one rank in degree j* (module docstring).

    The block maps x^i' y^(j*-c-i') to (x+y)^c times it in B_j*, B =
    F_p[x,y]/(x^a, y^b): its entry at row x^i y^(j*-i) is C(c, i-i')."""
    j = (a + b + c + 1) // 2 - 1
    rows = np.arange(max(0, j - b + 1), min(a - 1, j) + 1)
    cols = np.arange(max(0, j - c - b + 1), min(a - 1, j - c) + 1)
    binom = np.array([math.comb(c, i) % field.p for i in range(c + 1)], dtype=np.int64)
    shift = rows[:, None] - cols[None, :]
    block = np.where((shift >= 0) & (shift <= c), binom[shift.clip(0, c)], 0)
    rank = rank_mod_p(PrimeFieldMatrix(field, block))

    def hilbert(t, syzygies=()):
        ramps = [np.maximum(t - e + 1, 0) for e in (a, b, c, *syzygies)]
        return t + 1 - sum(ramps[:3]) + sum(ramps[3:])

    u = j + 1 - (rows.size - rank - int(hilbert(j)))
    return hilbert(np.arange(top + 1), (u, a + b + c - u)).tolist()


def d_f(p: int, *ks: int) -> int:
    """dim of F_p[x_1..x_{s-1}]/(x_i^{k_i}) modulo the image of
    multiplication by (x_1+..+x_{s-1})^{k_s}.

    Symmetric in all s arguments, power slot included: it is the colength
    of (x_1^{k_1}, .., x_s^{k_s}) in F_p[x_1..x_s]/(x_1+..+x_s): the
    number of strings of the Jordan-type fold (module docstring).
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
    """Characteristic-zero value of d_f: its Jordan-type fold with the
    Clebsch-Gordan pair rule [0,a] ⊗ [0,b] = ⊕_{j<min(a,b)} [j, a+b-1-2j]
    in place of H_c, since over Q the sum x_1+..+x_s acts as the sl_2
    lowering operator on V_{k_1} ⊗ .. ⊗ V_{k_s}."""
    if len(ks) < 2:
        raise ValueError("need at least two exponents")
    if any(k < 1 for k in ks):
        raise ValueError("exponents must be positive")
    return sum(_fold(lambda a, b: [(j, a + b - 1 - 2 * j) for j in range(a)], ks).values())


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
    """L <= normalized colength <= U with L, U from d_f at floor(p/d) and
    floor(p/d)+1, equal exponents d <= p; violation means a bug, so it raises."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = spec.exponents[0]
    if any(e != d for e in spec.exponents) or p < d:
        family = "diagonal:" + ",".join(map(str, spec.exponents))
        raise ValueError(f"sandwich needs equal exponents d <= p, not {family} at p={p}")
    ring = diagonal_ring(spec, p)
    scale = spec.product
    denom = p ** (spec.s - 1)
    lower = Fraction(scale * d_f(p, *[p // d] * spec.s), denom)
    upper = Fraction(scale * d_f(p, *[p // d + 1] * spec.s), denom)
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
