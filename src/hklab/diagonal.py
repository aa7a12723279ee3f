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

Han's theorem gives the syzygy gap delta = v - u from the p-adic position
of t = (a, b, c), a <= b <= c (C. Han, thesis, Brandeis 1991; Han-Monsky,
Math. Z. 214, 1993): delta = c - a - b when c >= a + b, and otherwise the
largest q - |t - q*w|_1 over the powers q = p^s and the integer vectors w
with odd coordinate sum, or 0 if none is positive.  Only w_i in
{floor(t_i/q), floor(t_i/q) + 1} can come within distance q of t, no w
does once 2q >= a + b + c, and q = 1 gives the parity term.  So every H(j)
is integer arithmetic.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from hklab.colength import ColengthRecord, IdealSpec, NotPrimaryError, SizeGuardError
from hklab.graded import HypersurfaceRing, parse_ring_spec
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


def _fold(pair_type: Callable[[int, int], Tuple], ks: Sequence[int], top=math.inf) -> Counter:
    """Graded Jordan type {(start, length): count} of [0,k_1] ⊗ .. ⊗ [0,k_r]
    (module docstring) in degrees 0..top; ``pair_type(a, b)``, a <= b,
    gives the strings (start, length) of [0,a] ⊗ [0,b], at most one per
    start degree.

    Degrees <= T of a graded tensor product depend only on the factors'
    degrees <= T, so a string [s0, l] that meets a factor [0,k] is folded
    as [0, min(l, c)] ⊗ [0, min(k, c)], c = top - s0 + 1, and a string
    that starts above ``top`` is dropped and one that ends above it cut."""
    strings = Counter({(0, 1): 1})
    for k in ks:
        folded = Counter()
        for (s0, length), count in strings.items():
            cap = top - s0 + 1
            for start, size in pair_type(*sorted((min(length, cap), min(k, cap)))):
                if start < cap:
                    folded[s0 + start, min(size, cap - start)] += count
        strings = folded
    return strings


@functools.lru_cache(maxsize=4096)
def _pair_type(p: int, a: int, b: int) -> Tuple[Tuple[int, int], ...]:
    """Strings (start, length) of [0,a] ⊗ [0,b] over F_p, a <= b: the
    string from degree s has length >= c exactly when H_c(s+c-1) >
    H_{c-1}(s+c-1) (module docstring), and (x+y)^{a+b-1} kills it all."""
    if a == 1:
        return ((0, b),)
    lengths = [0] * (a + b - 1)
    below = [0] * (a + b - 1)  # H_{c-1}
    for c in range(1, a + b):
        if sum(below) == a * b:
            break
        hilbert = _hilbert_burch(p, a, b, c, a + b - 2)
        for start in range(a + b - c):
            lengths[start] += hilbert[start + c - 1] - below[start + c - 1]
        below = hilbert
    return tuple((start, size) for start, size in enumerate(lengths) if size)


def _truncation_hilbert(p: int, ks: Sequence[int], top: Optional[int] = None) -> List[int]:
    """Hilbert function of F_p[T_1..T_s]/(T_1^{k_1}, .., T_s^{k_s}, T_1+..+T_s)
    in degrees 0..top (default: every degree where it can be nonzero).

    The k_i sorted, k_1..k_{s-2} fold into strings [s0, l], and each adds
    the three-argument H of (l, k_{s-1}, k_s) from degree s0 on (module
    docstring), so three arguments are arithmetic.
    """
    *head, a, b = sorted(ks)
    box_top = sum(head) + a - len(head) - 1
    top = box_top if top is None else min(top, box_top)
    if top < 0:
        return []
    dims = [0] * (top + 1)
    # a guarded han_monsky_colength asks for few degrees: the fold and each
    # H read only the degrees up to top, so their arguments are capped there
    for (s0, length), count in _fold(functools.partial(_pair_type, p), head, top).items():
        cap = top - s0 + 1
        hilbert = _hilbert_burch(p, min(length, cap), min(a, cap), min(b, cap), top - s0)
        for j, dim in enumerate(hilbert, s0):
            dims[j] += count * dim
    return dims


def _syzygy_degree(p: int, a: int, b: int, c: int) -> int:
    """The smaller syzygy degree u = (a+b+c - delta)/2 of (x^a, y^b,
    (x+y)^c) over F_p, a <= b <= c, from Han's theorem (module docstring)."""
    if c >= a + b:
        return a + b
    t, total = (a, b, c), a + b + c
    delta, q = 0, 1
    while 2 * q < total:
        for w in itertools.product(*((t_i // q, t_i // q + 1) for t_i in t)):
            if sum(w) % 2:
                delta = max(delta, q - sum(abs(t_i - q * w_i) for t_i, w_i in zip(t, w)))
        q *= p
    return (total - delta) // 2


@functools.lru_cache(maxsize=4096)
def _hilbert_burch(p: int, a: int, b: int, c: int, top: int) -> Tuple[int, ...]:
    """Hilbert function of F_p[x,y]/(x^a, y^b, (x+y)^c), in any order of
    a, b, c, in degrees 0..top: H(j) of the module docstring, with u from
    ``_syzygy_degree``.  Each ramp (j-e+1)_+ adds its sign to the slope
    from degree e on, so H is the second running sum of those signs."""
    a, b, c = sorted((a, b, c))
    u = _syzygy_degree(p, a, b, c)
    kinks = [0] * (top + 1)
    for e, sign in ((0, 1), (a, -1), (b, -1), (c, -1), (u, 1), (a + b + c - u, 1)):
        if e <= top:
            kinks[e] += sign
    return tuple(itertools.accumulate(itertools.accumulate(kinks)))


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
    nonzero), and ``ideal.is_maximal``."""
    f, s = ring.relation, ring.s
    if f is None or s < 2 or not ideal.is_maximal:
        return False
    return sorted(f.terms) == sorted(tuple(ring.d * (j == i) for j in range(s)) for i in range(s))


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
    piece ends the run first.  Both shapes, dim R_m and s·dim R_{m-q},
    grow with m (s >= 2), so the guard bisects for the first degree that
    trips; A is zero in degree s(q-1)+1, so with no trip the degrees run
    through that zero piece.
    """
    if not han_monsky_applies(ring, ideal):
        raise ValueError("needs sum c_i x_i^d in every variable and the maximal ideal")
    p, s, d = ring.field.p, ring.s, ring.d
    q = p**n

    def guard(m):
        return SizeGuardError.for_degree(ring, (q,) * s, m, max_dim)

    # s(q-1) is the top degree of A; first = s(q-1)+2 when nothing trips
    first = bisect.bisect_left(
        range(s * (q - 1) + 2), True, key=lambda m: guard(m) is not None
    )
    dims = _residue_dims(p, s, d, q, first)
    try:
        return ColengthRecord.from_dims(p, n, dims, ring.krull_dim)
    except NotPrimaryError:
        raise guard(first) from None


def _residue_dims(p: int, s: int, d: int, q: int, first: int) -> List[int]:
    """The pieces in degrees 0..first-1 of the sum, over residue tuples r
    in [0, d)^s, of the graded d_f of k(r), shifted by |r| (module
    docstring).

    With q = a*d + b, 0 <= b < d, k_i = ceil((q - r_i)/d) is a + 1 when
    r_i < b and a otherwise.  So the sorted k-tuple depends only on the
    number u of residues below b, and the tuples with a given u and |r|
    are counted by |r| in one pass per coordinate, C(s, u) times, rather
    than one tuple at a time.
    """
    a, b = divmod(q, d)
    dims = [0] * first
    for u in range(s + 1):
        ks = (a,) * (s - u) + (a + 1,) * u
        if ks[0] <= 0:
            continue
        counts = {0: math.comb(s, u)}  # |r| -> tuples
        for residues in [range(b)] * u + [range(b, d)] * (s - u):
            step = Counter()
            for total, count in counts.items():
                for r in residues:
                    step[total + r] += count
            counts = step
        hilbert = _truncation_hilbert(p, ks, (first - 1) // d)
        for shift, count in counts.items():
            for m, dim in zip(range(shift, first, d), hilbert):
                dims[m] += count * dim
    return dims


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


def diagonal_limits(spec: DiagonalSpec, gv: Optional[GValue] = None) -> DiagonalLimits:
    """Limit multiplicity and its lambda=0 truncation for the diagonal
    hypersurface, both carrying the d_1..d_s normalization; ``gv`` is
    g_value(1/d_1, .., 1/d_s) when the caller has it already."""
    if gv is None:
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
    return parse_ring_spec(f"fermat:s={spec.s},d={d},p={p}")


def _sandwich_ring(spec: DiagonalSpec, p: int) -> HypersurfaceRing:
    """The ring of ``sandwich_check``, after checking that it applies: equal
    exponents d <= p."""
    d = spec.exponents[0]
    if any(e != d for e in spec.exponents) or p < d:
        family = "diagonal:" + ",".join(map(str, spec.exponents))
        raise ValueError(f"sandwich needs equal exponents d <= p, not {family} at p={p}")
    return diagonal_ring(spec, p)


def sandwich_check(spec: DiagonalSpec, p: int, n: int) -> SandwichReport:
    """L <= normalized colength <= U with L, U from d_f at floor(p/d) and
    floor(p/d)+1, equal exponents d <= p; violation means a bug, so it raises."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ring = _sandwich_ring(spec, p)
    d = spec.exponents[0]
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
