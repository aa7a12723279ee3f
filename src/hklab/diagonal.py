"""Diagonal-hypersurface toolkit: truncated power-of-sum dimensions over
prime fields, their characteristic-zero stabilization, the sign-vector
g-sums, limit values, and the sandwich bounds tying them to actual
Frobenius colengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Dict, Iterator, NamedTuple, Sequence, Tuple

import numpy as np

from hklab.colength import IdealSpec
from hklab.fp_linalg import PrimeField, PrimeFieldMatrix, is_prime, rank_mod_p
from hklab.graded import HypersurfaceRing, Polynomial
from hklab.limits import normalized_colength

__all__ = [
    "DiagonalSpec",
    "GValue",
    "DiagonalLimits",
    "SandwichReport",
    "d_f",
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

    def to_json_dict(self) -> dict:
        return {
            "prefactor": f"{self.prefactor.numerator}/{self.prefactor.denominator}",
            "lambda_terms": {
                str(lam): f"{v.numerator}/{v.denominator}"
                for lam, v in sorted(self.lambda_terms.items())
            },
            "total": f"{self.total.numerator}/{self.total.denominator}",
        }


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


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _multinomial(n: int, parts: Sequence[int]) -> int:
    out = math.factorial(n)
    for a in parts:
        out //= math.factorial(a)
    return out


def _power_matrix(field: PrimeField, caps: Sequence[int], power: int) -> PrimeFieldMatrix:
    """Multiplication by (x_1+..+x_k)^power on F[x_i]/(x_i^{caps_i}),
    monomial basis flattened row-major."""
    p = field.p
    strides = []
    acc = 1
    for c in reversed(caps):
        strides.append(acc)
        acc *= c
    strides.reverse()
    total = acc
    mat = np.zeros((total, total), dtype=field.dtype)
    for comp in _compositions(power, len(caps)):
        coeff = _multinomial(power, comp) % p
        if coeff == 0:
            continue
        spans = [c - a for c, a in zip(caps, comp)]
        if any(v <= 0 for v in spans):
            continue
        axes = [np.arange(v) * st for v, st in zip(spans, strides)]
        src = reduce(np.add.outer, axes).ravel() if len(axes) > 1 else axes[0]
        offset = sum(a * st for a, st in zip(comp, strides))
        mat[src + offset, src] = coeff
    return PrimeFieldMatrix(field, mat)


def d_f(p: int, *ks: int) -> int:
    """dim of F_p[x_1..x_{s-1}]/(x_i^{k_i}) modulo the image of
    multiplication by (x_1+..+x_{s-1})^{k_s}.

    Symmetric in all s arguments, power slot included: it is the colength
    of (x_1^{k_1}, .., x_s^{k_s}) in F_p[x_1..x_s]/(x_1+..+x_s).
    """
    if len(ks) < 2:
        raise ValueError("need at least two exponents")
    if any(k < 1 for k in ks):
        raise ValueError("exponents must be positive")
    field = PrimeField(p)
    caps, power = ks[:-1], ks[-1]
    dim_a = math.prod(caps)
    rank = rank_mod_p(_power_matrix(field, caps, power))
    return dim_a - rank


def d_char0(*ks: int, max_samples: int = 16) -> int:
    """Characteristic-zero value of d_f by prime sampling.

    Ranks can only drop modulo p, so the minimum over primes is the
    rational value once the sample escapes the bad set; two consecutive
    agreeing primes > sum(ks) are taken as stabilization.
    """
    threshold = sum(ks)
    values = []
    candidate = threshold
    for _ in range(max_samples):
        candidate += 1
        while not is_prime(candidate):
            candidate += 1
        value = d_f(candidate, *ks)
        if values and values[-1] == value:
            return min(values + [value])
        values.append(value)
    raise RuntimeError(f"no stabilization after {max_samples} primes")


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
