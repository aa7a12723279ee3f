"""Naive reference implementations used to freeze expected values.

Everything here is deliberately slow pure Python, written without looking at
the package internals: list-of-lists Gauss-Jordan with Fermat inverses,
brute-force monomial enumeration, and one-big-matrix artinian quotients.
Tests compare hklab against these on small inputs; larger frozen constants
in the suite were produced by one-off runs of these functions.
"""

import itertools
import math


def ref_rank(rows, p):
    """Textbook Gauss-Jordan rank of a list-of-lists matrix over Z/p."""
    m = [[x % p for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][c]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        for r in range(nrows):
            if r != rank and m[r][c]:
                f = m[r][c] * inv % p
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def ref_monomials(nvars, degree):
    """All exponent tuples of the given total degree, any fixed order."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for e in range(degree, -1, -1):
        for rest in ref_monomials(nvars - 1, degree - e):
            out.append((e,) + rest)
    return out


def ref_grevlex_key(mono):
    """Sort key; larger key = larger monomial in graded reverse lex order
    with x_1 > ... > x_s."""
    return (sum(mono), [-e for e in reversed(mono)])


def ref_standard_basis(nvars, lead, degree):
    """The degree-``degree`` monomials not divisible by ``lead`` (every one
    when ``lead`` is None), in descending grevlex order, as (position,
    exponents) pairs: position counts every degree-``degree`` monomial in
    that order, standard or not."""
    every = sorted(ref_monomials(nvars, degree), key=ref_grevlex_key, reverse=True)
    return [
        (i, u)
        for i, u in enumerate(every)
        if lead is None or not all(a >= b for a, b in zip(u, lead))
    ]


def ref_artinian_colength(p, f, caps):
    """dim of F_p[x_1..x_s]/(x_i^caps_i, f), f a dict {exponents: coeff}.

    Works on the monomial basis of A = F_p[x]/(x_i^caps_i) and subtracts the
    rank of multiplication by f; terms pushed past a cap vanish in A.
    """
    basis = list(itertools.product(*[range(c) for c in caps]))
    index = {e: i for i, e in enumerate(basis)}
    n = len(basis)
    rows = [[0] * n for _ in range(n)]
    for j, e in enumerate(basis):
        for mono, coeff in f.items():
            shifted = tuple(a + b for a, b in zip(e, mono))
            if all(a < c for a, c in zip(shifted, caps)):
                i = index[shifted]
                rows[i][j] = (rows[i][j] + coeff) % p
    return n - ref_rank(rows, p)


def ref_graded_piece_dim(p, nvars, gens, m):
    """dim of the degree-m piece of F_p[x_1..x_nvars]/(gens).

    gens: list of (degree, dict) pairs, each dict a homogeneous polynomial
    {exponents: coeff} of that degree.
    """
    target = ref_monomials(nvars, m)
    index = {e: i for i, e in enumerate(target)}
    cols = []
    for d, g in gens:
        if d > m:
            continue
        for e in ref_monomials(nvars, m - d):
            col = [0] * len(target)
            for mono, coeff in g.items():
                shifted = tuple(a + b for a, b in zip(e, mono))
                col[index[shifted]] = (col[index[shifted]] + coeff) % p
            cols.append(col)
    if not cols:
        return len(target)
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(len(target))]
    return len(target) - ref_rank(rows, p)


def ref_ideal_colength(p, nvars, gens, max_degree=200):
    """Total dimension of F_p[x]/(gens), summed degree by degree.

    Only valid for ideals primary to (x_1, ..., x_nvars); raises if no
    graded piece vanishes by max_degree.
    """
    total = 0
    for m in range(max_degree + 1):
        dim = ref_graded_piece_dim(p, nvars, gens, m)
        if dim == 0:
            return total
        total += dim
    raise ValueError("no vanishing graded piece; ideal not primary?")


def multinomial(n, parts):
    num = math.factorial(n)
    for k in parts:
        num //= math.factorial(k)
    return num


def power_of_sum(nvars, k, p):
    """(x_1 + ... + x_nvars)^k expanded mod p as {exponents: coeff}."""
    out = {}
    for e in ref_monomials(nvars, k):
        c = multinomial(k, e) % p
        if c:
            out[e] = c
    return out


def ref_truncation_dim(p, caps, k):
    """dim F_p[x_1..x_r]/(x_i^caps_i, (x_1+...+x_r)^k) with r = len(caps)."""
    return ref_artinian_colength(p, power_of_sum(len(caps), k, p), caps)


def ref_mul(p, f, g):
    """The product of f and g over Z/p, as dicts {exponents: coeff}."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def ref_normal_form(p, f, g):
    """Remainder of g on division by f over Z/p, by long division.

    f and g are dicts {exponents: coeff}; the order is graded reverse
    lexicographic with x_1 > ... > x_s.  The largest term left is reduced
    by the leading term of f until no term is divisible by it.
    """

    lead = max(f, key=ref_grevlex_key)
    inv = pow(f[lead], p - 2, p)
    work = {m: c % p for m, c in g.items() if c % p}
    out = {}
    while work:
        mono = max(work, key=ref_grevlex_key)
        c = work.pop(mono)
        if not all(a >= b for a, b in zip(mono, lead)):
            out[mono] = c
            continue
        factor = c * inv % p
        for t, tc in f.items():
            if t == lead:
                continue
            shifted = tuple(a - b + e for a, b, e in zip(mono, lead, t))
            v = (work.get(shifted, 0) - factor * tc) % p
            if v:
                work[shifted] = v
            else:
                work.pop(shifted, None)
    return out
