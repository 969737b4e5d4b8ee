"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: multiplicative orders by
repeated multiplication, determinants by cofactor expansion, counting group
elements by exhaustive filtering, the breadth-first closure by Mat
products in a Python set instead of row tables and sorted packed keys, group
orders by multiplying the unfactored terms left to right, decimal digits by
dividing off 1000 digits at a time, the field construction by trial
division and one exponentiation per prime factor of q - 1, and the norm of
an element by multiplying its k conjugates.
"""

from __future__ import annotations

import itertools
import math

from classgen import Family, FieldElem, GroupSpec, Mat


def brute_order(a: FieldElem) -> int:
    """Multiplicative order by repeated multiplication."""
    assert a.code != 0
    power = a
    order = 1
    while power != a.ctx.one:
        power = power * a
        order += 1
        assert order <= a.ctx.q
    return order


def brute_mat_order(m: Mat) -> int:
    """Multiplicative order of an invertible matrix by repeated multiplication."""
    identity = Mat.identity(m.ctx, m.n)
    power, order = m, 1
    while power != identity:
        power = power * m
        order += 1
    return order


def cofactor_det(m: Mat) -> FieldElem:
    """Determinant by cofactor expansion along the first row."""
    ctx = m.ctx
    rows = [[m.entry(i, j) for j in range(m.n)] for i in range(m.n)]

    def expand(block):
        if len(block) == 1:
            return block[0][0]
        total = ctx.zero
        sign = ctx.one
        for j in range(len(block)):
            minor = [row[:j] + row[j + 1:] for row in block[1:]]
            total = total + sign * block[0][j] * expand(minor)
            sign = -sign
        return total

    return expand(rows)


def slow_mat_mul(a: Mat, b: Mat) -> Mat:
    """Matrix product through the scalar element API only."""
    ctx, n = a.ctx, a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            s = ctx.zero
            for l in range(n):
                s = s + a.entry(i, l) * b.entry(l, j)
            row.append(s)
        rows.append(row)
    return Mat.from_rows(ctx, rows)


def all_matrices(ctx, n):
    """Every n x n matrix over ctx (use only for tiny q and n)."""
    for codes in itertools.product(range(ctx.q), repeat=n * n):
        yield Mat.from_rows(ctx, [[ctx.from_code(codes[i * n + j]) for j in range(n)]
                                  for i in range(n)])


def set_closure(gens, cap):
    """Breadth-first closure keyed by Mat itself in a Python set.

    Same search as closure(): right-multiply the frontier by each generator
    in turn, keep first occurrences in order, check the cap after each
    generator.  Returns ((size, truncated, rounds), elements in discovery
    order).
    """
    identity = Mat.identity(gens[0].ctx, gens[0].n)
    seen = {identity}
    elements = [identity]
    frontier = [identity]
    rounds = 0
    truncated = False
    while frontier and not truncated:
        fresh = []
        for g in gens:
            for m in frontier:
                prod = m * g
                if prod not in seen:
                    seen.add(prod)
                    fresh.append(prod)
            if len(seen) > cap:
                truncated = True
                break
        if fresh:
            rounds += 1
            elements += fresh
        frontier = fresh
    return (len(seen), truncated, rounds), elements


def term_by_term_order(spec: GroupSpec) -> int:
    """Group order from the unfactored terms q**n - q**i, multiplied left to
    right (quadratic in the digit count; keep the degrees small)."""
    fam, deg, q = spec.family, spec.degree, spec.q
    if fam is Family.GL:
        return math.prod(q**deg - q**i for i in range(deg))
    if fam is Family.SL:
        return math.prod(q**deg - q**i for i in range(deg)) // (q - 1)
    if fam is Family.SP:
        n = deg // 2
        return q**(n * n) * math.prod(q**(2 * i) - 1 for i in range(1, n + 1))
    gu = q**(deg * (deg - 1) // 2) * math.prod(q**i - (-1)**i for i in range(1, deg + 1))
    return gu if fam is Family.GU else gu // (q + 1)


def chunked_decimal(n: int) -> str:
    """Decimal digits of n >= 0, 1000 at a time by divmod (quadratic), so no
    str() call meets the int-to-str digit limit."""
    chunk = 10**1000
    parts = []
    while n >= chunk:
        n, r = divmod(n, chunk)
        parts.append(f"{r:01000d}")
    return str(n) + "".join(reversed(parts))


def _rem(f, g, p):
    """Remainder of f by the monic g over GF(p), constant term first."""
    f = list(f)
    dg = len(g) - 1
    for top in range(len(f) - 1, dg - 1, -1):
        c = f[top] % p
        if c:
            for i, gc in enumerate(g):
                f[top - dg + i] = (f[top - dg + i] - c * gc) % p
    return [c % p for c in f[:dg]]


def _nonzero_constant(p, k):
    """Coefficient tuples of length k with a nonzero constant term, in
    lexicographic order."""
    return itertools.product(range(1, p), *[range(p)] * (k - 1))


def trial_division_irreducible(f, p) -> bool:
    """Monic f (constant term first, f(0) != 0) has no monic factor of
    degree 1 .. deg(f)/2; such a factor has a nonzero constant term."""
    k = len(f) - 1
    return all(any(_rem(f, list(low) + [1], p))
               for d in range(1, k // 2 + 1) for low in _nonzero_constant(p, d))


def _prime_divisors(n):
    """Distinct prime factors of n, by trial division."""
    out = []
    for r in range(2, n + 1):
        if r * r > n:
            return out + [n] * (n > 1)
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
    return out


def _reference_arith(modulus, p):
    """(mul, power) on coefficient lists of length k mod the monic modulus:
    schoolbook products and right-to-left square-and-multiply."""
    k = len(modulus) - 1
    one = [1] + [0] * (k - 1)

    def mul(a, b):
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        return _rem(prod, modulus, p)

    def power(a, e):
        out = one
        while e:
            if e & 1:
                out = mul(out, a)
            a = mul(a, a)
            e >>= 1
        return out

    return mul, power


def reference_field(p, k):
    """(modulus, xi coefficients) of GF(p^k) by definition: the first monic
    irreducible and the first element of order q - 1 in the lexicographic
    walks, coefficient tuples read constant term first.  A modulus with a
    zero constant term is divisible by t, so the first walk skips those."""
    modulus = next(low + (1,) for low in _nonzero_constant(p, k)
                   if trial_division_irreducible(low + (1,), p))
    q = p**k
    one = [1] + [0] * (k - 1)
    _, power = _reference_arith(modulus, p)
    checks = [(q - 1) // r for r in _prime_divisors(q - 1)]
    for coeffs in itertools.product(range(p), repeat=k):
        if any(coeffs) and all(power(list(coeffs), e) != one for e in checks):
            return modulus, coeffs
    raise AssertionError(f"no primitive element in GF({q})")


def reference_norm(modulus, p, coeffs):
    """N(a) by definition: the product of the k conjugates a**(p**i),
    i = 0 .. k - 1, in GF(p)[t]/(modulus), with reference_field's mul and
    power.  The product lies in GF(p); returns that residue."""
    k = len(modulus) - 1
    mul, power = _reference_arith(modulus, p)
    out = conj = list(coeffs) + [0] * (k - len(coeffs))
    for _ in range(k - 1):
        conj = power(conj, p)
        out = mul(out, conj)
    assert not any(out[1:]), "the norm lies outside GF(p)"
    return out[0]
