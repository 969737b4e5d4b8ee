"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: multiplicative order by
repeated multiplication, determinants by cofactor expansion, counting group
elements by exhaustive filtering, and the breadth-first closure by Mat
products in a Python set instead of row tables and sorted packed keys.
"""

from __future__ import annotations

import itertools

from classgen import FieldElem, Mat


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
    """Breadth-first closure keyed by encode_canonical in a Python set.

    Same search as closure(): right-multiply the frontier by each generator
    in turn, keep first occurrences in order, check the cap after each
    generator.  Returns ((size, truncated, rounds), elements in discovery
    order).
    """
    identity = Mat.identity(gens[0].ctx, gens[0].n)
    seen = {identity.encode_canonical()}
    elements = [identity]
    frontier = [identity]
    rounds = 0
    truncated = False
    while frontier and not truncated:
        fresh = []
        for g in gens:
            for m in frontier:
                prod = m * g
                key = prod.encode_canonical()
                if key not in seen:
                    seen.add(key)
                    fresh.append(prod)
            if len(seen) > cap:
                truncated = True
                break
        if fresh:
            rounds += 1
            elements += fresh
        frontier = fresh
    return (len(seen), truncated, rounds), elements
