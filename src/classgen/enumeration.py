"""Closure enumeration and certification against the classical order formulas.

closure() runs a breadth-first search from the identity, right-multiplying
the frontier by each generator.  A matrix is held as its n row codes: the
row with entry codes (c_0, ..., c_{n-1}) has code c_0 + c_1*q + ... +
c_{n-1}*q**(n-1) in [0, q**n).  Row i of M*g is (row i of M)*g, so each
generator g gets a table T_g of length q**n mapping v to v*g, and the
product of a whole frontier is the single gather T_g[frontier], built
from the field's structure constants like every Mat product.  The key of a
matrix packs its n row codes, b = (q**n - 1).bit_length() bits each, into
w = ceil(n*b/64) uint64 words; w is 1 for every degree n <= 3.  The visited
set is one array of these keys in sorted order: each generator's products
are deduplicated with one sort and looked up with one binary search, and
the new keys are merged in before the cap check.  Only keys are stored
beyond the frontier, so memory is 8*w bytes per element.  The search stops
when the frontier empties (exact count) or the visited set grows past the
cap (truncated).  The result depends only on the generator set, not on
ordering or duplicates.  The tables limit closure to q**n <= 2**20
(ROW_CODE_LIMIT), checked before any work.

certify() combines the membership predicates, the exact theoretical order
and the closure count into a PASS / FAIL / INDETERMINATE verdict, where
INDETERMINATE means the cap truncated the search.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from classgen.families import field_for, generator_pair, is_member
from classgen.matrix import Mat
from classgen.spec import DEFAULT_CAP, GroupSpec, case_label, theoretical_order

ROW_CODE_LIMIT = 2**20


class Verdict(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class ClosureResult:
    size: int
    truncated: bool
    frontier_rounds: int


@dataclass(frozen=True)
class Certificate:
    spec: GroupSpec
    membership_ok: bool
    expected_order: int
    closure: ClosureResult
    verdict: Verdict


def _check_row_code_limit(q: int, n: int) -> None:
    # q >= 2, so any n > 20 exceeds the limit; the min keeps q**n small.
    if q**min(n, 21) > ROW_CODE_LIMIT:
        raise ValueError(f"closure needs q**n <= 2**20 (row-code table limit); "
                         f"GF({q}) at degree {n} exceeds it")


def _prepare(gens: list[Mat], cap: int):
    if not gens:
        raise ValueError("need at least one generator")
    if int(cap) != cap or cap < 1:
        raise ValueError(f"cap must be a positive integer, got {cap}")
    ctx = gens[0].ctx
    n = gens[0].n
    for g in gens:
        if g.ctx != ctx or g.n != n:
            raise ValueError("generators must share one field and one degree")
    _check_row_code_limit(ctx.q, n)
    for g in gens:
        if not g.det():
            raise ValueError("generators must be invertible")
    return ctx, n


def _row_table(g: Mat) -> np.ndarray:
    """T with T[v] = v*g for every row code v in [0, q**n).

    A row code has n*k base-p digits and v -> v*g is an (n*k, n*k) matrix
    over GF(p).  Each output digit column doubles over the input digits: the
    codes with top digit c at m are c * p**m plus the codes below p**m.
    """
    ctx, n = g.ctx, g.n
    p, nk = ctx.p, n * ctx.k
    action = (np.einsum("ljt,stu->lsju", ctx.digits(g.codes), ctx.tables()) % p).reshape(nk, nk)
    size = ctx.q**n
    dtype = np.min_scalar_type(size - 1)
    table = np.zeros(size, dtype=dtype)
    col_dtype = np.min_scalar_type(nk * (p - 1))  # sums of nk terms < p, reduced once
    for out in range(nk):
        col = np.zeros(1, dtype=col_dtype)
        for m in range(nk):
            col = ((np.arange(p) * action[m, out] % p).astype(col_dtype)[:, None] + col).ravel()
        table += (col % p).astype(dtype) * dtype.type(p**out)
    return table


def _row_codes(codes: np.ndarray, q: int) -> np.ndarray:
    """Row codes of (..., n, n) entry codes: entry j of a row is base-q digit j."""
    return codes @ (q ** np.arange(codes.shape[-1], dtype=np.int64))


def _decode(rows: np.ndarray, q: int) -> np.ndarray:
    """Entry codes of (..., n) row codes; the inverse of _row_codes."""
    powers = q ** np.arange(rows.shape[-1], dtype=np.int64)
    return rows[..., None].astype(np.int64) // powers % q


def _pack(rows: np.ndarray, bits: int) -> np.ndarray:
    """(w, m) keys of (m, n) row codes, one column per matrix.

    Row i fills bits [i*bits, (i+1)*bits) of a little-endian string of
    w = ceil(n*bits/64) words.  Word 0 is then folded with each other word,
    x -> (x ^ x >> 32) * C ^ word for an odd C.  Given the other words each
    step is invertible, so keys stay exact.  Word 0 then depends on every
    row, not only on the first few, which thousands of matrices can share
    (GL(20,2) at cap 200 000), so distinct keys almost never tie on it.
    """
    m, n = rows.shape
    keys = np.zeros((-(-n * bits // 64), m), dtype=np.uint64)
    for i in range(n):
        row = rows[:, i].astype(np.uint64)
        word, shift = divmod(i * bits, 64)
        keys[word] |= row << np.uint64(shift)
        if shift + bits > 64:
            keys[word + 1] |= row >> np.uint64(64 - shift)
    for word in keys[1:]:
        keys[0] = (keys[0] ^ keys[0] >> np.uint64(32)) * np.uint64(0x9E3779B97F4A7C15) ^ word
    return keys


def _dedup(visited: list[np.ndarray], keys: np.ndarray):
    """Merge keys into visited; return it and the indices of the new keys.

    visited is w arrays of V words, one per key word, holding V unique keys
    sorted lexicographically with word 0 first.  The returned indices are
    those of the first occurrence of each key of the (w, m) keys that is not
    in visited, in increasing order.  Keys are sorted on word 0 by numpy's
    fastest, unstable argsort, so a first occurrence is the least index of
    its run; only when word 0 ties between different keys does np.lexsort
    sort on every word.  Lookups search word 0 and bisect its ties on the
    other words.
    """
    order = np.argsort(keys[0])
    keys = keys[:, order]
    same = keys[:, 1:] == keys[:, :-1]
    if len(keys) > 1 and not same.all(axis=0)[same[0]].all():
        resort = np.lexsort(keys[::-1])
        order, keys = order[resort], keys[:, resort]
        same = keys[:, 1:] == keys[:, :-1]
    head = np.ones(len(order), dtype=bool)
    head[1:] = ~same.all(axis=0)
    starts = np.flatnonzero(head)
    uniq, first = keys[:, starts], np.minimum.reduceat(order, starts)
    pos = np.searchsorted(visited[0], uniq[0])
    if len(keys) == 1:
        new = np.take(visited[0], pos, mode="clip") != uniq[0]
    else:
        end = np.searchsorted(visited[0], uniq[0], "right")
        new = np.ones(len(pos), dtype=bool)
        live = np.flatnonzero(pos < end)
        while live.size:
            lo, hi = pos[live], end[live]
            mid = (lo + hi) // 2
            less = np.zeros(len(live), dtype=bool)
            equal = np.ones(len(live), dtype=bool)
            for words, b in zip(visited[1:], uniq[1:, live]):
                a = words[mid]
                less |= equal & (a < b)
                equal &= a == b
            new[live[equal]] = False
            pos[live] = np.where(less, mid + 1, np.where(equal, mid, lo))
            end[live] = np.where(less, hi, mid)
            live = live[pos[live] < end[live]]
    visited = [np.insert(words, pos[new], u) for words, u in zip(visited, uniq[:, new])]
    return visited, np.sort(first[new])


def _closure_impl(gens: list[Mat], cap: int, collect: bool):
    ctx, n = _prepare(gens, cap)
    tables = [_row_table(g) for g in gens]
    bits = (ctx.q**n - 1).bit_length()
    frontier = _row_codes(Mat.identity(ctx, n).codes, ctx.q).astype(tables[0].dtype)[None]
    visited = list(_pack(frontier, bits))
    found = [frontier] if collect else None

    rounds = 0
    truncated = False
    while frontier.shape[0] and not truncated:
        fresh_arrays = []
        for table in tables:
            prod = table[frontier]
            visited, first = _dedup(visited, _pack(prod, bits))
            if first.size:
                fresh_arrays.append(prod[first])
            if len(visited[0]) > cap:
                truncated = True
                break
        if fresh_arrays:
            rounds += 1
            frontier = np.concatenate(fresh_arrays)
            if collect:
                found.append(frontier)
        else:
            frontier = frontier[:0]
    return ClosureResult(len(visited[0]), truncated, rounds), found


def closure(gens: list[Mat], cap: int = DEFAULT_CAP) -> ClosureResult:
    """Breadth-first closure of the generated group; see the module docstring."""
    result, _ = _closure_impl(gens, cap, collect=False)
    return result


def group_elements(gens: list[Mat], cap: int = DEFAULT_CAP) -> list[Mat]:
    """All elements of the generated group in discovery order (identity first).

    Raises ValueError if the cap truncates the search.
    """
    result, found = _closure_impl(gens, cap, collect=True)
    if result.truncated:
        raise ValueError(f"cap {cap} truncated the enumeration at {result.size} elements")
    ctx = gens[0].ctx
    return [Mat(ctx, m) for m in _decode(np.concatenate(found), ctx.q)]


def certify(spec: GroupSpec, cap: int = DEFAULT_CAP) -> Certificate:
    """Certify the generator pair for spec against the theoretical group order.

    Uncovered parameters (UnsupportedParametersError) and the closure size
    limit (ValueError) are refused before any generator is built.
    """
    case_label(spec)
    _check_row_code_limit(field_for(spec).q, spec.degree)
    pair = generator_pair(spec)
    membership_ok = (bool(pair.a.det()) and bool(pair.b.det())
                     and is_member(spec, pair.a) and is_member(spec, pair.b))
    expected = theoretical_order(spec)
    result = closure([pair.a, pair.b], cap=cap)
    if not membership_ok:
        verdict = Verdict.FAIL
    elif result.truncated:
        verdict = Verdict.INDETERMINATE
    elif result.size == expected:
        verdict = Verdict.PASS
    else:
        verdict = Verdict.FAIL
    return Certificate(spec, membership_ok, expected, result, verdict)
