"""Closure enumeration and certification against the classical order formulas.

closure() runs a breadth-first search from the identity, right-multiplying
the frontier by each generator.  A matrix is held as its n row codes: the
row with entry codes (c_0, ..., c_{n-1}) has code c_0 + c_1*q + ... +
c_{n-1}*q**(n-1) in [0, q**n).  Row i of M*g is (row i of M)*g, so each
generator g gets a table T_g of length q**n mapping v to v*g, and the
product of a whole frontier is the single gather T_g[frontier].  A
matrix's key packs its row codes, b = (q**n - 1).bit_length() bits each,
into w = ceil(n*b/64) 64-bit words and is one scalar: a uint64 when w = 1
(every degree n <= 3), otherwise 8*w raw bytes, sorted bytewise.  The
visited set is one sorted 1-D array of keys.  Each generator's products are
deduplicated with one sort, looked up with one binary search and merged in
with one insert, a single copy of the visited array, before the cap check.
Only keys are stored beyond the frontier: 8*w bytes per element.  The
search stops when the frontier empties (exact count) or the visited set
grows past the cap (truncated).  The result depends only on the generator
set, not on ordering or duplicates.  The tables limit closure to
q**n <= 2**20 (ROW_CODE_LIMIT), checked before any work.

certify() combines the membership predicates, the exact theoretical order
and the closure count into a PASS / FAIL / INDETERMINATE verdict.
INDETERMINATE needs both generators to be members and the cap to have
truncated the search; certify() states the whole rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from classgen.families import generator_pair, is_member
from classgen.matrix import Mat
# ROW_CODE_LIMIT is imported to keep its old path classgen.enumeration.ROW_CODE_LIMIT.
from classgen.spec import (DEFAULT_CAP, ROW_CODE_LIMIT, GroupSpec,
                           check_closure_limit, check_row_code_limit, theoretical_order)


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


def _prepare(gens: list[Mat], cap: int):
    if not gens:
        raise ValueError("need at least one generator")
    if int(cap) != cap or cap < 1:
        raise ValueError(f"cap must be a positive integer, got {cap}")
    ctx, n = gens[0].ctx, gens[0].n
    for g in gens:
        if g.ctx != ctx or g.n != n:
            raise ValueError("generators must share one field and one degree")
    check_row_code_limit(ctx.q, n)
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
    """The 1-D array of keys of (m, n) row codes, one key per matrix.

    Row i fills bits [i*bits, (i+1)*bits) of a little-endian string of
    w = ceil(n*bits/64) uint64 words.  A one-word key is that uint64; a wider
    key is the string as one raw-bytes value of 8*w bytes, which numpy sorts
    and compares bytewise: an exact total order, though not the numeric one.
    """
    m, n = rows.shape
    words = -(-n * bits // 64)
    keys = np.zeros((m, words), dtype=np.uint64)
    for i in range(n):
        row = rows[:, i].astype(np.uint64)
        word, shift = divmod(i * bits, 64)
        keys[:, word] |= row << np.uint64(shift)
        if shift + bits > 64:
            keys[:, word + 1] |= row >> np.uint64(64 - shift)
    return keys[:, 0] if words == 1 else keys.view(np.dtype((np.void, 8 * words)))[:, 0]


def _dedup(visited: np.ndarray, keys: np.ndarray):
    """Merge keys into visited; return it and the indices of the new keys.

    visited holds unique keys in sorted order.  The returned indices are those
    of the first occurrence of each key that is not in visited, in increasing
    order.  Keys are sorted by numpy's fastest, unstable argsort, so a first
    occurrence is the least index of its run of equal keys.
    """
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    uniq, first = keys[starts], np.minimum.reduceat(order, starts)
    pos = np.searchsorted(visited, uniq)
    new = np.take(visited, pos, mode="clip") != uniq
    return np.insert(visited, pos[new], uniq[new]), np.sort(first[new])


def _closure_impl(gens: list[Mat], cap: int, collect: bool):
    ctx, n = _prepare(gens, cap)
    tables = [_row_table(g) for g in gens]
    bits = (ctx.q**n - 1).bit_length()
    frontier = _row_codes(Mat.identity(ctx, n).codes, ctx.q).astype(tables[0].dtype)[None]
    visited = _pack(frontier, bits)
    found = [frontier] if collect else None

    rounds, truncated = 0, False
    while frontier.shape[0] and not truncated:
        fresh = []
        for table in tables:
            prod = table[frontier]
            visited, first = _dedup(visited, _pack(prod, bits))
            fresh.append(prod[first])
            if len(visited) > cap:
                truncated = True
                break
        frontier = np.concatenate(fresh)
        if frontier.shape[0]:
            rounds += 1
            if collect:
                found.append(frontier)
    return ClosureResult(len(visited), truncated, rounds), found


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
    return [Mat(ctx, m) for m in _decode(np.concatenate(found), ctx.q).tolist()]


def certify(spec: GroupSpec, cap: int = DEFAULT_CAP) -> Certificate:
    """Certify the generator pair for spec against the theoretical group order.

    PASS: both generators are members of G and the closure finished at
    exactly |G|.  FAIL: a generator is not a member, whatever the closure
    did, or the closure finished at another size.  INDETERMINATE: both are
    members and the cap truncated the closure.

    Uncovered parameters (UnsupportedParametersError) and the closure size
    limit (ValueError) are refused before any generator is built.
    """
    check_closure_limit(spec)
    pair = generator_pair(spec)
    membership_ok = is_member(spec, pair.a) and is_member(spec, pair.b)
    expected = theoretical_order(spec)
    result = closure([pair.a, pair.b], cap=cap)
    if membership_ok and result.truncated:
        verdict = Verdict.INDETERMINATE
    elif membership_ok and result.size == expected:
        verdict = Verdict.PASS
    else:
        verdict = Verdict.FAIL
    return Certificate(spec, membership_ok, expected, result, verdict)
