"""Closure enumeration and certification against the classical order formulas.

closure() runs a breadth-first search from the identity, right-multiplying
the frontier by each generator.  A matrix is held as its n row codes: the
row with entry codes (c_0, ..., c_{n-1}) has code c_0 + c_1*q + ... +
c_{n-1}*q**(n-1) in [0, q**n).  Row i of M*g is (row i of M)*g, so each
generator g gets a table T_g of length q**n mapping v to v*g, and the
product of a whole frontier is the single gather T_g[frontier], built
from the field's structure constants like every Mat product.  The
visited-set key of a matrix is the bytes of its n row codes.  Only keys are
stored beyond the frontier, so memory is one key per element.  The search
stops when the frontier empties (exact count) or the visited set grows past
the cap (truncated).  The result depends only on the generator set, not on
ordering or duplicates.  The tables limit closure to q**n <= 2**20
(ROW_CODE_LIMIT), checked before any work.

certify() combines the membership predicates, the exact theoretical order
and the closure count into a PASS / FAIL / INDETERMINATE verdict, where
INDETERMINATE means the cap truncated the search.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from classgen.families import (
    Family,
    GroupSpec,
    case_label,
    field_for,
    generator_pair,
    is_member,
)
from classgen.matrix import Mat

DEFAULT_CAP = 2_000_000
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


def theoretical_order(spec: GroupSpec) -> int:
    """Exact order of the group named by spec, as a Python integer."""
    case_label(spec)  # reject uncovered parameters the same way the builders do
    fam, deg, q = spec.family, spec.degree, spec.q
    if fam is Family.GL:
        return math.prod(q**deg - q**i for i in range(deg))
    if fam is Family.SL:
        return math.prod(q**deg - q**i for i in range(deg)) // (q - 1)
    if fam is Family.SP:
        n = deg // 2
        return q**(n * n) * math.prod(q**(2 * i) - 1 for i in range(1, n + 1))
    gu = q**(deg * (deg - 1) // 2) * math.prod(q**i - (-1)**i for i in range(1, deg + 1))
    if fam is Family.GU:
        return gu
    if fam is Family.SU:
        return gu // (q + 1)
    raise AssertionError(f"unhandled family {fam}")


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


def _keys(rows: np.ndarray) -> list[bytes]:
    """One visited-set key per matrix: the bytes of its n row codes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()


def _closure_impl(gens: list[Mat], cap: int, collect: bool):
    ctx, n = _prepare(gens, cap)
    tables = [_row_table(g) for g in gens]
    frontier = _row_codes(Mat.identity(ctx, n).codes, ctx.q).astype(tables[0].dtype)[None]
    visited = set(_keys(frontier))
    found = [frontier] if collect else None

    rounds = 0
    truncated = False
    while frontier.shape[0] and not truncated:
        fresh_arrays = []
        for table in tables:
            prod = table[frontier]
            fresh_idx = []
            for idx, key in enumerate(_keys(prod)):
                if key not in visited:
                    visited.add(key)
                    fresh_idx.append(idx)
            if fresh_idx:
                fresh_arrays.append(prod[fresh_idx])
            if len(visited) > cap:
                truncated = True
                break
        if fresh_arrays:
            rounds += 1
            frontier = np.concatenate(fresh_arrays)
            if collect:
                found.append(frontier)
        else:
            frontier = frontier[:0]
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
