"""Closure enumeration and certification against the classical order formulas.

closure() runs a breadth-first search from the identity, right-multiplying
the frontier by each generator.  A matrix is held as its n row codes: the
row with entry codes (c_0, ..., c_{n-1}) has code c_0 + c_1*q + ... +
c_{n-1}*q**(n-1) in [0, q**n).  Row i of M*g is (row i of M)*g, so each
generator g gets a table T_g of length q**n mapping v to v*g, and the
product of a whole frontier is the single gather T_g[frontier].  Both
kernels build T_g from _action(g), the GF(p)-matrix of v -> v*g, worked
out once with the field's scalar product.  A
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
q**n <= 2**20 (ROW_CODE_LIMIT), checked before any work.  numpy is
imported inside closure() and its helpers, so importing this module does
not load it.

certify() combines the membership predicates, the exact theoretical order
and the closure count into a PASS / FAIL / INDETERMINATE verdict; it states
the whole rule.  A non-member generator is a FAIL without any search, so
every search certify() runs is on a subgroup of G and visits at most |G|
elements.  For |G| <= PYTHON_BFS_MAX_ORDER it runs _python_closure: the
same search with Python-list row tables and a Python set of row-code
tuples, which needs no numpy.  Such a small group is enumerated in less
time than numpy takes to import.  Both kernels give the same ClosureResult.
group_elements() reads its discovery order from _python_closure, so only
closure() loads numpy.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from classgen.families import generator_pair, is_member
from classgen.matrix import Mat
from classgen.spec import (DEFAULT_CAP, GroupSpec, _as_int, check_closure_limit,
                           check_row_code_limit, theoretical_order)

# certify() enumerates a group of at most this order in pure Python.  In cold
# certify runs on a 2-vCPU Xeon VM the Python BFS cost 1.3 us per element and
# the numpy closure 0.11 s more for its import plus 0.44 us per element, so
# the two break even near 1.2e5 elements.
PYTHON_BFS_MAX_ORDER = 120_000


class Verdict(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INDETERMINATE = "INDETERMINATE"


class ClosureResult(NamedTuple):
    size: int
    truncated: bool
    frontier_rounds: int


class Certificate(NamedTuple):
    spec: GroupSpec
    membership_ok: bool
    expected_order: int
    closure: ClosureResult | None  # None when membership failed: no search ran
    verdict: Verdict


def _check_cap(cap) -> int:
    """cap as a Python int; ValueError unless it is an integer >= 1 (a float,
    even 2.0, is refused)."""
    value = _as_int(cap)
    if value is None or value < 1:
        raise ValueError(f"cap must be a positive integer, got {cap}")
    return value


def _prepare(gens: list[Mat], cap) -> tuple:
    """The shared field, degree and validated cap of a closure's inputs."""
    if not gens:
        raise ValueError("need at least one generator")
    cap = _check_cap(cap)
    ctx, n = gens[0].ctx, gens[0].n
    for g in gens:
        if g.ctx != ctx or g.n != n:
            raise ValueError("generators must share one field and one degree")
    check_row_code_limit(ctx.q, n)
    for g in gens:
        if not g.det():
            raise ValueError("generators must be invertible")
    return ctx, n, cap


def _action(g: Mat) -> list[list[int]]:
    """The (n*k, n*k) matrix over GF(p) of v -> v*g on the base-p digits of
    a row code.

    Digit l*k + s of v is coefficient s of entry l, so row (l, s) holds the
    digits of t**s times row l of g.
    """
    ctx = g.ctx
    return [[d for e in row for d in ctx.code_to_coeffs(ctx.mul_code(ctx.p**s, e.code))]
            for row in g.rows() for s in range(ctx.k)]


def _row_table(g: Mat):
    """T with T[v] = v*g for every row code v in [0, q**n), as an ndarray.

    Each output digit column of _action(g) doubles over the input digits:
    the codes with top digit c at m are c * p**m plus the codes below p**m.
    """
    import numpy as np

    ctx, n = g.ctx, g.n
    p, nk = ctx.p, n * ctx.k
    action = _action(g)
    size = ctx.q**n
    dtype = np.min_scalar_type(size - 1)
    table = np.zeros(size, dtype=dtype)
    col_dtype = np.min_scalar_type(nk * (p - 1))  # sums of nk terms < p, reduced once
    for out in range(nk):
        col = np.zeros(1, dtype=col_dtype)
        for m in range(nk):
            col = ((np.arange(p) * action[m][out] % p).astype(col_dtype)[:, None] + col).ravel()
        table += (col % p).astype(dtype) * dtype.type(p**out)
    return table


def _python_row_table(g: Mat) -> list[int]:
    """_row_table(g) as a list, built in pure Python by the same doubling.

    certify() sends here only specs with q**n <= 4096; at q**n = 2**20 the
    list loop takes seconds where numpy takes a tenth of one.
    """
    ctx, n = g.ctx, g.n
    p, nk = ctx.p, n * ctx.k
    action = _action(g)
    table = [0] * ctx.q**n
    for out in range(nk):
        col = [0]
        for m in range(nk):
            a = action[m][out]
            col = [(c * a + x) % p for c in range(p) for x in col]
        weight = p**out
        table = [t + d * weight for t, d in zip(table, col)]
    return table


def _pack(rows, bits: int):
    """The 1-D array of keys of (m, n) row codes, one key per matrix.

    Row i fills bits [i*bits, (i+1)*bits) of a little-endian string of
    w = ceil(n*bits/64) uint64 words.  A one-word key is that uint64; a wider
    key is the string as one raw-bytes value of 8*w bytes, which numpy sorts
    and compares bytewise: an exact total order, though not the numeric one.
    """
    import numpy as np

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


def _dedup(visited, keys):
    """Merge keys into visited; return it and the indices of the new keys,
    in increasing order.

    visited holds unique keys in sorted order, and keys must be distinct,
    as the products of a distinct frontier by one invertible g are.
    """
    import numpy as np

    order = np.argsort(keys)
    keys = keys[order]
    pos = np.searchsorted(visited, keys)
    new = np.take(visited, pos, mode="clip") != keys
    return np.insert(visited, pos[new], keys[new]), np.sort(order[new])


def _python_closure(gens: list[Mat], cap: int):
    """closure() in pure Python, with the same validation, search and result.

    An element is the tuple of its n row codes, and the visited set is a
    Python set of them.  Returns the ClosureResult and the visited elements
    in discovery order, identity first.  It imports no numpy.
    """
    ctx, n, cap = _prepare(gens, cap)
    tables = [_python_row_table(g).__getitem__ for g in gens]
    identity = tuple(ctx.q**i for i in range(n))
    visited, frontier, found = {identity}, [identity], [identity]

    rounds, truncated = 0, False
    while frontier and not truncated:
        fresh = []
        columns = list(zip(*frontier))  # columns[i]: row code i of every frontier element
        for times_g in tables:
            # g is invertible, so distinct elements have distinct products:
            # a product repeats only what visited already holds.
            products = zip(*[map(times_g, column) for column in columns])
            new = [m for m in products if m not in visited]
            visited.update(new)
            fresh += new
            if len(visited) > cap:
                truncated = True
                break
        frontier = fresh
        if frontier:
            rounds += 1
            found += frontier
    return ClosureResult(len(visited), truncated, rounds), found


def closure(gens: list[Mat], cap: int = DEFAULT_CAP) -> ClosureResult:
    """Breadth-first closure of the generated group; see the module docstring."""
    import numpy as np

    ctx, n, cap = _prepare(gens, cap)
    tables = [_row_table(g) for g in gens]
    bits = (ctx.q**n - 1).bit_length()
    frontier = np.array([[ctx.q**i for i in range(n)]], dtype=tables[0].dtype)  # the identity
    visited = _pack(frontier, bits)

    rounds, truncated = 0, False
    while frontier.shape[0] and not truncated:
        fresh = []
        for table in tables:
            prod = table[frontier]
            visited, new = _dedup(visited, _pack(prod, bits))
            fresh.append(prod[new])
            if len(visited) > cap:
                truncated = True
                break
        frontier = np.concatenate(fresh)
        if frontier.shape[0]:
            rounds += 1
    return ClosureResult(len(visited), truncated, rounds)


def group_elements(gens: list[Mat], cap: int = DEFAULT_CAP) -> list[Mat]:
    """All elements of the generated group in discovery order (identity first).

    Runs _python_closure and decodes its row codes, so it loads no numpy.
    Raises ValueError if the cap truncates the search.
    """
    result, found = _python_closure(gens, cap)
    if result.truncated:
        raise ValueError(f"cap {cap} truncated the enumeration at {result.size} elements")
    ctx = gens[0].ctx
    powers = [ctx.q**j for j in range(gens[0].n)]
    return [Mat(ctx, [[v // w % ctx.q for w in powers] for v in m]) for m in found]


def certify(spec: GroupSpec, cap: int = DEFAULT_CAP) -> Certificate:
    """Certify the generator pair for spec against the theoretical group order.

    FAIL without a search if a generator lies outside G: the pair cannot
    generate G, and closure is None.  Otherwise <a, b> <= G and the search
    visits at most |G| elements.  INDETERMINATE: the cap truncated the
    closure.  PASS: it finished at exactly |G|.  FAIL: it finished at
    another size.

    A G of order at most PYTHON_BFS_MAX_ORDER is enumerated in pure Python
    and numpy is never imported; otherwise closure() runs.  Both give the
    same ClosureResult.

    A cap that is not an integer >= 1 (ValueError), uncovered parameters
    (UnsupportedParametersError) and the closure size limit (ValueError) are
    refused before any generator is built.
    """
    cap = _check_cap(cap)
    check_closure_limit(spec)
    pair = generator_pair(spec)
    expected = theoretical_order(spec)
    if not (is_member(spec, pair.a) and is_member(spec, pair.b)):
        return Certificate(spec, False, expected, None, Verdict.FAIL)
    if expected <= PYTHON_BFS_MAX_ORDER:
        result, _ = _python_closure([pair.a, pair.b], cap)
    else:
        result = closure([pair.a, pair.b], cap=cap)
    if result.truncated:
        verdict = Verdict.INDETERMINATE
    else:
        verdict = Verdict.PASS if result.size == expected else Verdict.FAIL
    return Certificate(spec, True, expected, result, verdict)
