"""Closure enumeration and certification against the classical order formulas.

closure() runs a breadth-first search from the identity, right-multiplying
the frontier by each generator.  A matrix is held as its n row codes: the
row with entry codes (c_0, ..., c_{n-1}) has code c_0 + c_1*q + ... +
c_{n-1}*q**(n-1) in [0, q**n).  Row i of M*g is (row i of M)*g, so each
generator g gets a table T_g of length q**n mapping v to v*g.  Both
kernels build T_g from _action(g), the GF(p)-matrix of v -> v*g, worked
out once with the field's scalar product.

In closure() a matrix is one key, row i in bits [i*b, (i+1)*b) with
b = (q**n - 1).bit_length(): uint32 when n*b <= 32, else uint64.  The row
tables are uint32 and closure() widens them to the key's word.  The
closure limits live here: keys wider than 64 bits, like tables past
q**n = 2**20 (_ROW_CODE_LIMIT), are refused before any work.  A frontier's
product by g ORs T_g[(key >> i*b) & mask] << i*b over rows i, w rows per
gather: w = max(1, min(n, _LOOKUP_BITS // b)), from a table of 2**(w*b)
keys built from T_g, M4RI's table of row combinations (w >= 2 in 20 of the
664 covered groups certify() sends here).  The frontier is kept as one
batch per generator that found its keys, plus round 0's identity, and its
new keys form part of the next frontier.  If g_j * g_i = 1, g_i skips the
batch g_j found: each of those products is its parent, already visited
(free reduction; in 14 of those 664 pairs a is an involution).  Every
skipped product was a duplicate, so neither cut changes a result.

When n*b <= _DIRECT_KEY_BITS the visited set is a bool array indexed by
key, at most 4 MiB.  Otherwise it is a list of sorted key arrays (chunks)
of about _CHUNK keys: a product is sorted, routed to the chunks, looked up
by binary search and inserted, so it costs 4 or 8 bytes per element, plus
a copy of one chunk while merging.  The search stops when the frontier
empties (exact count) or, checked after each generator, the visited set
grows past the cap (truncated).

A finished result depends only on the set of generators (round r finds the
elements of word length r); a truncated one also on their order.  A
repeated generator never changes the result.  numpy is imported only
inside closure() and its helpers.

certify() turns membership, the exact order and a closure count into a
PASS / FAIL / INDETERMINATE verdict, by the rule in its docstring.  For
|G| <= PYTHON_BFS_MAX_ORDER it runs _python_closure, the same search with
Python-list row tables and a Python set of elements: such a small group is
enumerated in less time than numpy takes to import.  When q**n <= 256 an
element is the bytes of its n row codes and a product is one
bytes.translate; otherwise it is the tuple of them and a round maps each
column of row codes.  Both kernels give the same ClosureResult.
group_elements() reads its discovery order from _python_closure, so only
closure() loads numpy.
"""

from __future__ import annotations

import collections
import enum
import gc
import itertools

from classgen.families import generator_pair, is_member
from classgen.matrix import Mat
from classgen.spec import (DEFAULT_CAP, GroupSpec, _as_int, case_label, field_order,
                           theoretical_order)

# certify() enumerates a group of at most this order in pure Python.  It was
# fitted as the break-even with the numpy closure in cold certify runs on a
# 2-vCPU Xeon VM.  Checked there per element format (README, Closure kernel):
# bytes (q**n <= 256) win on GU(4,2) (77 760) and lose on GL(3,4) (181 440),
# with no covered bytes group between; tuples win up to 79 464 elements, tie
# at 103 776 and lose by 4-7 ms at 117 600.
PYTHON_BFS_MAX_ORDER = 120_000

# Keys per chunk of the visited set, 1 MB of uint64 (2**16 to 2**18 measured alike).
_CHUNK = 1 << 17

# Keys of at most this many bits index a bool visited set directly: at most
# 4 MiB, no more than a sorted uint32 set of 2**20 keys.
_DIRECT_KEY_BITS = 22

_ROW_CODE_LIMIT = 2**20

# _product looks up w = max(1, _LOOKUP_BITS // b) rows of b bits at once, in a
# table of at most 2**_LOOKUP_BITS keys (M4RI's table of row combinations).
_LOOKUP_BITS = 16

# _product works through this many keys at a time, so its two temporaries
# stay at 128 KiB whatever the batch size.  Temporaries the size of each
# batch, which the inverse skip makes unequal, fragment the heap and raise
# the peak RSS (README, Closure kernel).
_BLOCK = 1 << 14


def _check_row_code_limit(q: int, n: int) -> None:
    """Refuse a closure over GF(q) at degree n: its row tables need q**n <= 2**20."""
    # q >= 2, so any n > 20 exceeds the limit; the min keeps q**n small.
    if q**min(n, 21) > _ROW_CODE_LIMIT:
        raise ValueError(f"closure needs q**n <= 2**20 (row-code table limit); "
                         f"GF({q}) at degree {n} exceeds it")


def _check_key_width(q: int, n: int) -> int:
    """The bits b of a row code over GF(q) (q**n within its limit); refuse n * b > 64."""
    bits = (q**n - 1).bit_length()
    if n * bits > 64:
        raise ValueError(f"closure needs n * bit_length(q**n - 1) <= 64 (one-word key limit); "
                         f"GF({q}) at degree {n} needs {n * bits} bits")
    return bits


class Verdict(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INDETERMINATE = "INDETERMINATE"


ClosureResult = collections.namedtuple("ClosureResult", "size truncated frontier_rounds")
# closure is None when membership failed: no search ran.
Certificate = collections.namedtuple(
    "Certificate", "spec membership_ok expected_order closure verdict")


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
    _check_row_code_limit(ctx.q, n)
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
    """T with T[v] = v*g for every row code v in [0, q**n), as uint32.

    Each output digit column of _action(g) doubles over the input digits:
    the codes with top digit c at m are c * p**m plus the codes below p**m.
    """
    import numpy as np

    ctx, n = g.ctx, g.n
    p, nk = ctx.p, n * ctx.k
    action = _action(g)
    table = np.zeros(ctx.q**n, dtype=np.uint32)
    col_dtype = np.min_scalar_type(nk * (p - 1))  # sums of nk terms < p, reduced once
    for out in range(nk):
        col = np.zeros(1, dtype=col_dtype)
        for m in range(nk):
            col = ((np.arange(p) * action[m][out] % p).astype(col_dtype)[:, None] + col).ravel()
        table += (col % p).astype(np.uint32) * np.uint32(p**out)
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


def _lookup_table(table, n: int, bits: int):
    """table = _row_table(g) widened to w = max(1, min(n, _LOOKUP_BITS // bits))
    rows: entry r_0 | r_1 << bits | ... maps each b-bit row code r_j to
    table[r_j] in the same place (0 past q**n).  Returns it and w; a table
    that already has 2**(w*bits) entries, or w = 1, is returned as it is."""
    import numpy as np

    w = max(1, min(n, _LOOKUP_BITS // bits))
    if w > 1 and len(table) < 1 << w * bits:
        pad = np.zeros(1 << bits, dtype=table.dtype)
        pad[:len(table)] = table
        table = pad
        for j in range(1, w):  # entry hi << (j*bits) | lo is pad[hi] << (j*bits) | table[lo]
            table = (np.left_shift(pad, table.dtype.type(j * bits))[:, None] | table).ravel()
    return table, w


def _product(keys, table, n: int, bits: int):
    """The keys of M*g for the keys of M, table = _row_table(g) or its
    _lookup_table: row i of M*g is table[row i of M].  One gather reads w
    rows of M (the last group may hold fewer), so only the n rows of a key
    are read.  keys and table share one dtype."""
    import numpy as np

    word = keys.dtype.type
    table, w = _lookup_table(table, n, bits)
    out = np.zeros_like(keys)
    # the row codes go straight into the intp indices np.take wants, uncast
    size = min(len(keys), _BLOCK)
    rows, images = np.empty(size, dtype=np.intp), np.empty(size, dtype=keys.dtype)
    for start in range(0, len(keys), _BLOCK):
        block, into = keys[start:start + _BLOCK], out[start:start + _BLOCK]
        row, image = rows[:len(block)], images[:len(block)]
        for i in range(0, n, w):
            shift = word(i * bits)
            mask = (1 << min(w, n - i) * bits) - 1
            np.bitwise_and(np.right_shift(block, shift, out=row), mask, out=row)
            # the codes are in range; mode="clip" lets take write into image unbuffered
            np.take(table, row, out=image, mode="clip")
            np.bitwise_or(into, np.left_shift(image, shift, out=image), out=into)
    return out


def _merge(chunks, keys):
    """Merge distinct keys into chunks, the visited set's sorted key arrays
    in increasing order, in place, splitting a chunk past 2 * _CHUNK keys;
    return the keys that were new, in increasing order.  keys is sorted in
    place."""
    import numpy as np

    keys.sort()
    # the first keys in the key dtype: a uint64 >= 2**63 as a Python int makes float64
    bounds = np.array([chunk[0] for chunk in chunks[1:]], dtype=keys.dtype)
    parts = np.split(keys, np.searchsorted(keys, bounds)) if len(bounds) else [keys]
    fresh = []
    for j in reversed(range(len(parts))):  # a split shifts only the later chunks
        chunk, part = chunks[j], parts[j]
        pos = np.searchsorted(chunk, part)
        new = np.take(chunk, pos, mode="clip") != part
        fresh.append(part[new])
        if len(fresh[-1]):
            chunks[j] = chunk = np.insert(chunk, pos[new], fresh[-1])
        if len(chunk) > 2 * _CHUNK:  # copies: a view would keep all of chunk alive
            chunks[j:j + 1] = [chunk[i:i + _CHUNK].copy() for i in range(0, len(chunk), _CHUNK)]
    return fresh[0] if len(fresh) == 1 else np.concatenate(fresh[::-1])


def _mark(seen, keys):
    """Set the distinct keys in seen, a bool array indexed by key, and
    return those that were not yet set, in their order."""
    new = keys[~seen[keys]]
    seen[new] = True
    return new


def _python_closure(gens: list[Mat], cap: int):
    """closure() in pure Python, with the same validation, search and result.

    An element is the sequence of its n row codes, and the visited set is a
    Python set of them.  When q**n <= 256 it is the bytes of the codes, and
    M*g is one M.translate(T_g), T_g padded to 256 entries; otherwise it is
    a tuple, and a round maps each column of row codes through T_g.
    Returns the ClosureResult and the visited elements in discovery order,
    identity first.  It imports no numpy.
    """
    ctx, n, cap = _prepare(gens, cap)
    tables = [_python_row_table(g) for g in gens]
    identity = [ctx.q**i for i in range(n)]
    as_bytes = ctx.q**n <= 256
    if as_bytes:
        identity = bytes(identity)
        tables = [bytes(t).ljust(256, b"\0") for t in tables]
    else:
        identity = tuple(identity)
        tables = [t.__getitem__ for t in tables]
    visited, frontier, found = {identity}, [identity], [identity]

    rounds, truncated = 0, False
    enabled = gc.isenabled()
    gc.disable()  # elements of ints form no cycles, and passes would walk all of visited
    try:
        while frontier and not truncated:
            fresh = []
            if as_bytes:
                by_each = [map(bytes.translate, frontier, itertools.repeat(t)) for t in tables]
            else:
                columns = list(zip(*frontier))  # columns[i]: row code i of every frontier element
                by_each = [zip(*[map(times_g, column) for column in columns]) for times_g in tables]
            for products in by_each:
                # g is invertible, so distinct elements have distinct products:
                # a product repeats only what visited already holds.
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
    finally:
        if enabled:
            gc.enable()
    return ClosureResult(len(visited), truncated, rounds), found


def closure(gens: list[Mat], cap: int = DEFAULT_CAP) -> ClosureResult:
    """Breadth-first closure of the generated group; see the module docstring."""
    import numpy as np

    ctx, n, cap = _prepare(gens, cap)
    bits = _check_key_width(ctx.q, n)
    word = np.uint32 if n * bits <= 32 else np.uint64
    tables = [_lookup_table(_row_table(g).astype(word, copy=False), n, bits)[0] for g in gens]
    identity = sum(ctx.q**i << (i * bits) for i in range(n))
    frontier = np.array([identity], dtype=word)
    # If g_j * g_i = 1, g_i maps each key g_j found back to its parent, which
    # is visited: g_i skips that batch.  Round 0's identity batch has no g_j.
    one = Mat.identity(ctx, n)
    undoes = [[g * h == one for h in gens] for g in gens]
    batches = [([False] * len(gens), frontier)]
    if n * bits <= _DIRECT_KEY_BITS:
        visited, visit = np.zeros(1 << (n * bits), dtype=bool), _mark
        visited[identity] = True
    else:
        visited, visit = [frontier], _merge

    size, rounds, truncated = 1, 0, False
    while len(frontier) and not truncated:
        fresh = []
        for i, table in enumerate(tables):
            kept = [keys for skips, keys in batches if not skips[i]]
            source = (frontier if len(kept) == len(batches) else kept[0] if len(kept) == 1
                      else np.concatenate([frontier[:0], *kept]))
            # no name holds the products, so each batch is freed once visited
            fresh.append(visit(visited, _product(source, table, n, bits)))
            size += len(fresh[-1])
            if size > cap:
                truncated = True
                break
        frontier = np.concatenate(fresh)
        # views of frontier, one per generator that found them
        batches = list(zip(undoes, np.split(frontier, np.cumsum([len(f) for f in fresh[:-1]]))))
        if len(frontier):
            rounds += 1
    return ClosureResult(size, truncated, rounds)


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
    generate G, and closure is None.  Otherwise <a, b> <= G and the search,
    in pure Python when |G| <= PYTHON_BFS_MAX_ORDER and by closure()
    otherwise, visits at most |G| elements.  INDETERMINATE: the cap
    truncated it.  PASS: it finished at exactly |G|.  FAIL: at another size.

    A cap that is not an integer >= 1 (ValueError), uncovered parameters
    (UnsupportedParametersError) and the closure size and key limits
    (ValueError) are refused before any generator is built.
    """
    cap = _check_cap(cap)
    case_label(spec)
    _check_row_code_limit(field_order(spec), spec.degree)
    _check_key_width(field_order(spec), spec.degree)
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
