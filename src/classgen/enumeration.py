"""Closure enumeration and certification against the classical order formulas.

_search() is the breadth-first search from the identity, right-multiplying
the frontier by each generator; two kernels give it their element format.
A matrix is held as its n row codes: the row with entry codes (c_0, ...,
c_{n-1}) has code c_0 + c_1*q + ... + c_{n-1}*q**(n-1) in [0, q**n).  Row i
of M*g is (row i of M)*g, so each generator g gets a table T_g of length
q**n mapping v to v*g.  Both kernels build T_g from _action(g), the
GF(p)-matrix of v -> v*g, worked out once with the field's scalar product.

In closure() a matrix is one key, row i in bits [i*b, (i+1)*b) with
b = (q**n - 1).bit_length(): uint32 when n*b <= 32, else uint64.  The row
tables are uint32 and closure() widens them to the key's word.  The
closure limits live here: keys wider than 64 bits, like tables past
q**n = 2**20 (_ROW_CODE_LIMIT), are refused before any work.  A batch's
product by g ORs T_g[(key >> i*b) & mask] << i*b over rows i, w rows per
gather: w = max(1, min(n, _LOOKUP_BITS // b)), from a table of 2**(w*b)
keys built from T_g, M4RI's table of row combinations (w >= 2 in 20 of the
664 covered groups certify() sends here).

When n*b <= _DIRECT_KEY_BITS the visited set is a bool array indexed by
key, at most 4 MiB.  Otherwise it is a table of tags in front of a list of
sorted key arrays (chunks) of about _CHUNK keys.  A key held in the chunks
is sorted, routed to its chunk, looked up by binary search and inserted,
so it costs 4 or 8 bytes, plus a copy of one chunk while merging.

The table stores a multiplicatively hashed key by its quotient (Knuth,
TAOCP 3, 6.4; Cleary 1984).  A key k of nb = n*b bits mixes to
m = k*C mod 2**nb, C = the top nb bits of _MIX made odd, so k -> m is a
bijection.  Its home is the top w = min(_HOME_BITS, nb) bits of m, its tag
the low nb - w bits plus 1, and a home holding 0 is empty.  A key whose home holds its tag is
visited.  Keys that find their home empty write their tags there; the one
whose tag stays took the home and is new.  Every other key is taken (its
home holds another tag) and goes to the chunks.  A home never changes
once set, and keys sharing a home have distinct tags, so each visited key
is in the table or in the chunks, never both, and a lookup cannot miss
it.  The table holds 2**w tags of 1 to 8 bytes; the chunks, only the
keys whose home was taken.

A finished result depends only on the set of generators (round r finds the
elements of word length r); a truncated one also on their order.  A
repeated generator never changes the result.

certify() turns membership, the exact order and a closure count into a
PASS / FAIL / INDETERMINATE verdict, by the rule in its docstring.  For
|G| <= PYTHON_BFS_MAX_ORDER it runs _python_closure: such a small group is
enumerated in less time than numpy takes to import.  group_elements()
reads its discovery order from _python_closure, so numpy is imported only
inside closure() and its helpers.
"""

from __future__ import annotations

import collections
import enum
import gc
import itertools
import operator

from classgen.families import generator_pair, is_member
from classgen.matrix import Mat
from classgen.spec import (DEFAULT_CAP, GroupSpec, _as_int, _shown, case_label, field_order,
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
# 4 MiB, no more than a sorted uint32 set of 2**20 keys.  The table of tags
# would be as large and slower: on a 2-vCPU Xeon VM it took GL(3,5)
# 0.046 -> 0.052 s, SL(3,5) 0.011 -> 0.014 s and GL(2,37) (22-bit keys, two
# per home) 0.048 -> 0.158 s.
_DIRECT_KEY_BITS = 22

# Wider keys are looked up in a table of 2**_HOME_BITS tags before the
# chunks: 2 to 16 MiB, as a tag of 1 to 64 - 21 bits, plus 1, takes a uint8
# to a uint64.
_HOME_BITS = 21
# 2**64 over the golden ratio: its top nb bits, made odd, multiply a key of
# nb bits (Knuth's multiplicative hashing).
_MIX = 0x9E3779B97F4A7C15

_ROW_CODE_LIMIT = 2**20

# _product looks up w = max(1, _LOOKUP_BITS // b) rows of b bits at once, in a
# table of at most 2**_LOOKUP_BITS keys (M4RI's table of row combinations).
_LOOKUP_BITS = 16

# _product and _claim work through this many keys at a time, so their
# temporaries stay at most 128 KiB each whatever the batch size.
# Temporaries the size of each batch, which the inverse skip makes unequal,
# fragment the heap and raise the peak RSS (README, Closure kernel).
_BLOCK = 1 << 14


def _check_row_code_limit(q: int, n: int) -> None:
    """Refuse a closure over GF(q) at degree n: its row tables need q**n <= 2**20."""
    # q >= 2, so any n > 20 exceeds the limit; the min keeps q**n small.
    if q**min(n, 21) > _ROW_CODE_LIMIT:
        raise ValueError(f"closure needs q**n <= 2**20 (row-code table limit); "
                         f"GF({q}) at degree {_shown(n)} exceeds it")


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
        raise ValueError(f"cap must be a positive integer, got {_shown(cap)}")
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
    table[r_j] in the same place (0 past q**n).  Returns it and w; with
    w = 1 it is table itself."""
    import numpy as np

    w = max(1, min(n, _LOOKUP_BITS // bits))
    if w > 1:
        table = pad = np.pad(table, (0, (1 << bits) - len(table)))
        for j in range(1, w):  # entry hi << (j*bits) | lo is pad[hi] << (j*bits) | table[lo]
            table = (np.left_shift(pad, table.dtype.type(j * bits))[:, None] | table).ravel()
    return table, w


def _product(batches, table, w: int, n: int, bits: int):
    """The keys of M*g for the keys of M in the arrays batches, in order,
    where (table, w) = _lookup_table(_row_table(g), n, bits): row i of M*g
    is table[row i of M].  One gather reads w rows of M (the last group may
    hold fewer), so only the n rows of a key are read.  The keys and table
    share one dtype."""
    import numpy as np

    total = sum(len(keys) for keys in batches)
    out = np.zeros(total, dtype=table.dtype)
    # the row codes go straight into the intp indices np.take wants, uncast
    size = min(total, _BLOCK)
    rows, images = np.empty(size, dtype=np.intp), np.empty(size, dtype=table.dtype)
    done = 0
    for block in (keys[at:at + _BLOCK] for keys in batches for at in range(0, len(keys), _BLOCK)):
        into, done = out[done:done + len(block)], done + len(block)
        row, image = rows[:len(block)], images[:len(block)]
        for i in range(0, n, w):
            shift = table.dtype.type(i * bits)
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


def _claim(table, keys, bits):
    """Look the distinct keys of bits bits up in table, their tags by home
    (module docstring), and claim the empty homes.  Returns two bool masks
    over keys: took (new, placed in its empty home) and taken (its home
    holds another key's tag, so the chunks decide); a key that is neither
    was found at its home."""
    import numpy as np

    rest = bits - (len(table) - 1).bit_length()  # the tag's bits
    word = keys.dtype.type
    mix, low = word(_MIX >> (64 - bits) | 1), word((1 << rest) - 1)
    took, taken = np.empty(len(keys), dtype=bool), np.empty(len(keys), dtype=bool)
    size = min(len(keys), _BLOCK)
    mixes, homes = np.empty(size, dtype=keys.dtype), np.empty(size, dtype=np.intp)
    tags, holds, puts = (np.empty(size, dtype=table.dtype) for _ in range(3))
    for at in range(0, len(keys), _BLOCK):
        block = keys[at:at + _BLOCK]
        mixed, home, tag, held, put = (a[:len(block)] for a in (mixes, homes, tags, holds, puts))
        empty, lost = took[at:at + len(block)], taken[at:at + len(block)]
        np.multiply(block, mix, out=mixed)  # wraps mod 2**32 or 2**64; C is odd
        if bits < 8 * mixed.itemsize:
            np.bitwise_and(mixed, word((1 << bits) - 1), out=mixed)
        np.right_shift(mixed, word(rest), out=home)
        np.add(np.bitwise_and(mixed, low, out=mixed), 1, out=tag)
        np.take(table, home, out=held, mode="clip")  # homes are in range: unbuffered
        np.equal(held, 0, out=empty)
        # each key writes its tag to an empty home and leaves a held one as
        # it is; keys that share an empty home all write it, and one tag stays
        np.bitwise_or(held, np.multiply(tag, empty, out=put), out=put)
        np.put(table, home, put, mode="clip")
        np.take(table, home, out=held, mode="clip")
        np.not_equal(held, tag, out=lost)
        np.greater(empty, lost, out=empty)  # empty and not lost
    return took, taken


def _mark(seen, keys):
    """Set the distinct keys in seen, a bool array indexed by key, and
    return those that were not yet set, in their order."""
    new = keys[~seen[keys]]
    seen[new] = True
    return new


def _search(start, gens: list[Mat], cap: int, multiply, visit) -> ClosureResult:
    """The breadth-first search from start, the identity's batch.

    multiply(batches, i) returns the products of the batches' elements by
    gens[i], distinct as g is invertible; visit(products) marks them visited
    and returns the new ones, in order.  The frontier is one batch per
    generator that found its elements.  If g_j * g_i = 1, g_i skips the
    batch g_j found: each of those products is its parent, already visited
    (free reduction), so no result changes.  A round counts if it finds
    something.  The search stops when the frontier empties (exact count)
    or, checked after each generator, the visited set grows past the cap
    (truncated).  A batch is freed once its last generator multiplied it,
    before visit.  The cyclic GC is paused and then restored: elements of
    ints form no cycles, and its passes would walk all of visited.
    """
    one = Mat.identity(gens[0].ctx, gens[0].n)
    undoes = [[g * h == one for h in gens] for g in gens]
    batches = [([False] * len(gens), start)]
    size, rounds, truncated = len(start), 0, False
    enabled = gc.isenabled()
    gc.disable()
    try:
        while batches and not truncated:
            sources = [[batch for skip, batch in batches if not skip[i]]
                       for i in reversed(range(len(undoes)))]
            batches = []
            for i, skipped_by in enumerate(undoes):
                new = visit(multiply(sources.pop(), i))
                size += len(new)
                if len(new):
                    batches.append((skipped_by, new))
                truncated = size > cap
                if truncated:
                    break
            rounds += bool(batches)
    finally:
        if enabled:
            gc.enable()
    return ClosureResult(size, truncated, rounds)


def _python_closure(gens: list[Mat], cap: int):
    """closure() in pure Python: its ClosureResult and the visited elements
    in discovery order, identity first.  It imports no numpy.

    An element is its n row codes, in a Python set of the visited ones.  When
    q**n <= 256 it is their bytes, and M*g is one M.translate(T_g), T_g
    padded to 256 entries; otherwise it is their tuple, and T_g maps each
    row code.
    """
    ctx, n, cap = _prepare(gens, cap)
    tables = [_python_row_table(g) for g in gens]
    identity = [ctx.q**i for i in range(n)]
    if ctx.q**n <= 256:
        identity, tables = bytes(identity), [bytes(t).ljust(256, b"\0") for t in tables]

        def multiply(batches, i):
            return map(bytes.translate, itertools.chain(*batches), itertools.repeat(tables[i]))
    else:
        identity = tuple(identity)

        def multiply(batches, i):  # T_g maps row code r of every element, for each r
            rows = [map(operator.itemgetter(r), itertools.chain(*batches)) for r in range(n)]
            return zip(*[map(tables[i].__getitem__, row) for row in rows])
    visited, found = {identity}, [identity]

    def visit(products):
        new = [m for m in products if m not in visited]
        visited.update(new)
        found.extend(new)
        return new

    return _search([identity], gens, cap, multiply, visit), found


def closure(gens: list[Mat], cap: int = DEFAULT_CAP) -> ClosureResult:
    """Breadth-first closure of the generated group; see the module docstring."""
    import numpy as np

    ctx, n, cap = _prepare(gens, cap)
    bits = _check_key_width(ctx.q, n)
    word = np.uint32 if n * bits <= 32 else np.uint64
    tables = [_lookup_table(_row_table(g).astype(word, copy=False), n, bits) for g in gens]
    identity = sum(ctx.q**i << (i * bits) for i in range(n))
    start = np.array([identity], dtype=word)
    key_bits = n * bits
    if key_bits <= _DIRECT_KEY_BITS:
        seen = np.zeros(1 << key_bits, dtype=bool)
        seen[identity] = True

        def visit(keys):
            return _mark(seen, keys)
    else:
        home_bits = min(_HOME_BITS, key_bits)
        table = np.zeros(1 << home_bits, dtype=np.min_scalar_type(1 << (key_bits - home_bits)))
        chunks = [np.zeros(1, dtype=word)]  # key 0, the zero matrix, is never a product

        def visit(keys):
            took, taken = _claim(table, keys, key_bits)
            took, taken = keys.compress(took), keys.compress(taken)
            del keys  # _search passes the products unnamed: this frees them before the merge
            return np.concatenate([took, _merge(chunks, taken)])
        visit(start)
    # no name holds the products, so each batch is freed once visited
    return _search(start, gens, cap, lambda batches, i: _product(batches, *tables[i], n, bits),
                   visit)


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
