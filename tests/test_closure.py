import gc
import importlib
import itertools
import pkgutil
import random
import tracemalloc

import numpy as np
import pytest

import classgen
import classgen.enumeration as enumeration
from classgen import (
    DEFAULT_CAP,
    Family,
    GroupSpec,
    Mat,
    UnsupportedParametersError,
    Verdict,
    case_label,
    certify,
    closure,
    field_create,
    field_for,
    generator_pair,
    group_elements,
    is_member,
    theoretical_order,
)
from classgen.enumeration import (_lookup_table, _mark, _merge, _product, _python_row_table,
                                  _row_table)
from classgen.spec import field_order
from oracles import brute_mat_order, set_closure, term_by_term_order
from test_acceptance import CLOSURE_GRID

GF3 = field_create(3, 1)
SL23 = GroupSpec(Family.SL, 2, 3)


def sl23_gens():
    pair = generator_pair(SL23)
    return [pair.a, pair.b]


# ---------------------------------------------------------------------------
# Theoretical orders
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,degree,q,order", [
    (Family.GL, 2, 2, 6),
    (Family.GL, 2, 3, 48),
    (Family.SL, 2, 3, 24),
    (Family.GL, 3, 2, 168),
    (Family.SL, 3, 2, 168),
    (Family.SP, 4, 2, 720),
    (Family.SP, 4, 3, 51840),
    (Family.SP, 6, 2, 1451520),
    (Family.GU, 3, 2, 648),
    (Family.SU, 3, 2, 216),
    (Family.GU, 3, 3, 24192),
    (Family.SU, 3, 3, 6048),
    (Family.GU, 4, 2, 77760),
    (Family.SU, 4, 2, 25920),
])
def test_theoretical_order_known_values(family, degree, q, order):
    assert theoretical_order(GroupSpec(family, degree, q)) == order


def test_theoretical_order_is_exact_for_large_parameters():
    # thousands of digits; any float path would overflow or round
    value = theoretical_order(GroupSpec(Family.GL, 100, 9))
    assert value % (9 - 1) == 0
    assert value == theoretical_order(GroupSpec(Family.SL, 100, 9)) * 8


@pytest.mark.parametrize("family", list(Family))
def test_theoretical_order_matches_the_term_by_term_product(family):
    checked = 0
    for degree in range(2, 41):
        for q in (2, 3, 4, 5, 7, 8, 9, 25, 1024, 1048576):
            spec = GroupSpec(family, degree, q)
            try:
                case_label(spec)
            except UnsupportedParametersError:
                continue
            assert theoretical_order(spec) == term_by_term_order(spec), spec
            checked += 1
    assert checked >= 200


def test_theoretical_order_rejects_uncovered_parameters():
    with pytest.raises(UnsupportedParametersError):
        theoretical_order(GroupSpec(Family.GU, 2, 5))
    with pytest.raises(UnsupportedParametersError):
        theoretical_order(GroupSpec(Family.SP, 3, 3))
    with pytest.raises(UnsupportedParametersError):
        theoretical_order(GroupSpec(Family.GL, 2, 6))


# ---------------------------------------------------------------------------
# Closure enumeration
# ---------------------------------------------------------------------------

# _DIRECT_KEY_BITS for each visited set of closure(): "sorted" sends every
# closure to the sorted chunks, "direct" every closure whose keys have at
# most 24 bits (a bool array of at most 16 MiB) to the direct set.
VISITED_SETS = {"sorted": 0, "direct": 24}


@pytest.fixture(params=list(VISITED_SETS))
def visited_set(request, monkeypatch):
    monkeypatch.setattr(enumeration, "_DIRECT_KEY_BITS", VISITED_SETS[request.param])
    return request.param


# _LOOKUP_BITS for each lookup width of _product: "one-row" reads one row
# per gather (w = 1), "grouped" as many as fit in 16 bits.
LOOKUPS = {"one-row": 0, "grouped": enumeration._LOOKUP_BITS}


@pytest.fixture(params=list(LOOKUPS))
def lookup(request, monkeypatch):
    monkeypatch.setattr(enumeration, "_LOOKUP_BITS", LOOKUPS[request.param])
    return request.param


def test_closure_of_identity_alone():
    result = closure([Mat.identity(GF3, 2)])
    assert result.size == 1
    assert result.truncated is False
    assert result.frontier_rounds == 0


def test_closure_sl23():
    result = closure(sl23_gens())
    assert result.size == 24
    assert result.truncated is False
    assert result.frontier_rounds == 5


def test_closure_counts_match_exhaustive_filter():
    """Brute-force determinant filters agree with the closure counts."""
    all_two_by_two = list(itertools.product(range(3), repeat=4))
    gl_count = sum((a * d - b * c) % 3 != 0 for a, b, c, d in all_two_by_two)
    sl_count = sum((a * d - b * c) % 3 == 1 for a, b, c, d in all_two_by_two)
    assert gl_count == 48 and sl_count == 24

    gl_pair = generator_pair(GroupSpec(Family.GL, 2, 3))
    assert closure([gl_pair.a, gl_pair.b]).size == gl_count
    assert closure(sl23_gens()).size == sl_count


def test_closure_is_independent_of_generator_presentation(visited_set):
    a, b = sl23_gens()
    baseline = closure([a, b])
    assert closure([b, a]) == baseline
    assert closure([a, b, a, b * b]) == baseline
    assert closure([a, b] * 3) == baseline


def test_a_truncated_closure_depends_on_generator_order_but_never_on_repeats(visited_set):
    # Sp(6,2) has 36-bit keys and GL(2,37) 22-bit keys
    for spec, sizes in [((Family.SP, 6, 2), [(100, 102, 113), (100_000, 120_711, 107_026)]),
                        ((Family.GL, 2, 37), [(100, 139, 132), (100_000, 110_303, 104_235)])]:
        a, b = _pair(*spec)
        for cap, ab, ba in sizes:
            assert closure([a, b], cap).size == ab
            assert closure([b, a], cap).size == ba
            # a repeat of an earlier generator finds nothing new
            assert closure([a, b, a], cap) == closure([a, a, b], cap) == closure([a, b], cap)
            assert closure([b, a, b, a], cap) == closure([b, a], cap)
    # a finished closure depends only on the set
    for spec, want in [((Family.GU, 4, 2), (77760, False, 24)),
                       ((Family.GL, 3, 4), (181_440, False, 26))]:
        a, b = _pair(*spec)
        assert closure([b, a]) == closure([a, b, b, a]) == closure([a, b]) == want


def test_closure_cap_truncates():
    result = closure(sl23_gens(), cap=10)
    assert result.truncated is True
    assert 10 < result.size <= 24


def test_closure_validates_inputs():
    with pytest.raises(ValueError, match="at least one"):
        closure([])
    with pytest.raises(ValueError, match="positive integer"):
        closure(sl23_gens(), cap=0)
    with pytest.raises(ValueError, match="share one field"):
        closure([Mat.identity(GF3, 2), Mat.identity(GF3, 3)])
    with pytest.raises(ValueError, match="share one field"):
        closure([Mat.identity(GF3, 2), Mat.identity(field_create(2, 2), 2)])
    with pytest.raises(ValueError, match="invertible"):
        closure([Mat.from_rows(GF3, [[1, 1], [1, 1]])])


def test_group_elements_sl23():
    elems = group_elements(sl23_gens())
    assert len(elems) == 24
    assert elems[0] == Mat.identity(GF3, 2)
    assert len(set(elems)) == 24
    for m in elems:
        assert is_member(SL23, m)


def test_group_elements_set_is_closed():
    """The returned set is closed under product and inverse."""
    elems = group_elements(sl23_gens())
    keys = set(elems)
    for m in elems:
        assert m.inverse() in keys
    rng = random.Random(31)
    for _ in range(200):
        x, y = rng.choice(elems), rng.choice(elems)
        assert x * y in keys


def test_group_elements_exhaustive_match():
    """Discovery agrees with an exhaustive determinant filter of GF(3)^(2x2)."""
    expected = set()
    for entries in itertools.product(range(3), repeat=4):
        m = Mat.from_rows(GF3, [list(entries[:2]), list(entries[2:])])
        if m.det() == GF3.one:
            expected.add(m)
    got = set(group_elements(sl23_gens()))
    assert got == expected


def test_group_elements_raises_when_truncated():
    with pytest.raises(ValueError, match="truncated"):
        group_elements(sl23_gens(), cap=10)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc on", "gc off"])
@pytest.mark.parametrize("spec", [SL23, GroupSpec(Family.SL, 2, 17)], ids=["bytes", "tuples"])
def test_python_search_pauses_the_gc_and_restores_the_callers_setting(spec, enabled):
    pair = generator_pair(spec)
    passes = []
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    gc.collect()
    gc.callbacks.append(lambda phase, info: passes.append(phase))
    try:
        result, _ = enumeration._python_closure([pair.a, pair.b], DEFAULT_CAP)
        assert result.size == theoretical_order(spec)
        # none during the search; with the GC on, one may fall due as it resumes
        assert passes.count("start") <= enabled
        assert gc.isenabled() is enabled
        assert len(group_elements([pair.a, pair.b])) == result.size
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.pop()
        (gc.enable if was else gc.disable)()


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def test_certify_su42_passes():
    cert = certify(GroupSpec(Family.SU, 4, 2), cap=100_000)
    assert cert.membership_ok is True
    assert cert.expected_order == 25920
    assert cert.closure.size == 25920
    assert cert.closure.truncated is False
    assert cert.verdict is Verdict.PASS


def test_certify_with_small_cap_is_indeterminate():
    cert = certify(GroupSpec(Family.SU, 4, 2), cap=10_000)
    assert cert.closure.truncated is True
    assert cert.verdict is Verdict.INDETERMINATE


def test_certify_rejects_uncovered_parameters():
    with pytest.raises(UnsupportedParametersError):
        certify(GroupSpec(Family.SU, 2, 3))


# ---------------------------------------------------------------------------
# Negative certifications: certify handed a pair that does not generate G
# ---------------------------------------------------------------------------

def hand_pair(monkeypatch, a, b):
    """Make certify() build the pair (a, b) in place of the paper's pair."""
    real = enumeration.generator_pair
    monkeypatch.setattr(enumeration, "generator_pair",
                        lambda spec: real(spec)._replace(a=a, b=b))


def hand_pair_of(monkeypatch, other):
    """Make certify() build the paper's pair for the spec other."""
    pair = generator_pair(other)
    hand_pair(monkeypatch, pair.a, pair.b)


# (spec, the spec whose pair it is handed, the order of the subgroup it generates)
PROPER_SUBGROUPS = [
    (GroupSpec(Family.GL, 3, 3), GroupSpec(Family.SL, 3, 3), 5616),  # index q - 1
    (GroupSpec(Family.GU, 3, 3), GroupSpec(Family.SU, 3, 3), 6048),  # index q + 1
]


def _spec_ids(cases):
    return [f"{spec.family.value}-{spec.degree}-{spec.q}" for spec, *_ in cases]


@pytest.mark.parametrize("spec,other,size", PROPER_SUBGROUPS, ids=_spec_ids(PROPER_SUBGROUPS))
def test_certify_fails_on_a_proper_subgroup(monkeypatch, spec, other, size):
    hand_pair_of(monkeypatch, other)
    cert = certify(spec)
    assert cert.membership_ok is True
    assert cert.expected_order == theoretical_order(spec)
    assert (cert.closure.size, cert.closure.truncated) == (size, False)
    assert cert.verdict is Verdict.FAIL


GL43 = generator_pair(GroupSpec(Family.GL, 4, 3))
GL25 = generator_pair(GroupSpec(Family.GL, 2, 5))
# (spec, a pair with a generator outside G, cap)
NON_MEMBERS = [
    (GroupSpec(Family.SP, 4, 3), (GL43.a, GL43.b), 1000),
    (GroupSpec(Family.SP, 4, 3), (GL43.a, GL43.b), DEFAULT_CAP),
    (GroupSpec(Family.SP, 4, 3), (GL43.b, GL43.b), DEFAULT_CAP),
    (GroupSpec(Family.SL, 2, 5), (GL25.a, GL25.b), DEFAULT_CAP),
]


@pytest.mark.parametrize("spec,pair,cap", NON_MEMBERS,
                         ids=["gl-pair-cap-1000", "gl-pair", "b-b", "sl-2-5-gl-pair"])
def test_certify_fails_on_a_non_member_without_a_search(monkeypatch, spec, pair, cap):
    hand_pair(monkeypatch, *pair)
    calls = []
    for name in ("closure", "_python_closure"):
        def spy(*args, _name=name, _real=getattr(enumeration, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(enumeration, name, spy)
    cert = certify(spec, cap=cap)
    assert calls == []
    assert cert == (spec, False, theoretical_order(spec), None, Verdict.FAIL)


# (spec, the order of the paper's generator a, which alone gives a cyclic group)
CYCLIC = [
    (GroupSpec(Family.GL, 3, 3), 2),
    (GroupSpec(Family.SL, 3, 4), 3),
    (GroupSpec(Family.SP, 4, 3), 2),
    (GroupSpec(Family.GU, 3, 3), 8),
    (GroupSpec(Family.SU, 4, 2), 3),
]


@pytest.mark.parametrize("spec,size", CYCLIC, ids=_spec_ids(CYCLIC))
def test_certify_fails_on_the_pair_a_a(monkeypatch, spec, size):
    a = generator_pair(spec).a
    assert brute_mat_order(a) == size
    hand_pair(monkeypatch, a, a)
    cert = certify(spec)
    assert cert.membership_ok is True
    assert (cert.closure.size, cert.closure.truncated) == (size, False)
    assert cert.verdict is Verdict.FAIL


def test_verdict_values():
    assert Verdict.PASS.value == "PASS"
    assert Verdict.FAIL.value == "FAIL"
    assert Verdict.INDETERMINATE.value == "INDETERMINATE"


# ---------------------------------------------------------------------------
# Row-action kernel
# ---------------------------------------------------------------------------

def _row_codes(m):
    """The tuple of m's n row codes: entry j of a row is base-q digit j."""
    return tuple(sum(e.code * m.ctx.q**j for j, e in enumerate(row)) for row in m.rows())


def test_row_table_products_match_mat_mul():
    for p, k, n in [(3, 2, 3), (2, 4, 2), (5, 2, 3), (5, 8, 1), (1021, 2, 1)]:
        ctx = field_create(p, k)
        rng = random.Random(37)
        mats = [Mat(ctx, np.array([[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)]))
                for _ in range(20)]
        gen = Mat(ctx, np.array([[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)]))
        table = _row_table(gen).tolist()
        assert _python_row_table(gen) == table
        for m in mats:
            product = [[table[v] // ctx.q**j % ctx.q for j in range(n)] for v in _row_codes(m)]
            assert Mat(ctx, product) == m * gen


@pytest.mark.parametrize("family,degree,q,cap,expected", [
    # Sp(8,2): eight 8-bit rows fill the 64-bit key, and row 7 reaches its top bit
    (Family.SP, 8, 2, 10, (11, True, 3)),
    (Family.SP, 8, 2, 1000, (1064, True, 13)),
    (Family.SP, 8, 2, 200_000, (204_440, True, 25)),
    # 21- and 22-bit keys, which closure() marks in a bool array
    (Family.GL, 3, 5, 1000, (1204, True, 10)),
    (Family.GL, 3, 5, 100_000, (112_695, True, 17)),
    (Family.GL, 2, 37, 100_000, (110_303, True, 19)),
])
def test_truncated_closures_are_pinned(visited_set, family, degree, q, cap, expected):
    gens = _pair(family, degree, q)
    result = closure(gens, cap=cap)
    assert (result.size, result.truncated, result.frontier_rounds) == expected
    assert enumeration._python_closure(gens, cap)[0] == result


def test_closure_rejects_q_power_n_above_the_limit_before_building_tables(monkeypatch):
    def no_tables(g):
        raise AssertionError("a row table was built")

    monkeypatch.setattr(enumeration, "_row_table", no_tables)
    pair = generator_pair(GroupSpec(Family.GL, 21, 2))
    with pytest.raises(ValueError, match=r"q\*\*n <= 2\*\*20"):
        closure([pair.a, pair.b], cap=10)


# Closures whose keys need more than 64 bits, which closure() refuses:
# (family, degree, q, cap, key bits)
WIDE_KEYS = [
    (Family.GL, 8, 4, 10, 128),
    (Family.GL, 8, 4, 1000, 128),
    (Family.GL, 8, 4, 200_000, 128),
    (Family.GL, 20, 2, 10, 400),   # q**n = 2**20, the largest table allowed
    (Family.GL, 20, 2, 100, 400),
    (Family.GL, 20, 2, 200_000, 400),
    (Family.SU, 6, 2, 200_000, 72),  # the smallest covered group with such keys
]


@pytest.mark.parametrize("family,degree,q,cap,bits", WIDE_KEYS)
def test_closure_refuses_keys_wider_than_one_word_before_building_tables(
        monkeypatch, family, degree, q, cap, bits):
    def no_tables(g):
        raise AssertionError("a row table was built")

    monkeypatch.setattr(enumeration, "_row_table", no_tables)
    with pytest.raises(ValueError, match=rf"<= 64 \(one-word key limit\).* needs {bits} bits"):
        closure(_pair(family, degree, q), cap=cap)


# Each closure limit from both sides: (refused spec, its message, accepted spec)
LIMIT_PAIRS = [
    # 4 rows of 17 bits against 4 rows of 16 bits, the widest key allowed
    (GroupSpec(Family.GL, 4, 17), r"needs 68 bits", GroupSpec(Family.GL, 4, 16)),
    # q**n = 1 092 727 against 1 030 301, the largest covered table of degree 3
    (GroupSpec(Family.GL, 3, 103), r"q\*\*n <= 2\*\*20", GroupSpec(Family.GL, 3, 101)),
]


@pytest.mark.parametrize("refused,message,accepted", LIMIT_PAIRS, ids=["key-width", "row-codes"])
def test_certify_and_closure_refuse_at_the_same_limits(monkeypatch, refused, message, accepted):
    built = []

    def recording_pair(spec, _real=generator_pair):
        built.append(spec)
        return _real(spec)

    monkeypatch.setattr(enumeration, "generator_pair", recording_pair)
    with pytest.raises(ValueError, match=message) as from_certify:
        certify(refused, cap=10)
    assert built == []
    pair = generator_pair(refused)
    with pytest.raises(ValueError) as from_closure:
        closure([pair.a, pair.b], cap=10)
    assert str(from_closure.value) == str(from_certify.value)

    cert = certify(accepted, cap=10)
    assert cert.verdict is Verdict.INDETERMINATE
    pair = generator_pair(accepted)
    assert cert.closure == closure([pair.a, pair.b], cap=10)
    assert cert.closure.truncated


SL23_ELEMENT_BLOBS = [
    "0201000001",
    "0201010001",
    "0200010200",
    "0201020001",
    "0200010202",
    "0202010200",
    "0202000002",
    "0200010201",
    "0202000202",
    "0202020002",
    "0201010200",
    "0202000102",
    "0200020100",
    "0202020201",
    "0202010002",
    "0201020202",
    "0202020100",
    "0200020101",
    "0200020102",
    "0201020100",
    "0201000201",
    "0202010101",
    "0201000101",
    "0201010102",
]


def test_group_elements_sl23_discovery_order():
    # Each blob is the degree byte, then one byte per entry code, row by row.
    blobs = [bytes([m.n, *(e.code for row in m.rows() for e in row)]).hex()
             for m in group_elements(sl23_gens())]
    assert blobs == SL23_ELEMENT_BLOBS


# ---------------------------------------------------------------------------
# One-word keys and the sorted visited set, against a Python-set BFS
# ---------------------------------------------------------------------------

def _pair(family, degree, q):
    pair = generator_pair(GroupSpec(family, degree, q))
    return [pair.a, pair.b]


def _as_row_codes(elements):
    """Each Mat's n row codes, as _python_closure lists its elements."""
    return list(map(_row_codes, elements))


@pytest.mark.parametrize("family,degree,q", [
    (family, degree, q) for family, degree, q, order in CLOSURE_GRID if order <= 6048])
def test_closure_and_discovery_order_match_the_set_oracle(family, degree, q):
    gens = _pair(family, degree, q)
    want, elements = set_closure(gens, DEFAULT_CAP)
    got, found = _kernels_agree(gens, DEFAULT_CAP)
    assert (got.size, got.truncated, got.frontier_rounds) == want
    assert group_elements(gens) == elements
    assert found == _as_row_codes(elements)


@pytest.mark.parametrize("family,degree,q,cap", [
    (family, degree, q, cap)
    for family, degree, q in [(Family.SL, 2, 3), (Family.SU, 4, 2), (Family.GL, 3, 3)]
    for cap in (1, 10, 100, 1000)])
def test_capped_closures_match_the_set_oracle(visited_set, lookup, family, degree, q, cap):
    gens = _pair(family, degree, q)
    want, _ = set_closure(gens, cap)
    got = closure(gens, cap=cap)
    assert (got.size, got.truncated, got.frontier_rounds) == want


def _key(row_codes, bits):
    """The key of a matrix: row i in bits [i*bits, (i+1)*bits)."""
    return sum(code << (i * bits) for i, code in enumerate(row_codes))


@pytest.mark.parametrize("p,k,n,w", [
    (2, 1, 8, 2), (97, 1, 3, 1), (3, 2, 3, 1), (2, 2, 4, 2), (5, 1, 2, 2), (5, 1, 3, 2),
    (2, 1, 5, 3)])
def test_product_of_keys_matches_mat_mul(monkeypatch, lookup, p, k, n, w):
    # w rows per gather when grouped.  (2, 1, 8) fills all 64 bits; (97, 1, 3)
    # has 20-bit rows; (2, 2, 4) fills all 32 bits; (5, 1, 3) has 21-bit keys
    # and (2, 1, 5) 25-bit ones, each ending in a group of fewer rows
    ctx = field_create(p, k)
    bits = (ctx.q**n - 1).bit_length()
    dtype = np.uint32 if n * bits <= 32 else np.uint64
    rng = random.Random(41)
    mats = [Mat(ctx, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)])
            for _ in range(200)]
    mats.append(Mat(ctx, [[ctx.q - 1] * n] * n))  # the largest code in every row
    gen = Mat(ctx, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)])
    keys = np.array([_key(_row_codes(m), bits) for m in mats], dtype=dtype)
    before = keys.copy()
    table = _row_table(gen)
    assert table.dtype == np.uint32
    table = table.astype(dtype)
    want = [_key(_row_codes(m * gen), bits) for m in mats]
    got = _product(keys, table, n, bits)
    assert got.dtype == dtype
    assert got.tolist() == want
    assert (keys == before).all()
    # a prebuilt lookup table gives the same products
    lookup_table, rows = _lookup_table(table, n, bits)
    assert rows == (w if lookup == "grouped" else 1)
    assert _lookup_table(lookup_table, n, bits)[0] is lookup_table
    assert _product(keys, lookup_table, n, bits).tolist() == want
    # only the n rows of a key are read: bits above them change nothing
    spare = np.dtype(dtype).itemsize * 8 - n * bits
    junk = [rng.getrandbits(spare) << (n * bits) for _ in mats] if spare else [0] * len(mats)
    assert _product(keys | np.array(junk, dtype=dtype), table, n, bits).tolist() == want
    # in blocks of 64 keys, the last one of 9
    monkeypatch.setattr(enumeration, "_BLOCK", 64)
    assert _product(keys, table, n, bits).tolist() == want


def _chunked(values, size):
    """values as sorted uint64 chunks of size keys."""
    values = sorted(values)
    return [np.array(values[i:i + size], dtype=np.uint64) for i in range(0, len(values), size)]


def _assert_chunks(chunks, values, limit):
    """chunks hold exactly values, in increasing order, none empty or past limit."""
    assert all(0 < len(c) <= limit and c.dtype == np.uint64 for c in chunks)
    assert np.concatenate(chunks).tolist() == sorted(values)


def test_merge_routes_keys_to_chunks_and_returns_the_new_keys_in_order(monkeypatch):
    # distinct keys in random order, a third of them already visited; half
    # of them have the top bit set, so the order and the chunk bounds must be
    # unsigned; keys 0 and 1 lie below the first chunk's first key
    monkeypatch.setattr(enumeration, "_CHUNK", 1000)
    rng = np.random.default_rng(5)
    values = rng.permutation(range(2, 30000))[:20000].tolist()
    top = 1 << 63
    keys = [v + top * (v % 2) for v in values] + [0, 1]
    seen = {v + top * (v % 2) for v in range(3, 30000, 3)}
    chunks = _chunked(seen, 1000)
    new = _merge(chunks, np.array(keys, dtype=np.uint64))
    assert new.dtype == np.uint64
    assert new.tolist() == sorted(set(keys) - seen)
    _assert_chunks(chunks, seen | set(keys), 2000)


@pytest.mark.parametrize("visited", [[10, 20], [10, 20, 30, 2**63]],
                         ids=["one-chunk", "two-chunks"])
def test_merge_inserts_keys_sharing_a_position(monkeypatch, visited):
    monkeypatch.setattr(enumeration, "_CHUNK", 2)
    batch = [15, 25, 20, 5, 11, 3, 2**64 - 1, 19, 10]
    chunks = _chunked(visited, 2)
    new = _merge(chunks, np.array(batch, dtype=np.uint64))
    assert new.tolist() == sorted(set(batch) - set(visited))
    _assert_chunks(chunks, set(visited) | set(batch), 4)


def test_merge_splits_an_overflowing_chunk_into_copies(monkeypatch):
    monkeypatch.setattr(enumeration, "_CHUNK", 4)
    chunks = [np.array([100], dtype=np.uint64), np.array([200, 300], dtype=np.uint64)]
    batch = np.array(range(120, 140), dtype=np.uint64)
    assert _merge(chunks, batch).tolist() == list(range(120, 140))
    assert [len(c) for c in chunks] == [4, 4, 4, 4, 4, 1, 2]
    assert all(c.base is None for c in chunks)  # a view would keep its parent alive
    _assert_chunks(chunks, {100, 200, 300, *range(120, 140)}, 8)
    # a batch that meets no new key leaves every chunk as it was
    before = list(chunks)
    assert _merge(chunks, np.array([300, 100, 125], dtype=np.uint64)).tolist() == []
    assert all(c is b for c, b in zip(chunks, before)) and len(chunks) == len(before)


@pytest.mark.parametrize("family,degree,q,size", [
    *CLOSURE_GRID,
    (Family.SP, 8, 2, 204440),    # 64-bit keys
    (Family.SP, 6, 2, 203922),
])
def test_merge_only_meets_batches_of_distinct_keys(monkeypatch, family, degree, q, size):
    # _merge relies on it: one generator's products of a distinct frontier
    monkeypatch.setattr(enumeration, "_DIRECT_KEY_BITS", 0)
    batches = []

    def spy(chunks, keys, _real=_merge):
        batches.append(len(keys))
        assert len(np.unique(keys)) == len(keys)
        return _real(chunks, keys)

    monkeypatch.setattr(enumeration, "_merge", spy)
    assert closure(_pair(family, degree, q), cap=200_000).size == size
    assert batches


def test_mark_returns_the_unseen_keys_in_their_order_and_sets_them():
    seen = np.zeros(64, dtype=bool)
    seen[[3, 10, 40]] = True
    keys = np.array([40, 7, 3, 63, 0, 10, 12], dtype=np.uint32)
    assert _mark(seen, keys).tolist() == [7, 63, 0, 12]
    assert np.flatnonzero(seen).tolist() == [0, 3, 7, 10, 12, 40, 63]
    assert _mark(seen, keys).tolist() == []


@pytest.mark.parametrize("family,degree,q,bits,direct", [
    (Family.SL, 2, 3, 8, True),
    (Family.GL, 3, 5, 21, True),
    (Family.GL, 2, 37, 22, True),    # the widest direct key
    (Family.GL, 2, 47, 24, False),   # the narrowest sorted one: no covered key has 23 bits
    (Family.SP, 6, 2, 36, False),
])
def test_the_key_width_alone_picks_the_visited_set(monkeypatch, family, degree, q, bits, direct):
    visited = {"_mark": [], "_merge": []}
    for name in visited:
        def spy(store, keys, _name=name, _real=getattr(enumeration, name)):
            visited[_name].append(store)
            assert len(np.unique(keys)) == len(keys)  # _mark relies on it too
            return _real(store, keys)
        monkeypatch.setattr(enumeration, name, spy)
    gens = _pair(family, degree, q)
    assert closure(gens, 1000) == enumeration._python_closure(gens, 1000)[0]
    assert (bool(visited["_mark"]), bool(visited["_merge"])) == (direct, not direct)
    for seen in visited["_mark"]:
        assert seen.dtype == bool and seen.size == 2**bits


def _generator_lists(family, degree, q):
    # [b, b**-1] and [a, a] hold a generator that undoes another, or itself
    a, b = _pair(family, degree, q)
    return [[a, b], [b, a], [a], [a, b, a * b], [b, b.inverse()], [a, a]]


# (family, degree, q, caps, the type of _python_closure's elements)
GENERATOR_LIST_CASES = [
    (Family.GL, 2, 3, (1, 10, 1000, DEFAULT_CAP), bytes),
    (Family.SU, 3, 2, (1, 10, 1000, DEFAULT_CAP), bytes),
    (Family.SP, 4, 2, (1, 10, 1000, DEFAULT_CAP), bytes),
    # Q**n = 256 and 729 either side of the bytes bound; the set-oracle test
    # runs SU(3,3) to the end
    (Family.GL, 4, 4, (1, 10, 1000), bytes),
    (Family.SU, 3, 3, (1, 10, 1000), tuple),
]


@pytest.mark.parametrize("family,degree,q,caps,element", GENERATOR_LIST_CASES,
                         ids=[f"{f}-{n}-{q}" for f, n, q, *_ in GENERATOR_LIST_CASES])
def test_each_generator_list_matches_both_oracles(visited_set, lookup, family, degree, q, caps,
                                                  element):
    for gens in _generator_lists(family, degree, q):
        for cap in caps:
            got, found = enumeration._python_closure(gens, cap)
            assert {type(m) for m in found} == {element}
            assert closure(gens, cap) == got
            assert tuple(got) == set_closure(gens, cap)[0]


def test_a_generator_skips_the_keys_its_inverse_found(monkeypatch):
    # Sp(6,2)'s a is an involution and b is not: from round 1 on, a
    # multiplies only the keys b found the round before, b all of them
    a, b = _pair(Family.SP, 6, 2)
    one = Mat.identity(a.ctx, 6)
    assert a * a == one and b * b != one and a * b != one
    calls = []  # [keys multiplied, keys found], a's and b's in turn

    def product(keys, table, n, bits, _real=_product):
        calls.append([keys.copy()])
        return _real(keys, table, n, bits)

    def merge(chunks, keys, _real=_merge):
        calls[-1].append(_real(chunks, keys))
        return calls[-1][-1]

    monkeypatch.setattr(enumeration, "_product", product)
    monkeypatch.setattr(enumeration, "_merge", merge)
    assert closure([a, b], 100_000) == (120_711, True, 25)
    by_a, by_b = calls[0::2], calls[1::2]
    assert len(by_a) == len(by_b) == 25
    identity = _key([1, 2, 4, 8, 16, 32], 6)
    assert by_a[0][0].tolist() == by_b[0][0].tolist() == [identity]
    for r in range(1, 25):
        assert by_a[r][0].tolist() == by_b[r - 1][1].tolist()
        assert by_b[r][0].tolist() == by_a[r - 1][1].tolist() + by_b[r - 1][1].tolist()


@pytest.mark.parametrize("chunk,family,degree,q", [
    (chunk, *spec) for chunk in (1, 2, 64)
    for spec in [(Family.GL, 2, 3), (Family.SU, 3, 2), (Family.SP, 4, 2), (Family.SP, 6, 2)]])
def test_closure_in_small_chunks_matches_the_python_bfs(monkeypatch, chunk, family, degree, q):
    # Sp(6,2) has 36-bit keys; at the default cap it is only run past cap 1000
    monkeypatch.setattr(enumeration, "_CHUNK", chunk)
    monkeypatch.setattr(enumeration, "_DIRECT_KEY_BITS", 0)
    caps = (1, 10, 1000) if family is Family.SP and degree == 6 else (1, 10, 1000, DEFAULT_CAP)
    for gens in _generator_lists(family, degree, q):
        for cap in caps:
            assert closure(gens, cap) == enumeration._python_closure(gens, cap)[0]


def test_closure_in_small_chunks_keeps_64_bit_bounds_unsigned(monkeypatch):
    # Sp(8,2)'s keys have row 7 in the top byte, so chunk bounds reach 2**63
    monkeypatch.setattr(enumeration, "_CHUNK", 1024)
    bounds = []

    def spy(chunks, keys, _real=_merge):
        bounds.extend(int(c[0]) for c in chunks)
        return _real(chunks, keys)

    monkeypatch.setattr(enumeration, "_merge", spy)
    result = closure(_pair(Family.SP, 8, 2), cap=200_000)
    assert (result.size, result.truncated, result.frontier_rounds) == (204_440, True, 25)
    assert max(bounds) >= 2**63


def _key_dtypes(monkeypatch, gens, cap):
    """closure(gens, cap) and the dtypes of the keys it merged."""
    dtypes = set()

    def spy(chunks, keys, _real=_merge):
        dtypes.add(keys.dtype)
        dtypes.update(c.dtype for c in chunks)
        return _real(chunks, keys)

    monkeypatch.setattr(enumeration, "_merge", spy)
    return closure(gens, cap), dtypes


def test_keys_of_32_bits_are_uint32(monkeypatch):
    # SU(4,2): four 8-bit rows over GF(4)
    gens = _pair(Family.SU, 4, 2)
    assert {_row_table(g).dtype for g in gens} == {np.dtype(np.uint32)}
    result, dtypes = _key_dtypes(monkeypatch, gens, DEFAULT_CAP)
    assert result == enumeration._python_closure(gens, DEFAULT_CAP)[0]
    assert (result.size, result.truncated) == (25920, False)
    assert dtypes == {np.dtype(np.uint32)}


@pytest.mark.parametrize("cap", [1000, 50_000])
def test_keys_of_33_bits_are_uint64(monkeypatch, cap):
    # GL(3,11): three 11-bit rows
    gens = _pair(Family.GL, 3, 11)
    assert {_row_table(g).dtype for g in gens} == {np.dtype(np.uint32)}
    result, dtypes = _key_dtypes(monkeypatch, gens, cap)
    assert result == enumeration._python_closure(gens, cap)[0]
    assert dtypes == {np.dtype(np.uint64)}


@pytest.mark.parametrize("family,degree,q,visited,limit", [
    (Family.SP, 6, 2, "sorted", 13),  # 36-bit keys, 8 bytes each: at most 18 MiB
    (Family.GL, 3, 5, "sorted", 12),  # 21-bit keys: 4 bytes each
    (Family.GL, 3, 5, "direct", 5),   # a 2 MiB bool array; _product in blocks
])
def test_closure_working_set_per_element(monkeypatch, family, degree, q, visited, limit):
    # merging into one array of the whole visited set held two copies of it
    # while inserting: 20.4 and 23.9 bytes per element at the peak
    monkeypatch.setattr(enumeration, "_DIRECT_KEY_BITS", VISITED_SETS[visited])
    gens = _pair(family, degree, q)
    tracemalloc.start()
    try:
        size = closure(gens).size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == theoretical_order(GroupSpec(family, degree, q))
    assert peak <= limit * size


# ---------------------------------------------------------------------------
# The pure-Python BFS that certify() runs on small groups, against closure()
# and the set oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,degree,q,element,limit", [
    # measured: 73 bytes per element (a 40-byte bytes, its set slot and list
    # entries), against 120 when GU(4,2)'s elements were 4-tuples
    (Family.GU, 4, 2, bytes, 90),
    (Family.GU, 3, 3, tuple, 200),  # 172-178 measured
])
def test_python_closure_working_set_per_element(family, degree, q, element, limit):
    gens = _pair(family, degree, q)
    tracemalloc.start()
    try:
        result, found = enumeration._python_closure(gens, DEFAULT_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.size == theoretical_order(GroupSpec(family, degree, q))
    assert peak <= limit * result.size
    assert type(found[-1]) is element


def _kernels_agree(gens, cap):
    """Run both kernels, assert equal results, and return _python_closure's
    result and discovery order as row-code tuples."""
    got, found = enumeration._python_closure(gens, cap)
    assert closure(gens, cap) == got
    return got, [tuple(m) for m in found]


@pytest.mark.parametrize("family,degree,q,order,cap", [
    (*case, cap) for case in CLOSURE_GRID for cap in (1, 10, 100, 1000, DEFAULT_CAP)])
def test_python_bfs_matches_closure_and_the_set_oracle_on_the_grid(family, degree, q, order, cap):
    gens = _pair(family, degree, q)
    got, found = _kernels_agree(gens, cap)
    if cap == DEFAULT_CAP:
        # test_closure_and_discovery_order_match_the_set_oracle runs the set
        # oracle at the default cap on the groups it finishes quickly
        assert (got.size, got.truncated) == (order, False)
    else:
        want, elements = set_closure(gens, cap)
        assert (got.size, got.truncated, got.frontier_rounds) == want
        assert found == _as_row_codes(elements)


# (the spec whose paper pair is used, whether the pair is (a, a), the closure size)
NEGATIVE_PAIRS = [(other, False, size) for _, other, size in PROPER_SUBGROUPS] + [
    (spec, True, size) for spec, size in CYCLIC]


@pytest.mark.parametrize("spec,a_a,size", NEGATIVE_PAIRS, ids=[
    name + "-a-a" * a_a for name, (_, a_a, _) in zip(_spec_ids(NEGATIVE_PAIRS), NEGATIVE_PAIRS)])
def test_python_bfs_matches_closure_and_the_set_oracle_on_negative_pairs(spec, a_a, size):
    pair = generator_pair(spec)
    gens = [pair.a, pair.a if a_a else pair.b]
    got, found = _kernels_agree(gens, DEFAULT_CAP)
    want, elements = set_closure(gens, DEFAULT_CAP)
    assert (got.size, got.truncated, got.frontier_rounds) == want
    assert got.size == size
    assert found == _as_row_codes(elements)


# Either side of PYTHON_BFS_MAX_ORDER: (spec, the kernel certify() runs)
KERNEL_CHOICE = [
    (GroupSpec(Family.SL, 2, 49), "_python_closure"),  # 117 600 elements
    (GroupSpec(Family.GL, 2, 19), "closure"),          # 123 120 elements
]


@pytest.mark.parametrize("spec,kernel", KERNEL_CHOICE, ids=_spec_ids(KERNEL_CHOICE))
def test_certify_picks_the_kernel_by_the_group_order(monkeypatch, spec, kernel):
    pair = generator_pair(spec)
    want, _ = _kernels_agree([pair.a, pair.b], DEFAULT_CAP)
    calls = []
    for name in ("closure", "_python_closure"):
        def spy(*args, _name=name, _real=getattr(enumeration, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(enumeration, name, spy)
    cert = certify(spec)
    assert calls == [kernel]
    assert cert.closure == want
    assert cert.verdict is Verdict.PASS


def _closure_specs():
    """The covered specs certify() sends to closure(), as two dicts, those
    it finishes under the default cap and the capped ones, of spec -> (key
    bits, |G|): |G| above the Python BFS bound, Q**n <= 2**20 and keys of
    at most 64 bits.  Every covered degree has n >= 2."""
    finished, capped = {}, {}
    n = 2
    while 2**n <= 2**20:
        q = 2
        while q**n <= 2**20:
            for family in Family:
                spec = GroupSpec(family, n, q)
                try:
                    order = theoretical_order(spec)
                except UnsupportedParametersError:
                    continue
                rows = field_order(spec) ** n
                bits = n * (rows - 1).bit_length()
                if rows <= 2**20 and bits <= 64 and order > enumeration.PYTHON_BFS_MAX_ORDER:
                    (finished if order <= DEFAULT_CAP else capped)[spec] = bits, order
            q += 1
        n += 1
    return finished, capped


def test_the_direct_set_serves_the_densest_closures_certify_runs():
    finished, capped = _closure_specs()  # pure arithmetic
    direct = [s for s, (bits, _) in finished.items() if bits <= enumeration._DIRECT_KEY_BITS]
    assert (len(finished), len(direct)) == (53, 11)
    # they are exactly the finished closures that fill more than 1/64 of their key space
    assert direct == [s for s, (bits, order) in finished.items() if 64 * order > 2**bits]
    assert [s for s, (bits, _) in capped.items() if bits <= enumeration._DIRECT_KEY_BITS] == [
        GroupSpec(Family.GL, 2, 41), GroupSpec(Family.GL, 2, 43)]


def test_the_inverse_skip_and_the_grouped_lookup_apply_where_the_readme_says():
    finished, capped = _closure_specs()

    def undone(spec):
        """Whether a * a, b * b and a * b are 1."""
        a, b = _pair(spec.family, spec.degree, spec.q)
        one = Mat.identity(a.ctx, spec.degree)
        return a * a == one, b * b == one, a * b == one

    def undoes(spec):
        return any(undone(spec))

    def labels(specs):
        return [f"{s.family.value}-{s.degree}-{s.q}" for s in specs]

    assert labels(filter(undoes, finished)) == ["sp-6-2"]
    assert labels(filter(undoes, capped)) == [
        "gl-4-3", "gl-5-2", "sl-5-2", "gl-5-3", "gl-6-2", "sl-6-2", "gl-6-3", "sp-6-3",
        "gl-7-2", "sl-7-2", "gl-8-2", "sl-8-2", "sp-8-2"]
    # in each of them a is an involution, and only a
    assert {undone(s) for specs in (finished, capped) for s in filter(undoes, specs)} == {
        (True, False, False)}
    # rows of at most 8 bits: w >= 2 rows per gather
    grouped = [s for specs in (finished, capped) for s, (bits, _) in specs.items()
               if enumeration._LOOKUP_BITS // (bits // s.degree) >= 2]
    assert (len(finished), len(capped), len(grouped)) == (53, 611, 20)
    assert labels(s for s in grouped if s in finished) == [
        "gl-3-4", "gl-3-5", "sl-3-5", "sp-4-4", "sp-6-2"]


def test_every_group_the_python_search_takes_has_at_most_4096_row_codes():
    # The README's claim on the Python tables.  Covered degrees start at 2,
    # and every covered |G| >= q**(n*n // 2): each factor q**i -/+ 1 is at
    # least q**(i - 1), so |SL(n,q)|, |SU(n,q)| >= q**(n(n-1)) and
    # |Sp(2m,q)| >= q**(2m*m), and GL, GU contain SL, SU.  So the scan over
    # q**(n*n // 2) <= PYTHON_BFS_MAX_ORDER reaches every group at or below it.
    bound = enumeration.PYTHON_BFS_MAX_ORDER
    row_codes = {}
    n = 2
    while 2 ** (n * n // 2) <= bound:
        q = 2
        while q ** (n * n // 2) <= bound:
            for family in Family:
                spec = GroupSpec(family, n, q)
                try:
                    order = theoretical_order(spec)
                except UnsupportedParametersError:
                    continue
                assert order >= q ** (n * n // 2), spec
                if order <= bound:
                    row_codes[spec] = field_order(spec) ** n
            q += 1
        n += 1
    assert max(row_codes.values()) == 4096
    assert [s for s, r in row_codes.items() if r == 4096] == [GroupSpec(Family.SU, 3, 4)]


BAD_CAPS = [0, -1, float("inf"), float("nan"), 2.0]


@pytest.mark.parametrize("cap", BAD_CAPS, ids=repr)
def test_both_kernels_refuse_a_cap_that_is_not_a_positive_integer(cap):
    for kernel in (closure, enumeration._python_closure):
        with pytest.raises(ValueError, match="positive integer"):
            kernel(sl23_gens(), cap)


@pytest.mark.parametrize("cap", BAD_CAPS, ids=repr)
def test_certify_refuses_a_bad_cap_before_building_the_pair(monkeypatch, cap):
    def no_pair(spec):
        raise AssertionError("generator_pair was called")

    monkeypatch.setattr(enumeration, "generator_pair", no_pair)
    with pytest.raises(ValueError, match="positive integer"):
        certify(SL23, cap=cap)


def test_a_numpy_integer_cap_is_an_integer():
    assert certify(SL23, cap=np.int64(10)) == certify(SL23, cap=10)
    assert closure(sl23_gens(), cap=np.uint8(10)) == closure(sl23_gens(), cap=10)


def test_no_package_attribute_shadows_a_submodule():
    for info in pkgutil.iter_modules(classgen.__path__):
        if not info.name.startswith("_"):
            module = importlib.import_module(f"classgen.{info.name}")
            assert getattr(classgen, info.name) is module
