import dataclasses
import importlib
import itertools
import pkgutil
import random

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
from classgen.enumeration import _decode, _dedup, _pack, _row_codes, _row_table
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


def test_closure_is_independent_of_generator_presentation():
    a, b = sl23_gens()
    baseline = closure([a, b])
    assert closure([b, a]) == baseline
    assert closure([a, b, a, b * b]) == baseline
    assert closure([a, b] * 3) == baseline


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
                        lambda spec: dataclasses.replace(real(spec), a=a, b=b))


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


def test_certify_fails_on_a_non_member_even_when_truncated(monkeypatch):
    hand_pair_of(monkeypatch, GroupSpec(Family.GL, 4, 3))
    cert = certify(GroupSpec(Family.SP, 4, 3), cap=1000)
    assert cert.membership_ok is False
    assert cert.closure.truncated is True
    assert cert.verdict is Verdict.FAIL


def test_certify_fails_on_a_non_member_when_the_closure_finishes(monkeypatch):
    b = generator_pair(GroupSpec(Family.GL, 4, 3)).b
    hand_pair(monkeypatch, b, b)
    cert = certify(GroupSpec(Family.SP, 4, 3))
    assert cert.membership_ok is False
    assert cert.closure.truncated is False
    assert cert.verdict is Verdict.FAIL


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

def test_row_table_products_match_mat_mul():
    for p, k, n in [(3, 2, 3), (2, 4, 2), (5, 2, 3), (5, 8, 1), (1021, 2, 1)]:
        ctx = field_create(p, k)
        rng = random.Random(37)
        mats = [Mat(ctx, np.array([[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)]))
                for _ in range(20)]
        gen = Mat(ctx, np.array([[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)]))
        rows = _row_codes(np.stack([m.codes for m in mats]), ctx.q)
        products = _decode(_row_table(gen)[rows], ctx.q)
        for prod, m in zip(products, mats):
            assert Mat(ctx, prod) == m * gen


@pytest.mark.parametrize("family,degree,q,cap,expected", [
    (Family.GL, 8, 4, 10, (14, True, 3)),    # an 8 x 16-bit key, wider than 64 bits
    (Family.GL, 20, 2, 10, (11, True, 3)),   # q**n = 2**20, the largest allowed
    # many wide keys sharing their leading bytes
    (Family.GL, 8, 4, 200_000, (200066, True, 19)),
    (Family.GL, 20, 2, 200_000, (242380, True, 24)),
    (Family.SU, 6, 2, 200_000, (261043, True, 19)),
])
def test_truncated_closures_are_pinned(family, degree, q, cap, expected):
    pair = generator_pair(GroupSpec(family, degree, q))
    result = closure([pair.a, pair.b], cap=cap)
    assert (result.size, result.truncated, result.frontier_rounds) == expected


def test_closure_rejects_q_power_n_above_the_limit_before_building_tables(monkeypatch):
    def no_tables(g):
        raise AssertionError("a row table was built")

    monkeypatch.setattr(enumeration, "_row_table", no_tables)
    pair = generator_pair(GroupSpec(Family.GL, 21, 2))
    with pytest.raises(ValueError, match=r"q\*\*n <= 2\*\*20"):
        closure([pair.a, pair.b], cap=10)


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
# Packed keys and the sorted visited set, against a Python-set BFS
# ---------------------------------------------------------------------------

def _pair(family, degree, q):
    pair = generator_pair(GroupSpec(family, degree, q))
    return [pair.a, pair.b]


@pytest.mark.parametrize("family,degree,q", [
    (family, degree, q) for family, degree, q, order in CLOSURE_GRID if order <= 6048])
def test_closure_and_discovery_order_match_the_set_oracle(family, degree, q):
    gens = _pair(family, degree, q)
    want, elements = set_closure(gens, DEFAULT_CAP)
    got = closure(gens)
    assert (got.size, got.truncated, got.frontier_rounds) == want
    assert group_elements(gens) == elements


@pytest.mark.parametrize("family,degree,q,cap", [
    *[(family, degree, q, cap)
      for family, degree, q in [(Family.SL, 2, 3), (Family.SU, 4, 2), (Family.GL, 3, 3)]
      for cap in (1, 10, 100, 1000)],
    (Family.GL, 8, 4, 10),      # two-word keys
    (Family.GL, 8, 4, 1000),
    (Family.GL, 20, 2, 100),    # seven-word keys
])
def test_capped_closures_match_the_set_oracle(family, degree, q, cap):
    gens = _pair(family, degree, q)
    want, _ = set_closure(gens, cap)
    got = closure(gens, cap=cap)
    assert (got.size, got.truncated, got.frontier_rounds) == want


@pytest.mark.parametrize("n,bits,words", [(3, 20, 1), (8, 16, 2), (13, 13, 3), (20, 20, 7)])
def test_pack_keeps_matrices_differing_in_one_bit_apart(n, bits, words):
    rng = np.random.default_rng(7)
    base = rng.integers(0, 2**bits, size=(50, n))
    rows = [base]
    for i in range(n):
        flipped = base.copy()
        flipped[:, i] ^= 1 << rng.integers(0, bits, size=50)
        rows.append(flipped)
    rows = np.concatenate(rows)
    keys = _pack(rows, bits)
    assert keys.shape == (len(rows),)
    assert keys.dtype == (np.uint64 if words == 1 else np.dtype((np.void, 8 * words)))
    assert len(set(keys.tolist())) == len(set(map(tuple, rows.tolist())))
    # row i fills bits [i*bits, (i+1)*bits) of w little-endian 64-bit words
    packed = [sum(code << (i * bits) for i, code in enumerate(row)) for row in rows.tolist()]
    want = [[value >> (64 * word) & (2**64 - 1) for word in range(words)] for value in packed]
    assert np.frombuffer(keys.tobytes(), dtype=np.uint64).reshape(-1, words).tolist() == want


def test_dedup_returns_first_occurrences_of_one_word_keys():
    # enough repeats that an unstable argsort reorders equal keys
    keys = np.random.default_rng(5).integers(0, 3000, size=20000, dtype=np.uint64)
    seen = set(range(0, 3000, 3))
    merged, first = _dedup(np.array(sorted(seen), dtype=np.uint64), keys)
    want = []
    for index, key in enumerate(keys.tolist()):
        if key not in seen:
            seen.add(key)
            want.append(index)
    assert first.tolist() == want
    assert merged.tolist() == sorted(seen)


def _wide(words: list[tuple]) -> np.ndarray:
    """Three-word keys as _pack makes them: one raw-bytes value per key."""
    return np.array(words, dtype=np.uint64).view(np.dtype((np.void, 24)))[:, 0]


def _visited(words: list[tuple]) -> np.ndarray:
    """The sorted visited array of three-word keys; raw bytes sort bytewise."""
    return np.array(sorted(_wide(words).tolist()), dtype=np.dtype((np.void, 24)))


def test_dedup_compares_every_word_of_wide_keys():
    old = [(3, 9, 9), *[(5, j, 0) for j in range(0, 100, 2)], (5, 4, 1), (8, 0, 0)]
    batch = [
        (5, 3, 0),    # new: word 0 ties with 51 visited keys
        (5, 4, 0),    # visited
        (5, 3, 0),    # repeat of index 0
        (5, 4, 2),    # new: differs from two visited keys only in word 2
        (3, 9, 9),    # visited
        (5, 99, 0),   # new: after every tie on word 0
        (4, 3, 0),    # new: differs from index 0 only in word 0
        (5, 4, 2),    # repeat of index 3
        (5, 0, 0),    # visited, first of its tie
        (9, 0, 0),    # new: after every visited key
    ]
    merged, first = _dedup(_visited(old), _wide(batch))
    assert first.tolist() == [0, 3, 5, 6, 9]
    assert merged.tolist() == sorted(set(_wide(old + batch).tolist()))


def test_dedup_merges_wide_keys_sharing_an_insertion_position():
    old = [(1, 0, 0), (9, 0, 0)]
    batch = [(5, 2, 7), (5, 0, 0), (3, 0, 0), (5, 0, 0), (5, 1, 0), (5, 0, 1)]
    merged, first = _dedup(_visited(old), _wide(batch))
    assert first.tolist() == [0, 1, 2, 4, 5]
    got = merged.tolist()
    assert all(a < b for a, b in zip(got, got[1:]))
    assert set(got) == set(_wide(old + batch).tolist())


def test_no_package_attribute_shadows_a_submodule():
    for info in pkgutil.iter_modules(classgen.__path__):
        if not info.name.startswith("_"):
            module = importlib.import_module(f"classgen.{info.name}")
            assert getattr(classgen, info.name) is module
