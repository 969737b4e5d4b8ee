import importlib
import itertools
import random

import numpy as np
import pytest

from classgen import (
    Family,
    GroupSpec,
    Mat,
    UnsupportedParametersError,
    Verdict,
    certify,
    closure,
    field_create,
    field_for,
    generator_pair,
    group_elements,
    is_member,
    theoretical_order,
)
from classgen.closure import _decode, _row_codes, _row_table

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
    assert len({m.encode_canonical() for m in elems}) == 24
    for m in elems:
        assert is_member(SL23, m)


def test_group_elements_set_is_closed():
    """The returned set is closed under product and inverse."""
    elems = group_elements(sl23_gens())
    keys = {m.encode_canonical() for m in elems}
    for m in elems:
        assert m.inverse().encode_canonical() in keys
    rng = random.Random(31)
    for _ in range(200):
        x, y = rng.choice(elems), rng.choice(elems)
        assert (x * y).encode_canonical() in keys


def test_group_elements_exhaustive_match():
    """Discovery agrees with an exhaustive determinant filter of GF(3)^(2x2)."""
    expected = set()
    for entries in itertools.product(range(3), repeat=4):
        m = Mat.from_rows(GF3, [list(entries[:2]), list(entries[2:])])
        if m.det() == GF3.one:
            expected.add(m.encode_canonical())
    got = {m.encode_canonical() for m in group_elements(sl23_gens())}
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


@pytest.mark.parametrize("family,degree,q,expected", [
    (Family.GL, 8, 4, (14, True, 3)),    # an 8 x 16-bit key, wider than 64 bits
    (Family.GL, 20, 2, (11, True, 3)),   # q**n = 2**20, the largest allowed
])
def test_truncated_closures_are_pinned(family, degree, q, expected):
    pair = generator_pair(GroupSpec(family, degree, q))
    result = closure([pair.a, pair.b], cap=10)
    assert (result.size, result.truncated, result.frontier_rounds) == expected


def test_closure_rejects_q_power_n_above_the_limit_before_building_tables(monkeypatch):
    def no_tables(g):
        raise AssertionError("a row table was built")

    monkeypatch.setattr(importlib.import_module("classgen.closure"), "_row_table", no_tables)
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
    blobs = [m.encode_canonical().hex() for m in group_elements(sl23_gens())]
    assert blobs == SL23_ELEMENT_BLOBS
