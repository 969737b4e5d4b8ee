import random

import numpy as np
import pytest

from classgen import FieldCtx, Mat, cycle_w, elem_h, elem_x, field_create
from oracles import all_matrices, cofactor_det, slow_mat_mul

GF2 = field_create(2, 1)
GF3 = field_create(3, 1)
GF4 = field_create(2, 2)
GF5 = field_create(5, 1)
GF8 = field_create(2, 3)
GF9 = field_create(3, 2)


def random_mat(ctx, n, rng):
    return Mat.from_rows(ctx, [[ctx.from_code(rng.randrange(ctx.q)) for _ in range(n)]
                               for _ in range(n)])


def random_invertible(ctx, n, rng):
    while True:
        m = random_mat(ctx, n, rng)
        if m.det():
            return m


# ---------------------------------------------------------------------------
# Construction and access
# ---------------------------------------------------------------------------

def test_from_rows_and_entry():
    m = Mat.from_rows(GF3, [[1, 2], [0, 1]])
    assert m.n == 2
    assert m.entry(0, 1).code == 2
    assert [[e.code for e in row] for row in m.rows()] == [[1, 2], [0, 1]]


def test_from_rows_rejects_ragged_input():
    with pytest.raises(ValueError, match="same length"):
        Mat.from_rows(GF3, [[1, 2], [0]])


def test_degree_zero_rejected():
    with pytest.raises(ValueError, match="at least 1"):
        Mat.from_rows(GF3, [])


def test_raw_codes_validated():
    with pytest.raises(ValueError, match="out of range"):
        Mat(GF4, np.array([[5]], dtype=np.int64))
    with pytest.raises(ValueError, match="out of range"):
        Mat(GF4, [[0, -1], [1, 0]])
    with pytest.raises(ValueError, match="square"):
        Mat(GF4, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="square"):
        Mat(GF4, [[1, 0], [0]])
    with pytest.raises(ValueError, match="rows of integer codes"):
        Mat(GF4, np.array([1, 0]))


@pytest.mark.parametrize("codes", [
    np.array([[1.7, 0.2], [0, 2.9]]),
    np.array([[1.0, 0.0], [0.0, 1.0]]),
    [[1, 0], [0, 1.0]],
    [[1, 0], [0, np.float64(2)]],
    [[1, 0], [0, "2"]],
], ids=["float-array", "integral-float-array", "float", "numpy-float", "str"])
def test_non_integer_codes_are_refused(codes):
    with pytest.raises(ValueError, match="rows of integer codes"):
        Mat(GF3, codes)


def test_array_lists_and_tuples_give_one_matrix():
    arr = np.array([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
    lists = [[1, 2, 0], [0, 1, 2], [2, 0, 1]]
    mats = [Mat(GF3, arr), Mat(GF3, arr.astype(np.int8)), Mat(GF3, lists),
            Mat(GF3, tuple(map(tuple, lists))), Mat(GF3, [list(row) for row in arr]),
            Mat.from_rows(GF3, lists)]
    for m in mats:
        assert m == mats[0]
        assert hash(m) == hash(mats[0])
        assert all(type(e.code) is int for row in m.rows() for e in row)
    assert len(set(mats)) == 1


def test_identity():
    m = Mat.identity(GF9, 3)
    assert m.entry(0, 0) == GF9.one
    assert m.entry(0, 1) == GF9.zero
    assert m * m == m


def test_codes_are_read_only():
    """codes is a read-only int64 (n, n) array of the entry codes, built once."""
    m = Mat.from_rows(GF9, [[GF9.xi, 0, 1], [2, 1, 0], [0, 0, GF9.xi ** 2]])
    codes = m.codes
    assert codes.dtype == np.int64
    assert codes.shape == (3, 3)
    assert codes.tolist() == [[e.code for e in row] for row in m.rows()]
    assert m.codes is codes
    with pytest.raises(ValueError):
        codes[0, 0] = 2


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------

def test_mul_golden_gf2():
    a = Mat.from_rows(GF2, [[1, 1], [0, 1]])
    b = Mat.from_rows(GF2, [[0, 1], [1, 0]])
    assert (a * b).rows() == Mat.from_rows(GF2, [[1, 1], [1, 0]]).rows()


@pytest.mark.parametrize("ctx", [GF2, GF4, GF8, GF9, field_create(5, 5), field_create(2, 20),
                                 field_create(1021, 2), field_create(1048573, 1)],
                         ids=lambda c: f"GF{c.q}")
def test_mul_matches_scalar_oracle(ctx):
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            a = random_mat(ctx, n, rng)
            b = random_mat(ctx, n, rng)
            assert a * b == slow_mat_mul(a, b)


def test_mul_without_lookup_tables():
    """A field with more than 2048 elements multiplies by the same scalar arithmetic."""
    big = field_create(5, 5)  # q = 3125
    rng = random.Random(3)
    a = random_mat(big, 3, rng)
    b = random_mat(big, 3, rng)
    assert a * b == slow_mat_mul(a, b)
    assert (a * Mat.identity(big, 3)) == a


def test_mul_sums_stay_exact_at_the_largest_prime():
    """Every entry product is (p-1)**2 ~ 2**40; sixteen of them sum to 16 mod p."""
    ctx = field_create(1048573, 1)
    a = Mat(ctx, np.full((16, 16), ctx.p - 1, dtype=np.int64))
    assert a * a == slow_mat_mul(a, a)
    assert (a * a).codes.tolist() == [[16] * 16] * 16


def test_mul_costs_one_scalar_product_per_meeting_pair_of_nonzeros(monkeypatch):
    """A product multiplies only nonzero entries of both factors: x_12(1) w of
    degree 300 has 301 nonzero pairs, not 300**3 entry products."""
    ctx, n = GF5, 300
    calls = 0
    mul_code = FieldCtx.mul_code

    def counting(self, a, b):
        nonlocal calls
        calls += 1
        return mul_code(self, a, b)

    a, b = elem_x(ctx, 1, 2, 1, n), cycle_w(ctx, n)
    monkeypatch.setattr(FieldCtx, "mul_code", counting)
    product = a * b
    assert calls <= 2 * n
    # Row 1 of the product is row 1 of w plus row 2 of w; the rest is w.
    want = [[e.code for e in row] for row in b.rows()]
    want[0][0] = ctx.neg_code(1)
    assert product == Mat(ctx, want)


def test_mul_shape_and_field_mismatch():
    a = Mat.identity(GF3, 2)
    with pytest.raises(ValueError, match="degree mismatch"):
        a * Mat.identity(GF3, 3)
    with pytest.raises(ValueError, match="mixed fields"):
        a * Mat.identity(GF9, 2)


def test_mul_associative_random():
    rng = random.Random(11)
    for _ in range(10):
        a, b, c = (random_mat(GF9, 3, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_pow():
    w = cycle_w(GF5, 3)
    assert w ** 0 == Mat.identity(GF5, 3)
    assert w ** 3 == w * w * w
    assert w ** -1 == w.inverse()
    assert w ** -2 == w.inverse() * w.inverse()
    # cycle of length 3 with two -1 entries has order 3 or 6; pin it by product
    assert (w ** 6) == Mat.identity(GF5, 3)


# ---------------------------------------------------------------------------
# Transpose and conjugate transpose
# ---------------------------------------------------------------------------

def test_transpose():
    m = Mat.from_rows(GF3, [[1, 2], [0, 1]])
    assert m.transpose().rows() == Mat.from_rows(GF3, [[1, 0], [2, 1]]).rows()
    assert m.transpose().transpose() == m


def test_transpose_antihomomorphism():
    rng = random.Random(5)
    for _ in range(10):
        a = random_mat(GF9, 3, rng)
        b = random_mat(GF9, 3, rng)
        assert (a * b).transpose() == b.transpose() * a.transpose()


def test_conj_transpose_golden_gf4():
    t = GF4.xi
    m = Mat.from_rows(GF4, [[t, 0], [0, 1]])
    star = m.conj_transpose()
    assert star.entry(0, 0) == t * t
    assert star.entry(1, 1) == GF4.one


def test_conj_transpose_antihomomorphism_and_involution():
    rng = random.Random(13)
    for _ in range(10):
        a = random_mat(GF9, 3, rng)
        b = random_mat(GF9, 3, rng)
        assert (a * b).conj_transpose() == b.conj_transpose() * a.conj_transpose()
        assert a.conj_transpose().conj_transpose() == a


def test_conj_transpose_requires_quadratic_extension():
    with pytest.raises(ValueError, match="quadratic"):
        Mat.identity(GF8, 2).conj_transpose()
    # explicit subfield order must match
    with pytest.raises(ValueError, match="quadratic"):
        Mat.identity(GF9, 2).conj_transpose(2)
    assert Mat.identity(GF9, 2).conj_transpose(3) == Mat.identity(GF9, 2)


# ---------------------------------------------------------------------------
# Determinant and inverse
# ---------------------------------------------------------------------------

def test_det_small_goldens():
    assert Mat.identity(GF9, 4).det() == GF9.one
    singular = Mat.from_rows(GF5, [[1, 2], [2, 4]])
    assert singular.det() == GF5.zero
    assert cycle_w(GF5, 4).det() == GF5.one


@pytest.mark.parametrize("ctx", [GF2, GF3, GF4, GF5, GF8, GF9], ids=lambda c: f"GF{c.q}")
def test_det_matches_cofactor_oracle(ctx):
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            m = random_mat(ctx, n, rng)
            assert m.det() == cofactor_det(m)


def test_det_multiplicative_random():
    rng = random.Random(19)
    for _ in range(12):
        a = random_mat(GF8, 3, rng)
        b = random_mat(GF8, 3, rng)
        assert (a * b).det() == a.det() * b.det()


def test_inverse_golden():
    xi = GF5.xi
    assert elem_h(GF5, 1, xi, 3).inverse() == elem_h(GF5, 1, xi ** -1, 3)


def test_inverse_round_trip_random():
    rng = random.Random(23)
    for ctx in (GF3, GF4, GF9):
        for n in (1, 2, 3, 4):
            m = random_invertible(ctx, n, rng)
            assert m * m.inverse() == Mat.identity(ctx, n)
            assert m.inverse() * m == Mat.identity(ctx, n)


def test_inverse_singular_raises():
    singular = Mat.from_rows(GF3, [[1, 2], [2, 1]])
    assert singular.det() == GF3.zero
    with pytest.raises(ZeroDivisionError, match="singular"):
        singular.inverse()


# ---------------------------------------------------------------------------
# Equality and hashing: the set key of the closure oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ctx", [GF2, GF3], ids=lambda c: f"GF{c.q}")
def test_eq_and_hash_separate_all_matrices_exhaustive(ctx):
    """All q**4 matrices of degree 2 are distinct set keys with distinct
    hashes, and each equals and hashes like its copy rebuilt from its rows."""
    mats = list(all_matrices(ctx, 2))
    assert len(set(mats)) == len({hash(m) for m in mats}) == len(mats) == ctx.q ** 4
    for m in mats:
        copy = Mat(ctx, [[e.code for e in row] for row in m.rows()])
        assert copy == m and hash(copy) == hash(m)


# ---------------------------------------------------------------------------
# Display
# ---------------------------------------------------------------------------

def test_str_prime_field_uses_bare_integers():
    m = Mat.from_rows(GF3, [[1, 2], [0, 1]])
    assert str(m) == "1 2\n0 1"


def test_str_extension_field_uses_coefficient_tuples():
    m = Mat.from_rows(GF4, [[GF4.xi, 0], [0, 1]])
    assert str(m) == "(0,1) (0,0)\n(0,0) (1,0)"
