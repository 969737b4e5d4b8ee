import itertools
import operator
import random

import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from classgen import (
    DEFAULT_FIELD_CAP,
    field_create,
    field_to_json,
    frobenius,
    poly_string,
)
from classgen.gf import FieldCtx, FieldElem, _is_irreducible, _is_prime, _poly_mulmod, _poly_power
from oracles import brute_order, reference_field

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (5, 2), (2, 4)]


# ---------------------------------------------------------------------------
# Construction: modulus and primitive element are pinned, not just valid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,k,modulus,xi_coeffs", [
    (2, 1, (0, 1), (1,)),
    (3, 1, (0, 1), (2,)),
    (5, 1, (0, 1), (2,)),
    (7, 1, (0, 1), (3,)),
    (2, 2, (1, 1, 1), (0, 1)),        # t^2 + t + 1, xi = t
    (3, 2, (1, 0, 1), (1, 1)),        # t^2 + 1, xi = t + 1
    (2, 3, (1, 0, 1, 1), (0, 0, 1)),  # t^3 + t^2 + 1, xi = t^2
    (5, 2, (1, 1, 1), (1, 3)),        # t^2 + t + 1, xi = 1 + 3t
    (2, 4, (1, 0, 0, 1, 1), (0, 0, 1, 0)),
    # the big fields of the gens fixtures (perfbench/fixtures/gens)
    (2, 20, (1,) + (0,) * 16 + (1, 0, 0, 1), (0,) * 19 + (1,)),
    (3, 12, (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1), (0,) * 9 + (1, 0, 2)),
    (2, 18, (1,) + (0,) * 14 + (1, 0, 0, 1), (0,) * 16 + (1, 1)),
    (7, 7, (1, 0, 0, 0, 0, 0, 6, 1), (0, 0, 0, 0, 0, 0, 3)),
    (5, 8, (1, 0, 0, 0, 0, 1, 1, 0, 1), (0, 0, 0, 0, 0, 0, 1, 1)),
    (1021, 2, (1, 5, 1), (1, 9)),
])
def test_construction_golden(p, k, modulus, xi_coeffs):
    ctx = field_create(p, k)
    assert ctx.q == p**k
    assert ctx.modulus == modulus
    assert ctx.xi.coeffs == xi_coeffs


def test_construction_deterministic_across_instances():
    """Two independent constructions (cache bypassed) agree exactly."""
    from classgen.gf import _field_create_cached

    fresh = _field_create_cached.__wrapped__(3, 2)
    cached = field_create(3, 2)
    assert fresh is not cached
    assert fresh.modulus == cached.modulus
    assert fresh.xi_code == cached.xi_code
    assert fresh == cached


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)])
def test_modulus_is_least_irreducible(p, k):
    """No monic polynomial lexicographically below the modulus is irreducible."""
    ctx = field_create(p, k)

    def divides(g, f):
        # polynomial long division of f by monic g over GF(p)
        f = list(f)
        dg = len(g) - 1
        for top in range(len(f) - 1, dg - 1, -1):
            c = f[top] % p
            if c:
                for i, gc in enumerate(g):
                    f[top - dg + i] = (f[top - dg + i] - c * gc) % p
        return all(c % p == 0 for c in f)

    def irreducible(f):
        for d in range(1, (len(f) - 1) // 2 + 1):
            for low in itertools.product(range(p), repeat=d):
                if divides(list(low) + [1], f):
                    return False
        return True

    for low in itertools.product(range(p), repeat=k):
        cand = low + (1,)
        if cand == ctx.modulus:
            assert irreducible(cand)
            return
        assert not irreducible(cand)
    raise AssertionError("modulus not reached in lexicographic scan")


ORACLE_FIELDS = [(p, k) for p in range(2, 65) for k in range(2, 13)
                 if _is_prime(p) and p**k <= 4096]


@pytest.mark.parametrize("p,k", ORACLE_FIELDS)
def test_modulus_matches_sympy_scan(p, k):
    """The first irreducible of the full lexicographic scan, zero constant
    terms included, judged by sympy, is the modulus field_create picks."""
    for low in itertools.product(range(p), repeat=k):
        cand = low + (1,)
        if gf_irreducible_p(list(reversed(cand)), p, ZZ):
            assert field_create(p, k).modulus == cand
            return
    raise AssertionError("no irreducible candidate found")


BEN_OR_CASES = [(p, k) for p in (2, 3) for k in range(2, 7)] + [
    (p, k) for p in (5, 7) for k in range(2, 5)]


@pytest.mark.parametrize("p,k", BEN_OR_CASES)
def test_is_irreducible_matches_sympy(p, k):
    """Ben-Or's test agrees with sympy on every monic polynomial of degree k
    with a nonzero constant term, the candidates the modulus walk tries.
    Among them, t^4 + t^2 + 1 = (t^2 + t + 1)^2 over GF(2) has no root, so
    only the i = 2 step (gcd(t^4 - t, f) = t^2 + t + 1) rejects it."""
    for low in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        f = (*low, 1)
        assert _is_irreducible(f, p) == gf_irreducible_p(list(reversed(f)), p, ZZ), f


EXTENSION_FIELDS = [(p, k) for p in range(2, 257) for k in range(2, 17)
                    if _is_prime(p) and p**k <= 2**16]


def test_construction_matches_the_reference_search():
    """Modulus and xi of every extension field up to 2^16 elements equal those
    of the search by definition: trial division, and one exponentiation for
    each prime factor of q - 1."""
    from classgen.gf import _field_create_cached

    assert len(EXTENSION_FIELDS) == 93
    for p, k in EXTENSION_FIELDS:
        ctx = _field_create_cached.__wrapped__(p, k)
        assert (ctx.modulus, ctx.xi.coeffs) == reference_field(p, k), (p, k)


# (7, 2), (11, 2), (13, 2), (31, 2) and (7, 3) have k > 1 and several primes
# dividing p - 1, so the norm test decides most candidates.
@pytest.mark.parametrize("p,k", SMALL_FIELDS + [(2, 5), (3, 3), (7, 2), (11, 2), (13, 2),
                                                 (31, 2), (7, 3)])
def test_xi_is_least_primitive(p, k):
    """xi has order q - 1 and nothing lexicographically below it does."""
    ctx = field_create(p, k)
    assert brute_order(ctx.xi) == ctx.q - 1
    for code in range(1, ctx.q):
        coeffs = ctx.code_to_coeffs(code)
        if coeffs >= ctx.xi.coeffs:
            continue
        assert brute_order(ctx.from_code(code)) < ctx.q - 1


def test_construction_rejects_bad_parameters():
    with pytest.raises(ValueError, match="not prime"):
        field_create(4, 1)
    with pytest.raises(ValueError, match="not prime"):
        field_create(1, 2)
    with pytest.raises(ValueError, match="at least 1"):
        field_create(3, 0)
    with pytest.raises(ValueError, match="must be integers"):
        field_create(2.0, 3)
    with pytest.raises(ValueError, match="must be integers"):
        field_create(2, "3")


def test_construction_takes_any_integer_type():
    ctx = field_create(np.int64(2), np.uint8(3))
    assert ctx is field_create(2, 3)
    assert type(ctx.p) is int and type(ctx.k) is int


def test_construction_respects_cap():
    with pytest.raises(ValueError, match="exceeds the cap"):
        field_create(2, 25)
    with pytest.raises(ValueError, match="field cardinality 2097152 exceeds the cap 1048576"):
        field_create(2, 21)
    assert field_create(2, 20).q == 2**20
    assert DEFAULT_FIELD_CAP == 2**20


# ---------------------------------------------------------------------------
# Element arithmetic
# ---------------------------------------------------------------------------

def test_gf4_worked_examples():
    ctx = field_create(2, 2)
    t = ctx.from_code(2)
    assert (t + (t + 1)).coeffs == (1, 0)
    assert (t * (t + 1)).coeffs == (1, 0)
    assert (1 / t).coeffs == (1, 1)
    assert t ** -1 == t + 1


def test_gf9_worked_examples():
    ctx = field_create(3, 2)
    t = ctx.from_code(3)
    assert ((t + 1) ** 2).coeffs == (0, 2)
    assert (2 * t - t).coeffs == (0, 1)
    assert (-t).coeffs == (0, 2)


def test_int_coercion_reduces_mod_p():
    ctx = field_create(5, 1)
    a = ctx.elem(7)
    assert a.code == 2
    assert (a + 13) == ctx.elem(0)
    assert (3 - a).code == 1
    # numpy integer scalars coerce like ints; floats do not.
    assert ctx.elem(np.int64(7)) == a == np.int8(2)
    assert (a * np.int32(3)).code == 1
    with pytest.raises(TypeError):
        ctx.elem(2.0)


@pytest.mark.parametrize("bad", [2.0, 0.5, np.float64(2)], ids=repr)
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                         ids=lambda op: op.__name__)
def test_arithmetic_with_a_float_raises_type_error(op, bad):
    a = field_create(5, 1).xi
    with pytest.raises(TypeError):
        op(a, bad)
    with pytest.raises(TypeError):
        op(bad, a)


def test_from_code_refuses_codes_outside_the_field():
    ctx = field_create(3, 2)
    for code in (-1, ctx.q):
        with pytest.raises(ValueError, match="out of range"):
            ctx.from_code(code)


def test_pow_refuses_a_float_exponent():
    # int(2.5) would truncate: xi ** 2.5 must not be xi ** 2.
    xi = field_create(5, 1).xi
    for e in (2.5, 2.0, np.float64(2)):
        with pytest.raises(TypeError):
            xi ** e
    assert xi ** np.int64(2) == xi ** np.uint8(2) == xi ** 2
    assert xi ** np.int32(-1) == xi ** -1


def test_zero_division_raises():
    ctx = field_create(3, 2)
    with pytest.raises(ZeroDivisionError):
        ctx.zero ** -1
    with pytest.raises(ZeroDivisionError):
        ctx.one / ctx.zero
    with pytest.raises(ZeroDivisionError):
        ctx.inv_code(0)


def test_mixed_field_arithmetic_raises():
    a = field_create(2, 2).xi
    b = field_create(3, 2).xi
    with pytest.raises(ValueError, match="mixed fields"):
        a + b
    with pytest.raises(ValueError, match="mixed fields"):
        a * b


GF9 = field_create(3, 2)

# Each binary operator and the code operation it must apply to (left, right).
_CODE_OPS = {
    operator.add: lambda ctx, a, b: ctx.add_code(a, b),
    operator.sub: lambda ctx, a, b: ctx.sub_code(a, b),
    operator.mul: lambda ctx, a, b: ctx.mul_code(a, b),
    operator.truediv: lambda ctx, a, b: ctx.mul_code(a, ctx.inv_code(b)),
}


@pytest.mark.parametrize("x", [
    GF9.from_code(7), GF9.zero, -7, 11, 3, 0, np.int64(4), np.uint8(200), True, False,
    field_create(2, 2).xi, GF9.xi.coeffs, 2.5, np.float64(2), "t", None,
], ids=repr)
@pytest.mark.parametrize("op", _CODE_OPS, ids=lambda op: op.__name__)
def test_binary_operator_table(op, x):
    # Every operator, in both operand orders, against one operand of each
    # kind: a field element, an int of any sign or size, a numpy int or bool
    # (all reduced mod p), an element of another field, and a non-integer.
    a = GF9.from_code(5)
    for left, right in ((a, x), (x, a)):
        if isinstance(x, FieldElem) and x.ctx != GF9:
            with pytest.raises(ValueError, match="mixed fields"):
                op(left, right)
        elif not isinstance(x, FieldElem) and not isinstance(x, (int, np.integer)):
            with pytest.raises(TypeError):
                op(left, right)
        else:
            codes = [y.code if isinstance(y, FieldElem) else int(y) % 3 for y in (left, right)]
            if op is operator.truediv and codes[1] == 0:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            out = op(left, right)
            assert type(out) is FieldElem and out.ctx is GF9
            assert out.code == _CODE_OPS[op](GF9, *codes)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_add_neg_sub_codes_are_coefficientwise_mod_p(p, k):
    ctx = field_create(p, k)

    def code(digits):
        return sum(d % p * p**i for i, d in enumerate(digits))

    digits = [[c // p**i % p for i in range(k)] for c in range(ctx.q)]
    for a, da in enumerate(digits):
        assert ctx.neg_code(a) == code([-x for x in da])
        for b, db in enumerate(digits):
            assert ctx.add_code(a, b) == code([x + y for x, y in zip(da, db)])
            assert ctx.sub_code(a, b) == code([x - y for x, y in zip(da, db)])


def test_elem_coercion_paths():
    ctx = field_create(3, 2)
    assert ctx.elem((1, 2)).code == 7
    assert ctx.elem(ctx.xi) is not None and ctx.elem(ctx.xi) == ctx.xi
    with pytest.raises(ValueError, match="different field"):
        ctx.elem(field_create(2, 2).one)
    with pytest.raises(TypeError):
        ctx.elem("t")
    with pytest.raises(ValueError, match="longer than"):
        ctx.elem((1, 2, 1))
    # Coefficients and codes must be integers: a float is refused, even an
    # integral one, as for scalars and Mat entries.
    for bad in ([1.5, 2], (1.0, 2), [1, np.float64(2)]):
        with pytest.raises(TypeError):
            ctx.elem(bad)
        with pytest.raises(TypeError):
            ctx.coeffs_to_code(bad)
    with pytest.raises(TypeError):
        ctx.from_code(3.0)
    assert ctx.elem([np.int64(1), 2]).code == ctx.from_code(np.int32(7)).code == 7
    assert ctx.one != 1.0


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    ctx = field_create(p, k)
    elems = list(ctx.elements())
    assert len(elems) == ctx.q
    for a in elems:
        assert a + ctx.zero == a
        assert a * ctx.one == a
        assert a * ctx.zero == ctx.zero
        assert a - a == ctx.zero
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2),
                                 (2, 3), (5, 2), (3, 3), (7, 2), (2, 4), (3, 4)])
def test_inverses_exhaustive(p, k):
    ctx = field_create(p, k)
    for code in range(1, ctx.q):
        a = ctx.from_code(code)
        assert a * (ctx.one / a) == ctx.one
        assert a ** (ctx.q - 1) == ctx.one


@pytest.mark.parametrize("p", [p for p in range(2, 200) if _is_prime(p)])
def test_prime_field_arithmetic_matches_the_polynomial_path(p):
    # GF(p) does add, neg, sub, mul and inv as integers mod p; the polynomial
    # path works on coefficient lists, of length 1 here.  Every pair for
    # p < 50, a seeded sample of pairs above, every element for neg and inv.
    ctx = field_create(p, 1)
    mod_low = ctx.modulus[:1]
    rng = random.Random(p)
    pairs = (itertools.product(range(p), repeat=2) if p < 50 else
             [(0, p - 1), (p - 1, p - 1)] + [(rng.randrange(p), rng.randrange(p))
                                             for _ in range(1000)])
    for a, b in pairs:
        assert ctx.add_code(a, b) == ctx.coeffs_to_code([a + b])
        assert ctx.sub_code(a, b) == ctx.coeffs_to_code([a - b])
        assert ctx.mul_code(a, b) == _poly_mulmod([a], [b], mod_low, p, 1)[0]
    for a in range(p):
        assert ctx.neg_code(a) == ctx.coeffs_to_code([-a])
        if a:
            assert ctx.inv_code(a) == _poly_power([a], p - 2, mod_low, p, 1)[0]


def test_pow_negative_and_zero():
    ctx = field_create(5, 2)
    a = ctx.xi
    assert a ** 0 == ctx.one
    assert a ** -3 == (a ** 3) ** -1
    assert a ** (ctx.q - 1) == ctx.one


def test_code_coeffs_roundtrip_exhaustive():
    ctx = field_create(3, 3)
    for code in range(ctx.q):
        assert ctx.coeffs_to_code(ctx.code_to_coeffs(code)) == code


def test_elements_hashable_and_ordered_by_code():
    ctx = field_create(2, 2)
    elems = list(ctx.elements())
    assert [e.code for e in elems] == [0, 1, 2, 3]
    assert len(set(elems)) == 4
    assert ctx.one == 1 and ctx.zero == 0
    assert bool(ctx.zero) is False and bool(ctx.xi) is True


def test_equality_with_ints_agrees_with_hash():
    ctx = field_create(5, 1)
    assert ctx.one == 1 and ctx.zero == 0 and ctx.one != 1.0
    assert ctx.elem(3) != 8 and ctx.elem(3) != -2 and ctx.elem(3) == np.int64(3)
    assert 1 in {ctx.one} and ctx.one in {1} and 8 not in {ctx.elem(3)}
    assert {ctx.one: "one"}[1] == "one" and {1: "one"}[ctx.one] == "one"
    gf9 = field_create(3, 2)
    equal = [(e.code, x) for e in gf9.elements() for x in range(-10, 20) if e == x]
    assert equal == [(0, 0), (1, 1), (2, 2)]
    assert all(hash(gf9.from_code(code)) == hash(x) for code, x in equal)


# ---------------------------------------------------------------------------
# Frobenius
# ---------------------------------------------------------------------------

def test_frobenius_golden_gf9():
    ctx = field_create(3, 2)
    t = ctx.from_code(3)
    assert frobenius(t + 1).coeffs == (1, 2)


def test_frobenius_fixes_prime_subfield():
    ctx = field_create(3, 2)
    for c in range(3):
        a = ctx.elem(c)
        assert frobenius(a) == a


def test_frobenius_is_an_involution():
    ctx = field_create(5, 2)
    for a in ctx.elements():
        assert frobenius(frobenius(a)) == a


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (5, 2), (3, 4)])
def test_frobenius_is_a_field_automorphism(p, k):
    ctx = field_create(p, k)
    elems = list(ctx.elements())
    for a in elems:
        for b in elems:
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
            assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_frobenius_rejects_non_quadratic_extension():
    ctx = field_create(2, 3)
    with pytest.raises(ValueError, match="quadratic"):
        frobenius(ctx.xi)
    with pytest.raises(ValueError, match="quadratic"):
        frobenius(field_create(3, 2).xi, 2)
    assert field_create(2, 4).subfield_order() == 4
    with pytest.raises(ValueError, match="quadratic"):
        field_create(2, 3).subfield_order()


def test_frobenius_explicit_subfield_order():
    ctx = field_create(2, 2)
    t = ctx.xi
    assert frobenius(t, 2) == t * t


# ---------------------------------------------------------------------------
# Structure constants mirror the polynomial arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (2, 4)])
def test_tables_match_polynomial_arithmetic(p, k):
    ctx = field_create(p, k)
    s_tensor = ctx.tables()
    assert s_tensor.shape == (k, k, k)
    for s in range(k):
        for t in range(k):
            assert tuple(s_tensor[s, t]) == ctx.code_to_coeffs(ctx.mul_code(p**s, p**t))


def test_dlog_inverts_xi_powers():
    ctx = field_create(3, 2)
    for code in range(1, ctx.q):
        e = ctx.dlog_code(code)
        assert ctx.pow_code(ctx.xi_code, e) == code
    assert ctx.dlog_code(1) == 0
    with pytest.raises(ZeroDivisionError):
        ctx.dlog_code(0)


@pytest.mark.parametrize("p,k", [(2, 10), (101, 1)])
def test_dlog_builds_its_giant_step_once(monkeypatch, p, k):
    ctx = field_create(p, k)
    code = ctx.pow_code(ctx.xi_code, 57)
    ctx.dlog_code(1)  # builds the baby steps, if no earlier call did
    calls = []
    for name in ("pow_code", "inv_code"):
        def spy(self, *args, _name=name, _real=getattr(FieldCtx, name)):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(FieldCtx, name, spy)
    assert ctx.dlog_code(code) == 57
    assert calls == []


def test_dlog_round_trips_on_the_largest_field():
    ctx = field_create(2, 20)
    rng = random.Random(20)
    for e in [0, 1, 2, ctx.q - 2, 1023, 1024, 1025] + [rng.randrange(ctx.q - 1) for _ in range(8)]:
        assert ctx.dlog_code(ctx.pow_code(ctx.xi_code, e)) == e
    for code in [1, 2, ctx.q - 1] + [rng.randrange(1, ctx.q) for _ in range(8)]:
        assert ctx.pow_code(ctx.xi_code, ctx.dlog_code(code)) == code


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def test_reprs_and_comparison_with_other_types():
    gf9 = field_create(3, 2)
    assert repr(gf9.xi) == "FieldElem(GF(9), [1, 1])"
    assert gf9 != 3 and not gf9 == 3
    assert gf9 == field_create(3, 2) and gf9 != field_create(3, 1)


def test_field_to_json_shape():
    payload = field_to_json(field_create(3, 2))
    assert payload == {"p": 3, "k": 2, "modulus": [1, 0, 1], "xi": [1, 1]}


def test_poly_string():
    assert poly_string((1, 0, 1)) == "t^2 + 1"
    assert poly_string((0, 1)) == "t"
    assert poly_string((0, 2, 1)) == "t^2 + 2*t"
    assert poly_string((0,)) == "0"
