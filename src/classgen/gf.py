"""Exact arithmetic in GF(p^k) with a deterministic construction.

A field element is stored as an integer code in [0, q).  The element whose
coefficient vector in the polynomial basis is (c0, ..., c_{k-1}), constant
term first, has code c0 + c1*p + ... + c_{k-1}*p**(k-1).

Construction is canonical: the modulus is the lexicographically least monic
irreducible polynomial of degree k over GF(p), and xi is the
lexicographically least element of multiplicative order exactly q - 1.
Both comparisons read coefficient tuples constant term first.  Two calls of
field_create with equal (p, k) therefore return identical contexts.

Both walks decide each candidate exactly, by tests faster than the
definitions, on Euclid's remainders: irreducibility by Ben-Or's test
(Res(f, t**(p**i) - t) != 0, so gcd 1, for i <= k/2), and, for each prime
r | p - 1, the order test a**((q-1)/r) != 1 by the norm test
N(a)**((p-1)/r) != 1 in GF(p), N(a) = Res(f, a) (Lidl and Niederreiter,
Finite Fields, section 2.3).  The other primes share one power chain.

Scalar arithmetic is integer arithmetic mod p on a prime field.  For k > 1,
addition, negation and subtraction share one base-p digit loop, inverses run
extended Euclid, and products (and so the closure's row tables) work on
coefficient lists.  Only FieldCtx.tables, the structure constants as an
array, loads numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

# DEFAULT_FIELD_CAP lives in the numpy-free spec module; importing it here
# keeps classgen.gf.DEFAULT_FIELD_CAP working.
from classgen.spec import DEFAULT_FIELD_CAP, _as_int, _prime_factors, _shown, check_field_size


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


# Polynomials over GF(p) are lists of residues, constant term first.

def _poly_mulmod(a: list[int], b: list[int], mod_low: tuple[int, ...], p: int, k: int) -> list[int]:
    """a * b reduced by the monic modulus whose low coefficients are mod_low."""
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            base = d - k
            for i in range(k):
                if mod_low[i]:
                    prod[base + i] = (prod[base + i] - c * mod_low[i]) % p
    return prod[:k]


def _poly_power(a: list[int], e: int, mod_low: tuple[int, ...], p: int, k: int) -> list[int]:
    """a**e reduced by the monic modulus whose low coefficients are mod_low."""
    out = [1] + [0] * (k - 1)
    for bit in bin(e)[2:]:  # square-and-multiply, high bit first
        out = _poly_mulmod(out, out, mod_low, p, k)
        if bit == "1":
            out = _poly_mulmod(out, a, mod_low, p, k)
    return out


def _poly_rem(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f by g (both constant term first; g's last coefficient nonzero)."""
    r = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    low = [(i, c) for i, c in enumerate(g[:dg]) if c]
    for d in range(len(r) - 1, dg - 1, -1):
        c = r[d] * inv % p
        if c:
            r[d] = 0
            for i, gi in low:
                r[d - dg + i] = (r[d - dg + i] - c * gi) % p
    return r[:dg]


def _trim(a: list[int]) -> list[int]:
    """a without its leading zero coefficients."""
    while a and not a[-1]:
        a = a[:-1]
    return a


def _resultant(a: list[int], b: list[int], p: int) -> int:
    """Res(a, b) over GF(p) for trimmed a and b, 0 exactly when gcd(a, b) != 1, by
    Euclid's remainders r = a mod b: Res(a, b) = (-1)**(da*db) * lc(b)**(da - dr)
    * Res(b, r), and Res(a, c) = c**da for a constant c."""
    out = 1
    while len(b) > 1:
        r = _trim(_poly_rem(a, b, p))
        if not r:
            return 0
        da, db = len(a) - 1, len(b) - 1
        out = out * pow(b[-1], da - len(r) + 1, p) * (-1 if da & db & 1 else 1) % p
        a, b = b, r
    return out * pow(b[0], len(a) - 1, p) % p if b else 0


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test of monic f of degree k >= 2: f is irreducible exactly
    when gcd(t**(p**i) - t, f) = 1, i.e. Res(f, t**(p**i) - t) != 0, for i <= k // 2."""
    k = len(f) - 1
    mod_low = f[:k]
    h = [0, 1] + [0] * (k - 2)  # t
    for _ in range(k // 2):
        h = _poly_power(h, p, mod_low, p, k)
        if not _resultant(f, _trim([h[0], (h[1] - 1) % p, *h[2:]]), p):
            return False
    return True


def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    if k == 1:
        return (0, 1)
    # Candidates with a zero constant term are divisible by t; the rest keep their order.
    for low in itertools.product(range(1, p), *[range(p)] * (k - 1)):
        cand = (*low, 1)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


class FieldCtx:
    """One finite field GF(p^k).  Construct through field_create only."""

    __slots__ = ("p", "k", "q", "modulus", "xi_code", "_basis_mul", "_baby_steps")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...], xi_code: int):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.xi_code = xi_code
        self._basis_mul = None
        self._baby_steps = None

    # -- identity and comparison ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FieldCtx(GF({self.q}), modulus {poly_string(self.modulus)})"

    # -- element constructors ----------------------------------------------

    def code_to_coeffs(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    def coeffs_to_code(self, coeffs) -> int:
        if len(coeffs) > self.k:
            raise ValueError(f"coefficient vector longer than extension degree {self.k}")
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + operator.index(c) % self.p
        return code

    def from_code(self, code: int) -> "FieldElem":
        code = operator.index(code)
        if not 0 <= code < self.q:
            raise ValueError(f"element code {code} out of range [0, {self.q})")
        return FieldElem(self, code)

    def elem(self, x) -> "FieldElem":
        """Coerce x to a field element.

        Integers embed through the prime subfield (x mod p); sequences are
        read as coefficient vectors, constant term first.  Floats are
        refused, as scalars and as coefficients (TypeError).
        """
        if isinstance(x, FieldElem):
            if x.ctx != self:
                raise ValueError("element belongs to a different field")
            return x
        code = _as_int(x)
        if code is not None:
            return FieldElem(self, code % self.p)
        if isinstance(x, (list, tuple)):
            return FieldElem(self, self.coeffs_to_code(x))
        raise TypeError(f"cannot coerce {type(x).__name__} to a field element")

    def elements(self):
        """All field elements in code order."""
        for c in range(self.q):
            yield FieldElem(self, c)

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    @property
    def xi(self) -> "FieldElem":
        return FieldElem(self, self.xi_code)

    # -- arithmetic on codes -------------------------------------------------

    def add_code(self, a: int, b: int) -> int:
        return (a + b) % self.p if self.k == 1 else self._add_digits(a, b, 1)

    def neg_code(self, a: int) -> int:
        return -a % self.p if self.k == 1 else self._add_digits(0, a, -1)

    def sub_code(self, a: int, b: int) -> int:
        return (a - b) % self.p if self.k == 1 else self._add_digits(a, b, -1)

    def _add_digits(self, a: int, b: int, sign: int) -> int:
        """a + sign * b digit by digit: digit i is (a // p**i + sign * (b // p**i)) mod p."""
        p = self.p
        shift, out = 1, 0
        while a or b:  # once both are 0, every digit left is 0
            out += (a + sign * b) % p * shift
            a //= p
            b //= p
            shift *= p
        return out

    def mul_code(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        pa = list(self.code_to_coeffs(a))
        pb = list(self.code_to_coeffs(b))
        return self.coeffs_to_code(_poly_mulmod(pa, pb, self.modulus[: self.k], self.p, self.k))

    def inv_code(self, a: int) -> int:
        """a**-1; for k > 1 by extended Euclid on the modulus f and a, one leading term
        at a time: each row (r, u) keeps u * a = r mod f until r is a constant c."""
        if a == 0:
            raise ZeroDivisionError("division by the zero field element")
        p, k = self.p, self.k
        if k == 1:
            return pow(a, -1, p)
        r0, u0 = list(self.modulus), [0] * k
        r1, u1 = _trim(list(self.code_to_coeffs(a))), [1] + [0] * (k - 1)
        while len(r1) > 1:
            d = len(r0) - len(r1)
            c = r0[-1] * pow(r1[-1], -1, p) % p
            for i, x in enumerate(r1):
                r0[d + i] = (r0[d + i] - c * x) % p
            for i, x in enumerate(u1[:k - d]):
                u0[d + i] = (u0[d + i] - c * x) % p
            r0 = _trim(r0)
            if len(r0) < len(r1):
                r0, u0, r1, u1 = r1, u1, r0, u0
        c = pow(r1[0], -1, p)
        return self.coeffs_to_code([x * c % p for x in u1])

    def pow_code(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv_code(a)
            e = -e
        if a == 0:
            return 1 if e == 0 else 0
        coeffs = _poly_power(list(self.code_to_coeffs(a)), e % (self.q - 1),
                             self.modulus[: self.k], self.p, self.k)
        return self.coeffs_to_code(coeffs)

    def subfield_order(self) -> int:
        """q0 with q = q0**2, for the conjugation x -> x**q0."""
        if self.k % 2:
            raise ValueError(f"GF({self.q}) is not a quadratic extension")
        return self.p ** (self.k // 2)

    def frobenius_code(self, a: int) -> int:
        return self.pow_code(a, self.subfield_order())

    # -- structure constants -------------------------------------------------

    def tables(self):
        """Structure constants S, an int64 array of shape (k, k, k).

        S[s, t] is the coefficient vector of t**(s+t) mod the modulus, so
        the product of digit vectors x and y has digit vector
        sum over s, t of x[s] * y[t] * S[s, t], mod p.
        """
        if self._basis_mul is None:
            import numpy as np

            k = self.k
            powers = [_poly_rem([0] * d + [1] + [0] * k, self.modulus, self.p)
                      for d in range(2 * k - 1)]  # t**0 .. t**(2k-2)
            self._basis_mul = np.array(powers, dtype=np.int64)[np.add.outer(range(k), range(k))]
        return self._basis_mul

    def dlog_code(self, code: int) -> int:
        """Discrete log base xi, in [0, q - 2]; code must be nonzero.

        Baby-step giant-step; the m = ceil(sqrt(q - 1)) baby steps and the
        giant step xi**-m are cached.
        """
        if code == 0:
            raise ZeroDivisionError("zero has no discrete logarithm")
        m = math.isqrt(self.q - 2) + 1
        if self._baby_steps is None:
            baby, cur = {}, 1
            for j in range(m):
                baby[cur] = j
                cur = self.mul_code(cur, self.xi_code)
            self._baby_steps = baby, self.inv_code(cur)  # cur = xi**m
        baby, giant = self._baby_steps
        for i in range(m):
            j = baby.get(code)
            if j is not None:
                return i * m + j
            code = self.mul_code(code, giant)
        raise AssertionError("xi does not generate the multiplicative group")


def _div_code(ctx: FieldCtx, a: int, b: int) -> int:
    return ctx.mul_code(a, ctx.inv_code(b))


def _binary(op, reflected: bool = False):
    """A FieldElem operator computing op(ctx, self.code, c), or op(ctx, c, self.code)
    when reflected, where c is the other operand's code; see FieldElem._coerce."""
    def method(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        ctx = self.ctx
        return FieldElem(ctx, op(ctx, c, self.code) if reflected else op(ctx, self.code, c))
    return method


class FieldElem:
    """An element of a FieldCtx.  Immutable; supports field arithmetic operators."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: FieldCtx, code: int):
        self.ctx = ctx
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.ctx.code_to_coeffs(self.code)

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.ctx != self.ctx:
                raise ValueError("mixed fields in arithmetic")
            return other.code
        code = _as_int(other)
        return None if code is None else code % self.ctx.p

    __add__ = __radd__ = _binary(FieldCtx.add_code)
    __sub__ = _binary(FieldCtx.sub_code)
    __rsub__ = _binary(FieldCtx.sub_code, reflected=True)
    __mul__ = __rmul__ = _binary(FieldCtx.mul_code)
    __truediv__ = _binary(_div_code)
    __rtruediv__ = _binary(_div_code, reflected=True)

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.neg_code(self.code))

    def __pow__(self, e: int):
        # operator.index, not int(): a float exponent is a TypeError, not truncated.
        return FieldElem(self.ctx, self.ctx.pow_code(self.code, operator.index(e)))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.ctx == other.ctx and self.code == other.code
        code = _as_int(other)
        if code is None:
            return NotImplemented
        # An int equals only the prime-field element it names: equal objects hash alike.
        return code == self.code and code < self.ctx.p

    def __hash__(self):
        return hash(self.code)

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"FieldElem(GF({self.ctx.q}), {list(self.coeffs)})"


def _least_primitive(ctx: FieldCtx) -> int:
    """Code of the lexicographically least element of order exactly q - 1.

    a has order q - 1 when a**((q - 1) / r) != 1 for each prime r | q - 1.
    For r | p - 1 that power is N(a)**((p - 1) / r), with the norm
    N(a) = a * a**p * ... * a**(p**(k-1)) = Res(f, a), f the modulus: one
    Euclid and a pow mod p.  The other primes r1 ... rm share one chain, paid
    only by candidates that pass: x = a**((q - 1) / (r1 * ... * rm)), then
    each half of the primes is tested on x to the product of the other half.
    """
    p, k, q = ctx.p, ctx.k, ctx.q
    mod_low = ctx.modulus[:k]
    one = [1] + [0] * (k - 1)
    primes = _prime_factors(q - 1)
    norm_checks = [(p - 1) // r for r in primes if (p - 1) % r == 0]
    chain = [r for r in primes if (p - 1) % r]
    top = (q - 1) // math.prod(chain)

    def no_root(x: list[int], rs: list[int]) -> bool:
        """x**(R / r) != 1 for each r in rs, R the product of rs."""
        if len(rs) == 1:
            return x != one
        lo, hi = rs[:len(rs) // 2], rs[len(rs) // 2:]
        return (no_root(_poly_power(x, math.prod(hi), mod_low, p, k), lo)
                and no_root(_poly_power(x, math.prod(lo), mod_low, p, k), hi))

    # c0 has a loop of its own: product(range(p), repeat=k) would copy range(p) first.
    cands = ((c, *rest) for c in range(p) for rest in itertools.product(*[range(p)] * (k - 1)))
    for coeffs in itertools.islice(cands, 1, None):  # lexicographic order, skipping 0
        n = _resultant(ctx.modulus, _trim(coeffs), p) if norm_checks else 0
        if any(pow(n, e, p) == 1 for e in norm_checks):
            continue
        if not chain or no_root(_poly_power(coeffs, top, mod_low, p, k), chain):
            return ctx.coeffs_to_code(coeffs)
    raise AssertionError(f"no primitive element found in GF({q})")


@functools.lru_cache(maxsize=None)
def _field_create_cached(p: int, k: int) -> FieldCtx:
    modulus = _least_irreducible(p, k)
    ctx = FieldCtx(p, k, modulus, 0)
    ctx.xi_code = _least_primitive(ctx)
    return ctx


def field_create(p: int, k: int) -> FieldCtx:
    """Create GF(p^k) deterministically.

    Raises ValueError if p or k is not an integer (numpy integers count,
    floats do not; both are stored as Python ints), p is not prime, k < 1,
    or p**k exceeds DEFAULT_FIELD_CAP.  Validation runs before the cache so
    the outcome never depends on which fields were built earlier.
    """
    p, k = _as_int(p), _as_int(k)
    if p is None or k is None:
        raise ValueError("p and k must be integers")
    if not _is_prime(p):
        raise ValueError(f"p = {_shown(p)} is not prime")
    if k < 1:
        raise ValueError(f"extension degree k = {_shown(k)} must be at least 1")
    check_field_size(p, k)
    return _field_create_cached(p, k)


def frobenius(a: FieldElem, q0: int | None = None) -> FieldElem:
    """The conjugation x -> x**q0 on a quadratic extension GF(q0^2).

    With q0 omitted it is inferred from the field.  Applying it twice gives
    the identity, and it fixes exactly the subfield GF(q0).
    """
    _check_subfield(a.ctx, q0)
    return FieldElem(a.ctx, a.ctx.frobenius_code(a.code))


def _check_subfield(ctx: FieldCtx, q0: int | None) -> None:
    """Refuse a field that is not a quadratic extension, or, with q0 given, not one of GF(q0)."""
    want = ctx.subfield_order()
    if q0 is not None and q0 != want:
        raise ValueError(f"GF({ctx.q}) is not a quadratic extension of GF({q0})")


def poly_string(coeffs) -> str:
    """Readable form of a coefficient vector (constant term first), e.g. t^2 + 1."""
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if not c:
            continue
        if d == 0:
            terms.append(str(c))
        else:
            var = "t" if d == 1 else f"t^{d}"
            terms.append(var if c == 1 else f"{c}*{var}")
    return " + ".join(terms) if terms else "0"


def field_to_json(ctx: FieldCtx) -> dict:
    """JSON-ready description: p, k, modulus and xi as coefficient lists."""
    return {
        "p": ctx.p,
        "k": ctx.k,
        "modulus": list(ctx.modulus),
        "xi": list(ctx.xi.coeffs),
    }
