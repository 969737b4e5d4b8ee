"""Exact arithmetic in GF(p^k) with a deterministic construction.

A field element is stored as an integer code in [0, q).  The element whose
coefficient vector in the polynomial basis is (c0, ..., c_{k-1}), constant
term first, has code c0 + c1*p + ... + c_{k-1}*p**(k-1).

Construction is canonical: the modulus is the lexicographically least monic
irreducible polynomial of degree k over GF(p), and xi is the
lexicographically least element of multiplicative order exactly q - 1.
Both comparisons read coefficient tuples constant term first.  Two calls of
field_create with equal (p, k) therefore return identical contexts.

Scalar arithmetic works on coefficient lists.  The closure's row tables
contract digit arrays with the structure constants of FieldCtx.tables; those
two methods are the only ones that load numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers

# DEFAULT_FIELD_CAP lives in the numpy-free spec module; importing it here
# keeps classgen.gf.DEFAULT_FIELD_CAP working.
from classgen.spec import DEFAULT_FIELD_CAP, _prime_factors, check_field_size


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


def _poly_rem(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f by the monic polynomial g (both constant term first)."""
    r = list(f)
    dg = len(g) - 1
    for d in range(len(r) - 1, dg - 1, -1):
        c = r[d]
        if c:
            r[d] = 0
            for i in range(dg):
                r[d - dg + i] = (r[d - dg + i] - c * g[i]) % p
    return r[:dg]


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division of monic f (f(0) != 0) by each monic g, g(0) != 0, deg g <= deg(f)/2."""
    k = len(f) - 1
    fl = list(f)
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(1, p), *[range(p)] * (d - 1)):
            g = list(low) + [1]
            if not any(_poly_rem(fl, g, p)):
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
            code = code * self.p + (int(c) % self.p)
        return code

    def from_code(self, code: int) -> "FieldElem":
        if not 0 <= code < self.q:
            raise ValueError(f"element code {code} out of range [0, {self.q})")
        return FieldElem(self, int(code))

    def elem(self, x) -> "FieldElem":
        """Coerce x to a field element.

        Integers embed through the prime subfield (x mod p); sequences are
        read as coefficient vectors, constant term first.
        """
        if isinstance(x, FieldElem):
            if x.ctx != self:
                raise ValueError("element belongs to a different field")
            return x
        if isinstance(x, numbers.Integral):
            return FieldElem(self, int(x) % self.p)
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
        p = self.p
        shift, out = 1, 0
        for _ in range(self.k):
            out += ((a % p + b % p) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    def neg_code(self, a: int) -> int:
        p = self.p
        shift, out = 1, 0
        for _ in range(self.k):
            out += ((-(a % p)) % p) * shift
            a //= p
            shift *= p
        return out

    def sub_code(self, a: int, b: int) -> int:
        return self.add_code(a, self.neg_code(b))

    def mul_code(self, a: int, b: int) -> int:
        pa = list(self.code_to_coeffs(a))
        pb = list(self.code_to_coeffs(b))
        return self.coeffs_to_code(_poly_mulmod(pa, pb, self.modulus[: self.k], self.p, self.k))

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by the zero field element")
        return self.pow_code(a, self.q - 2)

    def pow_code(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv_code(a)
            e = -e
        if a == 0:
            return 1 if e == 0 else 0
        e %= self.q - 1
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul_code(out, base)
            base = self.mul_code(base, base)
            e >>= 1
        return out

    def subfield_order(self) -> int:
        """q0 with q = q0**2, for the conjugation x -> x**q0."""
        if self.k % 2:
            raise ValueError(f"GF({self.q}) is not a quadratic extension")
        return self.p ** (self.k // 2)

    def frobenius_code(self, a: int) -> int:
        return self.pow_code(a, self.subfield_order())

    # -- bulk arithmetic -------------------------------------------------------

    def digits(self, codes):
        """Base-p digits of an array of codes, in a new trailing axis of length k."""
        import numpy as np

        powers = self.p ** np.arange(self.k, dtype=np.int64)
        return np.asarray(codes, dtype=np.int64)[..., None] // powers % self.p

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

        Baby-step giant-step; the m = ceil(sqrt(q - 1)) baby steps are cached.
        """
        if code == 0:
            raise ZeroDivisionError("zero has no discrete logarithm")
        m = math.isqrt(self.q - 2) + 1
        if self._baby_steps is None:
            baby, cur = {}, 1
            for j in range(m):
                baby[cur] = j
                cur = self.mul_code(cur, self.xi_code)
            self._baby_steps = baby
        giant = self.pow_code(self.xi_code, -m)
        for i in range(m):
            j = self._baby_steps.get(code)
            if j is not None:
                return i * m + j
            code = self.mul_code(code, giant)
        raise AssertionError("xi does not generate the multiplicative group")


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
        if isinstance(other, numbers.Integral):
            return int(other) % self.ctx.p
        return None

    def __add__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.add_code(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.sub_code(self.code, c))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.sub_code(c, self.code))

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.neg_code(self.code))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.mul_code(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.mul_code(self.code, self.ctx.inv_code(c)))

    def __rtruediv__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.mul_code(c, self.ctx.inv_code(self.code)))

    def __pow__(self, e: int):
        return FieldElem(self.ctx, self.ctx.pow_code(self.code, int(e)))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.ctx == other.ctx and self.code == other.code
        if isinstance(other, numbers.Integral):
            return self.code == int(other) % self.ctx.p
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.q, self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"FieldElem(GF({self.ctx.q}), {list(self.coeffs)})"


def _least_primitive(ctx: FieldCtx) -> int:
    """Code of the lexicographically least element of order exactly q - 1."""
    p, k, q = ctx.p, ctx.k, ctx.q
    mod_low = ctx.modulus[:k]
    one = [1] + [0] * (k - 1)
    checks = [(q - 1) // r for r in _prime_factors(q - 1)]

    def power(a: list[int], e: int) -> list[int]:
        out = one
        for bit in bin(e)[2:]:  # square-and-multiply, high bit first
            out = _poly_mulmod(out, out, mod_low, p, k)
            if bit == "1":
                out = _poly_mulmod(out, a, mod_low, p, k)
        return out

    # With c0 as its leading base-p digit, m walks the tuples in lexicographic order.
    for m in range(1, q):
        coeffs = ctx.code_to_coeffs(m)[::-1]
        if all(power(list(coeffs), e) != one for e in checks):
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

    Raises ValueError if p is not prime, k < 1, or p**k exceeds DEFAULT_FIELD_CAP.
    Validation runs before the cache so the outcome never depends on
    which fields were built earlier.
    """
    if not isinstance(p, int) or not isinstance(k, int):
        raise ValueError("p and k must be integers")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if k < 1:
        raise ValueError(f"extension degree k = {k} must be at least 1")
    check_field_size(p**k)
    return _field_create_cached(p, k)


def frobenius(a: FieldElem, q0: int | None = None) -> FieldElem:
    """The conjugation x -> x**q0 on a quadratic extension GF(q0^2).

    With q0 omitted it is inferred from the field.  Applying it twice gives
    the identity, and it fixes exactly the subfield GF(q0).
    """
    ctx = a.ctx
    want = ctx.subfield_order()
    if q0 is not None and q0 != want:
        raise ValueError(f"GF({ctx.q}) is not a quadratic extension of GF({q0})")
    return FieldElem(ctx, ctx.frobenius_code(a.code))


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
