"""Group parameters: family names, the validated (family, degree, q) spec,
its case label and its exact order.

This module is pure integer code and imports no numpy, so the command line
can refuse parameters and print orders without loading the matrix modules.
"""

from __future__ import annotations

import collections
import enum
import functools
import operator

MAX_Q = 2**40
DEFAULT_CAP = 2_000_000
DEFAULT_FIELD_CAP = 2**20
# Limits on degree**2 * bit_length of the field size for the gens and order
# commands; see check_gens_limit and check_order_limit.  In cold runs at the
# limits on a 2-vCPU Xeon VM the slowest took 0.34 s and 24 MB (gens of
# Sp(512,2) --emit-form or GL(512,3); README Limits gives each format) and
# 3.6 s and 24 MB (order of GL(1672,5)).
GENS_SIZE_LIMIT = 2**19
ORDER_SIZE_LIMIT = 2**23


class UnsupportedParametersError(ValueError):
    """Raised for parameters outside the covered cases."""


class Family(enum.Enum):
    GL = "gl"
    SL = "sl"
    SP = "sp"
    GU = "gu"
    SU = "su"


_NAMES = {
    **{fam.value: fam for fam in Family},
    "general linear": Family.GL,
    "special linear": Family.SL,
    "symplectic": Family.SP,
    "general unitary": Family.GU,
    "special unitary": Family.SU,
}


def parse_family(name: str) -> Family:
    """Accepts short names (gl, sl, sp, gu, su) and long names, case-insensitive;
    long names may use spaces or underscores."""
    family = _NAMES.get(name.strip().lower().replace("_", " "))
    if family is not None:
        return family
    raise ValueError(f"unknown family {name!r}; use gl, sl, sp, gu, su or the long names")


def _as_int(x) -> int | None:
    """x as a Python int if it is an integer type (not a float), else None."""
    try:
        return operator.index(x)
    except TypeError:
        return None


class GroupSpec(collections.namedtuple("_SpecFields", "family degree q")):
    """A validated (family, degree, q): an immutable named tuple."""

    __slots__ = ()

    def __new__(cls, family: Family, degree: int, q: int):
        if not isinstance(family, Family):
            raise ValueError("family must be a Family value")
        # Store Python ints: a numpy integer would overflow in theoretical_order,
        # and a float would turn the exact order into a float.
        degree_int, q_int = _as_int(degree), _as_int(q)
        if degree_int is None or degree_int < 1:
            raise ValueError(f"degree must be a positive integer, got {degree}")
        if q_int is None or q_int < 2:
            raise ValueError(f"q must be an integer >= 2, got {q}")
        if q_int > MAX_Q:
            # Factoring q by trial division takes about 0.1 s at this bound.
            raise ValueError(f"q = {q_int} exceeds the limit 2**40")
        return super().__new__(cls, family, degree_int, q_int)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; validate there too.
        return cls(*iterable)


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 in increasing order, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# One command checks the same q up to three times (the command line's early
# case_label, the builder's case_label and field_for), and trial division
# takes about 0.08 s near MAX_Q.
@functools.lru_cache(maxsize=16)
def _prime_power(q: int) -> tuple[int, int] | None:
    factors = _prime_factors(q)
    if len(factors) != 1:
        return None
    p, k = factors[0], 0
    while q > 1:
        q //= p
        k += 1
    return p, k


def case_label(spec: GroupSpec) -> str:
    """The dispatch label for a spec; raises UnsupportedParametersError off the map."""
    fam, deg, q = spec.family, spec.degree, spec.q
    if _prime_power(q) is None:
        raise UnsupportedParametersError(
            f"q = {q} is not a prime power; the nearest covered q are prime powers")
    if deg < 2:
        raise UnsupportedParametersError(
            f"degree {deg} is not covered; the smallest covered degree is 2 "
            f"(3 for the unitary families)")
    if fam is Family.GL:
        return "GL(n,2) = SL(n,2)" if q == 2 else "GL, q > 2"
    if fam is Family.SL:
        return "SL, q in {2,3}" if q <= 3 else "SL, q > 3"
    if fam is Family.SP:
        if deg % 2:
            raise UnsupportedParametersError(
                f"Sp needs an even degree; degree {deg} is not covered "
                f"(nearest: Sp({deg - 1},{q}) or Sp({deg + 1},{q}))")
        if deg == 2:
            return "Sp(2,q) = SL(2,q)"
        n = deg // 2
        if q % 2:
            return "Sp, q odd, n > 1"
        if q == 2:
            return "Sp(4,2)" if n == 2 else "Sp(2n,2), n > 2"
        return "Sp, q even, q != 2, n > 1"
    if fam in (Family.GU, Family.SU):
        u = "U" if fam is Family.GU else "SU"
        if deg == 2:
            raise UnsupportedParametersError(
                f"{u}(2,q) has no covered pair; the nearest covered cases are "
                f"{u}(3,q) and {u}(4,q)")
        if deg % 2 == 0:
            return f"{u}(2n,q), n > 1"
        if fam is Family.SU:
            if deg == 3 and q == 2:
                return "SU(3,2)"
            return "SU(2n+1,q), n != 1 or q != 2"
        return "U(2n+1,q)"
    raise AssertionError(f"unhandled family {fam}")


def field_order(spec: GroupSpec) -> int:
    """The size of the field the matrices of spec live over: q, or q**2 for gu/su."""
    return spec.q**2 if spec.family in (Family.GU, Family.SU) else spec.q


def check_field_size(q: int) -> None:
    """Refuse a field of q > DEFAULT_FIELD_CAP elements."""
    if q > DEFAULT_FIELD_CAP:
        raise ValueError(f"field cardinality {q} exceeds the cap {DEFAULT_FIELD_CAP}")


def _check_size(spec: GroupSpec, field_size: int, limit: int, what: str) -> None:
    case_label(spec)
    size = spec.degree**2 * field_size.bit_length()
    if size > limit:
        raise ValueError(f"{what} size limit: degree**2 * bit_length({field_size}) <= "
                         f"2**{limit.bit_length() - 1}; degree {spec.degree} gives {size}")


def check_gens_limit(spec: GroupSpec) -> None:
    """Refuse uncovered parameters, then generators past GENS_SIZE_LIMIT.

    degree**2 * bit_length(Q), Q = field_order(spec), bounds the bits of the
    entry codes of one matrix that gens prints.
    """
    _check_size(spec, field_order(spec), GENS_SIZE_LIMIT, "gens")


def check_order_limit(spec: GroupSpec) -> None:
    """Refuse uncovered parameters, then an order past ORDER_SIZE_LIMIT.

    degree**2 * bit_length(q) is about the bit length of the order, which
    is below 2 * q**(degree**2).
    """
    _check_size(spec, spec.q, ORDER_SIZE_LIMIT, "order")


def _product(factors: list[int]) -> int:
    """The product of factors, multiplied pairwise as a balanced tree.

    Left to right, each step multiplies the whole running product again,
    which is quadratic in its size; pairing keeps the operands of every
    multiplication about the same size.
    """
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


def theoretical_order(spec: GroupSpec) -> int:
    """Exact order of the group named by spec, as a Python integer.

    From the factored forms: |GL(n,q)| = q^(n(n-1)/2) (q - 1)(q^2 - 1)...(q^n - 1)
    and |GU(n,q)| = q^(n(n-1)/2) (q + 1)(q^2 - 1)...(q^n - (-1)^n); SL and SU
    drop the i = 1 factor, and |Sp(2m,q)| = q^(m^2) (q^2 - 1)(q^4 - 1)...(q^2m - 1).
    """
    case_label(spec)  # reject uncovered parameters the same way the builders do
    fam, deg, q = spec.family, spec.degree, spec.q
    if fam is Family.SP:
        m = deg // 2
        return q**(m * m) * _product([q**(2 * i) - 1 for i in range(1, m + 1)])
    s = -1 if fam in (Family.GU, Family.SU) else 1
    start = 2 if fam in (Family.SL, Family.SU) else 1
    return q**(deg * (deg - 1) // 2) * _product([q**i - s**i for i in range(start, deg + 1)])
