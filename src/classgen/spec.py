"""Group parameters: family names, the validated (family, degree, q) spec,
its case label and its exact order.

This module is pure integer code and imports no numpy, so the command line
can refuse parameters and print orders without loading the matrix modules.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass

MAX_Q = 2**40
DEFAULT_CAP = 2_000_000
DEFAULT_FIELD_CAP = 2**20
ROW_CODE_LIMIT = 2**20


class UnsupportedParametersError(ValueError):
    """Raised for parameters outside the covered cases."""


class Family(enum.Enum):
    GL = "gl"
    SL = "sl"
    SP = "sp"
    GU = "gu"
    SU = "su"


_LONG_NAMES = {
    "general linear": Family.GL,
    "special linear": Family.SL,
    "symplectic": Family.SP,
    "general unitary": Family.GU,
    "special unitary": Family.SU,
}


def parse_family(name: str) -> Family:
    """Accepts short names (gl, sl, sp, gu, su) and long names, case-insensitive;
    long names may use spaces or underscores."""
    key = name.strip().lower().replace("_", " ")
    for fam in Family:
        if key == fam.value:
            return fam
    if key in _LONG_NAMES:
        return _LONG_NAMES[key]
    raise ValueError(f"unknown family {name!r}; use gl, sl, sp, gu, su or the long names")


def _as_int(x) -> int | None:
    """x as a Python int if it is an integer type (not a float), else None."""
    try:
        return operator.index(x)
    except TypeError:
        return None


@dataclass(frozen=True)
class GroupSpec:
    family: Family
    degree: int
    q: int

    def __post_init__(self):
        if not isinstance(self.family, Family):
            raise ValueError("family must be a Family value")
        # Store Python ints: a numpy integer would overflow in theoretical_order,
        # and a float would turn the exact order into a float.
        degree, q = _as_int(self.degree), _as_int(self.q)
        if degree is None or degree < 1:
            raise ValueError(f"degree must be a positive integer, got {self.degree}")
        if q is None or q < 2:
            raise ValueError(f"q must be an integer >= 2, got {self.q}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "q", q)
        if self.q > MAX_Q:
            # Factoring q by trial division takes about 0.1 s at this bound.
            raise ValueError(f"q = {self.q} exceeds the limit 2**40")


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


def check_row_code_limit(q: int, n: int) -> None:
    """Refuse a closure over GF(q) at degree n: its row tables need q**n <= 2**20."""
    # q >= 2, so any n > 20 exceeds the limit; the min keeps q**n small.
    if q**min(n, 21) > ROW_CODE_LIMIT:
        raise ValueError(f"closure needs q**n <= 2**20 (row-code table limit); "
                         f"GF({q}) at degree {n} exceeds it")


def field_order(spec: GroupSpec) -> int:
    """The size of the field the matrices of spec live over: q, or q**2 for gu/su."""
    return spec.q**2 if spec.family in (Family.GU, Family.SU) else spec.q


def check_field_size(q: int) -> None:
    """Refuse a field of q > DEFAULT_FIELD_CAP elements."""
    if q > DEFAULT_FIELD_CAP:
        raise ValueError(f"field cardinality {q} exceeds the cap {DEFAULT_FIELD_CAP}")


def check_field_limit(spec: GroupSpec) -> None:
    """Refuse uncovered parameters (UnsupportedParametersError), then a field
    past DEFAULT_FIELD_CAP."""
    case_label(spec)
    check_field_size(field_order(spec))


def check_closure_limit(spec: GroupSpec) -> None:
    """Refuse uncovered parameters (UnsupportedParametersError), then a closure
    past the row-code limit over the field of spec."""
    case_label(spec)
    check_row_code_limit(field_order(spec), spec.degree)


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
    if fam is Family.GL:
        factors = [q**i - 1 for i in range(1, deg + 1)]
    elif fam is Family.SL:
        factors = [q**i - 1 for i in range(2, deg + 1)]
    elif fam is Family.GU:
        factors = [q**i - (-1)**i for i in range(1, deg + 1)]
    elif fam is Family.SU:
        factors = [q**i - (-1)**i for i in range(2, deg + 1)]
    else:
        raise AssertionError(f"unhandled family {fam}")
    return q**(deg * (deg - 1) // 2) * _product(factors)
