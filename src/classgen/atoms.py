"""Elementary matrices and monomial building blocks for the generator pairs.

Indices are 1-based throughout, matching the usual tables for these groups.
Monomial matrices follow the column convention: the matrix of a permutation
sigma has its nonzero entry for column j at row sigma(j).

Dual indices pair coordinate i with a mirrored coordinate i':
  SP      (degree 2n):     i' = 2n - i + 1
  U_EVEN  (degree 2n):     i' = 2n + 1 - i
  U_ODD   (degree 2n + 1): i' = 2n + 2 - i   (n + 1 is self-dual)
"""

from __future__ import annotations

import enum

from classgen.gf import FieldCtx, FieldElem, frobenius
from classgen.matrix import Mat, _identity_codes


class DualKind(enum.Enum):
    SP = "sp"
    U_EVEN = "u_even"
    U_ODD = "u_odd"


def dual_index(i: int, kind: DualKind, n: int) -> int:
    """The index paired with i; an involution on the legal index range."""
    if n < 1:
        raise ValueError(f"n = {n} must be at least 1")
    dim = 2 * n + 1 if kind is DualKind.U_ODD else 2 * n
    if not 1 <= i <= dim:
        raise ValueError(f"index {i} out of range [1, {dim}]")
    if kind is DualKind.U_ODD:
        return 2 * n + 2 - i
    return 2 * n + 1 - i


def _scalar(ctx: FieldCtx, alpha) -> FieldElem:
    return ctx.elem(alpha)


def _check_index(i: int, deg: int, what: str = "index") -> None:
    if not 1 <= i <= deg:
        raise ValueError(f"{what} {i} out of range [1, {deg}]")


def elem_x(ctx: FieldCtx, i: int, j: int, alpha, deg: int) -> Mat:
    """x_ij(alpha) = I + alpha * E_ij, the elementary transvection."""
    _check_index(i, deg)
    _check_index(j, deg)
    if i == j:
        raise ValueError("x_ij needs distinct indices i and j")
    a = _scalar(ctx, alpha)
    codes = _identity_codes(deg)
    codes[i - 1][j - 1] = a.code
    return Mat(ctx, codes)


def elem_h(ctx: FieldCtx, i: int, alpha, deg: int) -> Mat:
    """h_i(alpha): identity with alpha at diagonal position i; alpha nonzero."""
    _check_index(i, deg)
    a = _scalar(ctx, alpha)
    if not a:
        raise ValueError("h_i needs a nonzero scalar")
    codes = _identity_codes(deg)
    codes[i - 1][i - 1] = a.code
    return Mat(ctx, codes)


def _monomial_from_cycle(ctx: FieldCtx, cycle: list[int], deg: int) -> list[list[int]]:
    """Codes of the permutation matrix of one cycle on 1..deg (column convention)."""
    sigma = list(range(deg + 1))
    m = len(cycle)
    for t, a in enumerate(cycle):
        sigma[a] = cycle[(t + 1) % m]
    codes = [[0] * deg for _ in range(deg)]
    for j in range(1, deg + 1):
        codes[sigma[j] - 1][j - 1] = 1
    return codes


def transposition_w(ctx: FieldCtx, i: int, deg: int) -> Mat:
    """w_i: the (i, i+1) transposition matrix with -1 at position (i+1, i)."""
    if not 1 <= i <= deg - 1:
        raise ValueError(f"transposition index {i} out of range [1, {deg - 1}]")
    codes = _monomial_from_cycle(ctx, [i, i + 1], deg)
    codes[i][i - 1] = ctx.neg_code(1)
    return Mat(ctx, codes)


def cycle_w(ctx: FieldCtx, deg: int) -> Mat:
    """w = w_1 w_2 ... w_{deg-1}: entry (1, deg) is 1, entries (i+1, i) are -1."""
    if deg < 2:
        raise ValueError(f"degree {deg} must be at least 2")
    codes = [[0] * deg for _ in range(deg)]
    codes[0][deg - 1] = 1
    neg_one = ctx.neg_code(1)
    for i in range(1, deg):
        codes[i][i - 1] = neg_one
    return Mat(ctx, codes)


# -- symplectic blocks (degree 2n) ------------------------------------------

def hat_h(ctx: FieldCtx, i: int, alpha, n: int) -> Mat:
    """hat h_i(alpha) = h_i(alpha) h_{i'}(alpha^-1) on degree 2n, 1 <= i <= n."""
    _check_index(i, n, "hat index")
    a = _scalar(ctx, alpha)
    if not a:
        raise ValueError("hat_h needs a nonzero scalar")
    deg = 2 * n
    ip = dual_index(i, DualKind.SP, n)
    codes = _identity_codes(deg)
    codes[i - 1][i - 1] = a.code
    codes[ip - 1][ip - 1] = (a ** -1).code
    return Mat(ctx, codes)


def hat_x(ctx: FieldCtx, i: int, j: int, alpha, n: int) -> Mat:
    """hat x_ij(alpha) = x_ij(alpha) x_{j'i'}(-alpha) on degree 2n, i != j <= n."""
    _check_index(i, n, "hat index")
    _check_index(j, n, "hat index")
    if i == j:
        raise ValueError("hat_x needs distinct indices i and j")
    a = _scalar(ctx, alpha)
    deg = 2 * n
    ip = dual_index(i, DualKind.SP, n)
    jp = dual_index(j, DualKind.SP, n)
    return elem_x(ctx, i, j, a, deg) * elem_x(ctx, jp, ip, -a, deg)


def hat_z(ctx: FieldCtx, i: int, alpha, n: int) -> Mat:
    """hat z_i(alpha) = x_{i i'}(alpha) on degree 2n, 1 <= i <= n."""
    _check_index(i, n, "hat index")
    return elem_x(ctx, i, dual_index(i, DualKind.SP, n), alpha, 2 * n)


def hat_w(ctx: FieldCtx, n: int) -> Mat:
    """Monomial matrix of the 2n-cycle (1, ..., n, 1', ..., n'), with -1 at (2n, n)."""
    if n < 2:
        raise ValueError(f"n = {n} must be at least 2")
    deg = 2 * n
    cycle = list(range(1, n + 1)) + [dual_index(i, DualKind.SP, n) for i in range(1, n + 1)]
    codes = _monomial_from_cycle(ctx, cycle, deg)
    codes[deg - 1][n - 1] = ctx.neg_code(1)
    return Mat(ctx, codes)


# -- unitary blocks (degree 2n or 2n + 1, field GF(q0^2)) ---------------------

def _unitary_n(deg: int, kind: DualKind) -> int:
    if kind is DualKind.U_EVEN:
        if deg % 2 or deg < 2:
            raise ValueError(f"U_EVEN needs an even degree >= 2, got {deg}")
        return deg // 2
    if kind is DualKind.U_ODD:
        if deg % 2 == 0 or deg < 3:
            raise ValueError(f"U_ODD needs an odd degree >= 3, got {deg}")
        return (deg - 1) // 2
    raise ValueError("unitary blocks need kind U_EVEN or U_ODD")


def tilde_h(ctx: FieldCtx, i: int, alpha, deg: int, kind: DualKind) -> Mat:
    """tilde h_i(alpha) = h_i(alpha) h_{i'}(conj(alpha)^-1).

    At the U_ODD midpoint i = i' the two factors combine into the single
    diagonal entry alpha * conj(alpha)^-1.
    """
    n = _unitary_n(deg, kind)
    _check_index(i, deg, "diagonal index")
    a = _scalar(ctx, alpha)
    if not a:
        raise ValueError("tilde_h needs a nonzero scalar")
    ip = dual_index(i, kind, n)
    abar_inv = frobenius(a) ** -1
    codes = _identity_codes(deg)
    if ip == i:
        codes[i - 1][i - 1] = (a * abar_inv).code
    else:
        codes[i - 1][i - 1] = a.code
        codes[ip - 1][ip - 1] = abar_inv.code
    return Mat(ctx, codes)


def tilde_x(ctx: FieldCtx, i: int, j: int, alpha, deg: int, kind: DualKind) -> Mat:
    """tilde x_ij(alpha) = x_ij(alpha) x_{j'i'}(-conj(alpha)), i != j <= n."""
    n = _unitary_n(deg, kind)
    _check_index(i, n, "tilde index")
    _check_index(j, n, "tilde index")
    if i == j:
        raise ValueError("tilde_x needs distinct indices i and j")
    a = _scalar(ctx, alpha)
    ip = dual_index(i, kind, n)
    jp = dual_index(j, kind, n)
    return elem_x(ctx, i, j, a, deg) * elem_x(ctx, jp, ip, -frobenius(a), deg)


def tilde_w(ctx: FieldCtx, n: int, eta) -> Mat:
    """Monomial matrix of (1, ..., n, 1', ..., n') on degree 2n with entry eta
    at (1, n+1) and -eta^-1 at (2n, n); eta must satisfy eta + conj(eta) = 0."""
    if n < 2:
        raise ValueError(f"n = {n} must be at least 2")
    e = _scalar(ctx, eta)
    if not e:
        raise ValueError("eta must be nonzero")
    if e + frobenius(e) != ctx.zero:
        raise ValueError("eta must satisfy eta + conj(eta) = 0")
    deg = 2 * n
    cycle = list(range(1, n + 1)) + [dual_index(i, DualKind.U_EVEN, n) for i in range(1, n + 1)]
    codes = _monomial_from_cycle(ctx, cycle, deg)
    codes[0][n] = e.code
    codes[deg - 1][n - 1] = (-(e ** -1)).code
    return Mat(ctx, codes)


def q_block(ctx: FieldCtx, alpha, beta, deg: int) -> Mat:
    """Q(alpha, beta): identity of odd degree 2n+1 whose central 3 x 3 block is
    [[1, alpha, beta], [0, 1, -conj(alpha)], [0, 0, 1]].

    Requires alpha*conj(alpha) + beta + conj(beta) = 0.
    """
    if deg % 2 == 0 or deg < 3:
        raise ValueError(f"Q needs an odd degree >= 3, got {deg}")
    a = _scalar(ctx, alpha)
    b = _scalar(ctx, beta)
    if a * frobenius(a) + b + frobenius(b) != ctx.zero:
        raise ValueError("Q(alpha, beta) requires alpha*conj(alpha) + beta + conj(beta) = 0")
    n = (deg - 1) // 2
    codes = _identity_codes(deg)
    codes[n - 1][n] = a.code
    codes[n - 1][n + 1] = b.code
    codes[n][n + 1] = (-frobenius(a)).code
    return Mat(ctx, codes)


def w_prime(ctx: FieldCtx, n: int) -> Mat:
    """Monomial matrix of the 2n-cycle (n', ..., 1', n, ..., 1) on degree 2n+1,
    with -1 at the fixed central position (n+1, n+1)."""
    if n < 1:
        raise ValueError(f"n = {n} must be at least 1")
    deg = 2 * n + 1
    cycle = [dual_index(i, DualKind.U_ODD, n) for i in range(n, 0, -1)]
    cycle += list(range(n, 0, -1))
    codes = _monomial_from_cycle(ctx, cycle, deg)
    codes[n][n] = ctx.neg_code(1)
    return Mat(ctx, codes)
