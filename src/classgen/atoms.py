"""Elementary matrices and monomial building blocks for the generator pairs.

Indices are 1-based throughout, matching the usual tables for these groups.
Monomial matrices follow the column convention: the matrix of a permutation
sigma has its nonzero entry for column j at row sigma(j).

Dual indices pair coordinate i with a mirrored coordinate i':
  SP      (degree 2n):     i' = 2n - i + 1
  U_EVEN  (degree 2n):     i' = 2n + 1 - i
  U_ODD   (degree 2n + 1): i' = 2n + 2 - i   (n + 1 is self-dual)
so on every degree i' = degree + 1 - i, and SP and U_EVEN pair the same
coordinates.

The symplectic and unitary blocks are one construction, Ree's matrix form of
Steinberg's root elements, twisted by the identity or by the conjugation
conj(x) = x**q0 of GF(q0^2): hat h, hat x and hat w are tilde h, tilde x and
tilde w with the identity twist and eta = 1.  _paired_h, _paired_x and
_paired_w build each pair once from the twisted scalar.
"""

from __future__ import annotations

import enum

from classgen.gf import FieldCtx, FieldElem, frobenius
from classgen.matrix import Mat


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
    return dim + 1 - i


def _check_index(i: int, deg: int, what: str = "index") -> None:
    if not 1 <= i <= deg:
        raise ValueError(f"{what} {i} out of range [1, {deg}]")


def _matrix(ctx: FieldCtx, deg: int, entries: dict, cycle=()) -> Mat:
    """The identity of degree deg, or the permutation matrix of one cycle on
    1..deg (column convention), with the 1-based (row, column): code entries
    set on top."""
    sigma = list(range(deg + 1))
    for a, b in zip(cycle, [*cycle[1:], *cycle[:1]]):
        sigma[a] = b
    codes = [[0] * deg for _ in range(deg)]
    for j in range(1, deg + 1):
        codes[sigma[j] - 1][j - 1] = 1
    for (r, c), code in entries.items():
        codes[r - 1][c - 1] = code
    return Mat(ctx, codes)


def elem_x(ctx: FieldCtx, i: int, j: int, alpha, deg: int) -> Mat:
    """x_ij(alpha) = I + alpha * E_ij, the elementary transvection."""
    _check_index(i, deg)
    _check_index(j, deg)
    if i == j:
        raise ValueError("x_ij needs distinct indices i and j")
    return _matrix(ctx, deg, {(i, j): ctx.elem(alpha).code})


def elem_h(ctx: FieldCtx, i: int, alpha, deg: int) -> Mat:
    """h_i(alpha): identity with alpha at diagonal position i; alpha nonzero."""
    _check_index(i, deg)
    a = ctx.elem(alpha)
    if not a:
        raise ValueError("h_i needs a nonzero scalar")
    return _matrix(ctx, deg, {(i, i): a.code})


def transposition_w(ctx: FieldCtx, i: int, deg: int) -> Mat:
    """w_i: the (i, i+1) transposition matrix with -1 at position (i+1, i)."""
    if not 1 <= i <= deg - 1:
        raise ValueError(f"transposition index {i} out of range [1, {deg - 1}]")
    return _matrix(ctx, deg, {(i + 1, i): ctx.neg_code(1)}, [i, i + 1])


def cycle_w(ctx: FieldCtx, deg: int) -> Mat:
    """w = w_1 w_2 ... w_{deg-1}: entry (1, deg) is 1, entries (i+1, i) are -1."""
    if deg < 2:
        raise ValueError(f"degree {deg} must be at least 2")
    neg_one = ctx.neg_code(1)
    return _matrix(ctx, deg, {(i + 1, i): neg_one for i in range(1, deg)},
                   list(range(1, deg + 1)))


# -- paired blocks: symplectic (degree 2n) and unitary (degree 2n or 2n + 1) --

def _paired_h(ctx: FieldCtx, deg: int, i: int, a: FieldElem, twisted_inv: FieldElem) -> Mat:
    """h_i(a) h_{i'}(twisted_inv); at a self-dual i = i' the two factors combine
    into the single diagonal entry a * twisted_inv."""
    ip = deg + 1 - i
    if ip == i:
        return _matrix(ctx, deg, {(i, i): (a * twisted_inv).code})
    return _matrix(ctx, deg, {(i, i): a.code, (ip, ip): twisted_inv.code})


def _paired_x(ctx: FieldCtx, deg: int, i: int, j: int, a: FieldElem, twisted: FieldElem) -> Mat:
    """x_ij(a) x_{j'i'}(-twisted) for distinct i, j <= n: since j != j' the
    product of the two transvections is I + a E_ij - twisted E_{j'i'}."""
    return _matrix(ctx, deg, {(i, j): a.code, (deg + 1 - j, deg + 1 - i): (-twisted).code})


def _paired_w(ctx: FieldCtx, n: int, eta: int, neg_eta_inv: int) -> Mat:
    """Monomial matrix of the 2n-cycle (1, ..., n, 1', ..., n') on degree 2n with
    code eta at (1, n+1) and code neg_eta_inv at (2n, n)."""
    cycle = [*range(1, n + 1), *(2 * n + 1 - i for i in range(1, n + 1))]
    return _matrix(ctx, 2 * n, {(1, n + 1): eta, (2 * n, n): neg_eta_inv}, cycle)


def hat_h(ctx: FieldCtx, i: int, alpha, n: int) -> Mat:
    """hat h_i(alpha) = h_i(alpha) h_{i'}(alpha^-1) on degree 2n, 1 <= i <= n."""
    _check_index(i, n, "hat index")
    a = ctx.elem(alpha)
    if not a:
        raise ValueError("hat_h needs a nonzero scalar")
    return _paired_h(ctx, 2 * n, i, a, a ** -1)


def hat_x(ctx: FieldCtx, i: int, j: int, alpha, n: int) -> Mat:
    """hat x_ij(alpha) = x_ij(alpha) x_{j'i'}(-alpha) on degree 2n, i != j <= n."""
    _check_index(i, n, "hat index")
    _check_index(j, n, "hat index")
    if i == j:
        raise ValueError("hat_x needs distinct indices i and j")
    a = ctx.elem(alpha)
    return _paired_x(ctx, 2 * n, i, j, a, a)


def hat_z(ctx: FieldCtx, i: int, alpha, n: int) -> Mat:
    """hat z_i(alpha) = x_{i i'}(alpha) on degree 2n, 1 <= i <= n."""
    _check_index(i, n, "hat index")
    return elem_x(ctx, i, dual_index(i, DualKind.SP, n), alpha, 2 * n)


def hat_w(ctx: FieldCtx, n: int) -> Mat:
    """Monomial matrix of the 2n-cycle (1, ..., n, 1', ..., n'), with -1 at (2n, n)."""
    if n < 2:
        raise ValueError(f"n = {n} must be at least 2")
    return _paired_w(ctx, n, 1, ctx.neg_code(1))


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
    _unitary_n(deg, kind)
    _check_index(i, deg, "diagonal index")
    a = ctx.elem(alpha)
    if not a:
        raise ValueError("tilde_h needs a nonzero scalar")
    return _paired_h(ctx, deg, i, a, frobenius(a) ** -1)


def tilde_x(ctx: FieldCtx, i: int, j: int, alpha, deg: int, kind: DualKind) -> Mat:
    """tilde x_ij(alpha) = x_ij(alpha) x_{j'i'}(-conj(alpha)), i != j <= n."""
    n = _unitary_n(deg, kind)
    _check_index(i, n, "tilde index")
    _check_index(j, n, "tilde index")
    if i == j:
        raise ValueError("tilde_x needs distinct indices i and j")
    a = ctx.elem(alpha)
    return _paired_x(ctx, deg, i, j, a, frobenius(a))


def tilde_w(ctx: FieldCtx, n: int, eta) -> Mat:
    """Monomial matrix of (1, ..., n, 1', ..., n') on degree 2n with entry eta
    at (1, n+1) and -eta^-1 at (2n, n); eta must satisfy eta + conj(eta) = 0."""
    if n < 2:
        raise ValueError(f"n = {n} must be at least 2")
    e = ctx.elem(eta)
    if not e:
        raise ValueError("eta must be nonzero")
    if e + frobenius(e) != ctx.zero:
        raise ValueError("eta must satisfy eta + conj(eta) = 0")
    return _paired_w(ctx, n, e.code, (-(e ** -1)).code)


def q_block(ctx: FieldCtx, alpha, beta, deg: int) -> Mat:
    """Q(alpha, beta): identity of odd degree 2n+1 whose central 3 x 3 block is
    [[1, alpha, beta], [0, 1, -conj(alpha)], [0, 0, 1]].

    Requires alpha*conj(alpha) + beta + conj(beta) = 0.
    """
    if deg % 2 == 0 or deg < 3:
        raise ValueError(f"Q needs an odd degree >= 3, got {deg}")
    a = ctx.elem(alpha)
    b = ctx.elem(beta)
    if a * frobenius(a) + b + frobenius(b) != ctx.zero:
        raise ValueError("Q(alpha, beta) requires alpha*conj(alpha) + beta + conj(beta) = 0")
    n = (deg - 1) // 2
    return _matrix(ctx, deg, {(n, n + 1): a.code, (n, n + 2): b.code,
                              (n + 1, n + 2): (-frobenius(a)).code})


def w_prime(ctx: FieldCtx, n: int) -> Mat:
    """Monomial matrix of the 2n-cycle (n', ..., 1', n, ..., 1) on degree 2n+1,
    with -1 at the fixed central position (n+1, n+1)."""
    if n < 1:
        raise ValueError(f"n = {n} must be at least 1")
    cycle = [2 * n + 2 - i for i in range(n, 0, -1)] + list(range(n, 0, -1))
    return _matrix(ctx, 2 * n + 1, {(n + 1, n + 1): ctx.neg_code(1)}, cycle)
