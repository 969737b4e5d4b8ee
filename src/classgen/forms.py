"""Gram matrices of the preserved forms, preservation checks, special scalars.

The symplectic form on even dimension d has the antidiagonal Gram matrix
with +1 in rows 1..d/2 and -1 in rows d/2+1..d; a matrix X preserves it when
X^T J X = J.  The unitary form lives over a quadratic extension GF(q0^2),
has the all-ones antidiagonal Gram matrix, and is preserved when
conj(X)^T J X = J.
"""

from __future__ import annotations

import collections
import enum

from classgen.gf import FieldCtx, FieldElem
from classgen.matrix import Mat


class FormKind(enum.Enum):
    SYMPLECTIC = "symplectic"
    UNITARY = "unitary"


# j is the dim x dim Gram Mat of the form of the given FormKind.
GramForm = collections.namedtuple("GramForm", "kind dim j")


def gram(ctx: FieldCtx, kind: FormKind, dim: int) -> GramForm:
    """The Gram matrix of the standard form of the given kind and dimension."""
    if dim < 2:
        raise ValueError(f"form dimension {dim} must be at least 2")
    codes = [[0] * dim for _ in range(dim)]
    if kind is FormKind.SYMPLECTIC:
        if dim % 2:
            raise ValueError(f"symplectic forms need an even dimension, got {dim}")
        neg_one = ctx.neg_code(1)
        for r in range(dim):
            codes[r][dim - 1 - r] = 1 if r < dim // 2 else neg_one
    elif kind is FormKind.UNITARY:
        ctx.subfield_order()
        for r in range(dim):
            codes[r][dim - 1 - r] = 1
    else:
        raise ValueError(f"unknown form kind {kind!r}")
    return GramForm(kind, dim, Mat(ctx, codes))


def form_defect(x: Mat, form: GramForm):
    """First entry where x fails to preserve the form, or None if it preserves it.

    Returns (i, j, got, want) with 0-based positions.
    """
    if x.n != form.dim:
        raise ValueError(f"degree mismatch: matrix is {x.n}, form is {form.dim}")
    if x.ctx != form.j.ctx:
        raise ValueError("matrix and form live over different fields")
    left = x.conj_transpose() if form.kind is FormKind.UNITARY else x.transpose()
    got = left * form.j * x
    for i, (got_row, want_row) in enumerate(zip(got.rows(), form.j.rows())):
        for j, (have, want) in enumerate(zip(got_row, want_row)):
            if have != want:
                return (i, j, have, want)
    return None


def preserves(x: Mat, form: GramForm) -> bool:
    """Whether x preserves the form exactly."""
    return form_defect(x, form) is None


def special_scalar_eta(ctx: FieldCtx, q: int) -> FieldElem:
    """eta with eta + conj(eta) = 0: xi**((q+1)/2) for odd q, 1 for even q."""
    _check_quadratic(ctx, q)
    if q % 2:
        return ctx.xi ** ((q + 1) // 2)
    return ctx.one


def special_scalar_beta(ctx: FieldCtx, q: int) -> FieldElem:
    """beta with beta + conj(beta) = -1, namely -(1 + xi**(q-1))^-1.  The inverse
    exists: xi**(q-1) has order q + 1 > 2, so it is not -1 (a hand-built context
    with a non-primitive xi raises ZeroDivisionError here)."""
    _check_quadratic(ctx, q)
    return -((ctx.one + ctx.xi ** (q - 1)) ** -1)


def _check_quadratic(ctx: FieldCtx, q: int) -> None:
    if ctx.subfield_order() != q:
        raise ValueError(f"expected GF({q * q}) for defining field size {q}, got GF({ctx.q})")


def is_special(x: Mat) -> bool:
    """Whether det(x) = 1."""
    return x.det() == x.ctx.one
