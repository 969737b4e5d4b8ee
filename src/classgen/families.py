"""Generator pairs for the classical group families.

Every covered (family, degree, q) gets a labelled case and a concrete pair
of generating matrices.  Linear and symplectic groups live over GF(q);
unitary groups live over GF(q^2) and preserve the unitary form relative to
the conjugation x -> x**q.

Covered cases and their pairs:

  GL(n, q), q > 2:          h_1(xi),                    x_12(1) w
  GL(n, 2):                 the SL(n, 2) pair (the groups coincide)
  SL(n, q), q > 3:          the GL pair, a times h_2(xi^-1)
  SL(n, q), q in {2, 3}:    x_12(1),                    w
  Sp(2, q):                 the SL(2, q) pair (the groups coincide)
  Sp(2n, q), q odd, n > 1:  hat_h_1(xi),                hat_x_12(1) hat_w
  Sp(2n, q), q even > 2,
            n > 1:          hat_h_1(xi) hat_h_n(xi),    hat_x_1n(1) hat_z_1(1) hat_w
  Sp(2n, 2), n > 2:         hat_x_1n(1) hat_z_1(1),     hat_w
  Sp(4, 2):                 an explicit pair
  GU(2n, q), n > 1:         tilde_h_1(xi),              tilde_x_12(1) tilde_w
  GU(2n+1, q), n >= 1:      tilde_h_n(xi),              Q(1, beta) w'
  SU(2n, q), n > 1:         the GU(2n, q) pair, a times tilde_h_2(xi^-1)
  SU(2n+1, q), not (3, 2):  the GU(2n+1, q) pair, a times tilde_h_{n+1}(xi^-1)
  SU(3, 2):                 an explicit pair over GF(4)

The SL and SU pairs are derived: b is the GL or GU pair's b, and a gains the
diagonal generator at the next index with xi^-1, bringing det a to 1.

Degree 1 anywhere, degree 2 for GU/SU, odd degrees for Sp and q not a prime
power are unsupported.
"""

from __future__ import annotations

import collections

from classgen.atoms import (
    DualKind,
    cycle_w,
    elem_h,
    elem_x,
    hat_h,
    hat_w,
    hat_x,
    hat_z,
    q_block,
    tilde_h,
    tilde_w,
    tilde_x,
    w_prime,
)
from classgen.forms import (
    FormKind,
    GramForm,
    gram,
    is_special,
    preserves,
    special_scalar_beta,
    special_scalar_eta,
)
from classgen.gf import FieldCtx, field_create
from classgen.matrix import Mat
# The parameter types live in the numpy-free spec module; importing them here
# keeps classgen.families.GroupSpec and the other old import paths working.
from classgen.spec import (
    Family,
    GroupSpec,
    UnsupportedParametersError,
    _prime_power,
    case_label,
    parse_family,
)


# a and b are Mats over ctx, the field of spec.
GeneratorPair = collections.namedtuple("GeneratorPair", "a b spec ctx case_label")


def field_for(spec: GroupSpec) -> FieldCtx:
    """GF(q) for GL/SL/Sp, GF(q^2) for GU/SU."""
    pk = _prime_power(spec.q)
    if pk is None:
        raise UnsupportedParametersError(f"q = {spec.q} is not a prime power")
    p, k = pk
    if spec.family in (Family.GU, Family.SU):
        return field_create(p, 2 * k)
    return field_create(p, k)


def generator_pair(spec: GroupSpec) -> GeneratorPair:
    """Build the two generators of the covered case for spec."""
    label = case_label(spec)
    ctx = field_for(spec)
    deg, q = spec.degree, spec.q
    xi = ctx.xi
    n = deg // 2
    special = spec.family in (Family.SL, Family.SP, Family.SU)

    if label in ("GL, q > 2", "GL(n,2) = SL(n,2)", "SL, q > 3", "SL, q in {2,3}",
                 "Sp(2,q) = SL(2,q)"):
        if q <= (3 if special else 2):
            a, b = elem_x(ctx, 1, 2, 1, deg), cycle_w(ctx, deg)
        else:
            a = elem_h(ctx, 1, xi, deg)
            b = elem_x(ctx, 1, 2, 1, deg) * cycle_w(ctx, deg)
            if special:
                a = a * elem_h(ctx, 2, xi ** -1, deg)
    elif label == "Sp, q odd, n > 1":
        a = hat_h(ctx, 1, xi, n)
        b = hat_x(ctx, 1, 2, 1, n) * hat_w(ctx, n)
    elif label == "Sp, q even, q != 2, n > 1":
        a = hat_h(ctx, 1, xi, n) * hat_h(ctx, n, xi, n)
        b = hat_x(ctx, 1, n, 1, n) * hat_z(ctx, 1, 1, n) * hat_w(ctx, n)
    elif label == "Sp(2n,2), n > 2":
        a = hat_x(ctx, 1, n, 1, n) * hat_z(ctx, 1, 1, n)
        b = hat_w(ctx, n)
    elif label == "Sp(4,2)":
        a = Mat.from_rows(ctx, [[1, 0, 1, 1], [1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 1, 1]])
        b = Mat.from_rows(ctx, [[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]])
    elif label in ("U(2n,q), n > 1", "SU(2n,q), n > 1", "U(2n+1,q)",
                   "SU(2n+1,q), n != 1 or q != 2"):
        if deg % 2:
            i, kind = n, DualKind.U_ODD
            b = q_block(ctx, 1, special_scalar_beta(ctx, q), deg) * w_prime(ctx, n)
        else:
            i, kind = 1, DualKind.U_EVEN
            b = tilde_x(ctx, 1, 2, 1, deg, kind) * tilde_w(ctx, n, special_scalar_eta(ctx, q))
        a = tilde_h(ctx, i, xi, deg, kind)
        if special:
            a = a * tilde_h(ctx, i + 1, xi ** -1, deg, kind)
    elif label == "SU(3,2)":
        a = Mat.from_rows(ctx, [[1, xi, xi], [0, 1, xi ** 2], [0, 0, 1]])
        b = Mat.from_rows(ctx, [[xi, 1, 1], [1, 1, 0], [1, 0, 0]])
    else:
        raise AssertionError(f"unhandled case label {label!r}")
    return GeneratorPair(a, b, spec, ctx, label)


_FORM_KIND = {Family.SP: FormKind.SYMPLECTIC, Family.GU: FormKind.UNITARY,
              Family.SU: FormKind.UNITARY}


def form_for(spec: GroupSpec, ctx: FieldCtx) -> GramForm | None:
    """The form the groups of spec's family preserve over ctx; None for gl/sl."""
    kind = _FORM_KIND.get(spec.family)
    return None if kind is None else gram(ctx, kind, spec.degree)


def is_member(spec: GroupSpec, m: Mat) -> bool:
    """The membership predicate of spec's family applied to m."""
    if m.n != spec.degree:
        raise ValueError(f"degree mismatch: matrix is {m.n}, spec wants {spec.degree}")
    if spec.family is Family.GL:
        return bool(m.det())
    form = form_for(spec, m.ctx)
    if form is not None and not preserves(m, form):
        return False
    return spec.family not in (Family.SL, Family.SU) or is_special(m)
