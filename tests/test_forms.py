import pytest

from classgen import (
    FieldCtx,
    FormKind,
    Mat,
    cycle_w,
    elem_h,
    elem_x,
    field_create,
    form_defect,
    frobenius,
    gram,
    is_special,
    preserves,
    q_block,
    special_scalar_beta,
    special_scalar_eta,
    w_prime,
)
from classgen.gf import _is_prime

GF2 = field_create(2, 1)
GF3 = field_create(3, 1)
GF4 = field_create(2, 2)
GF5 = field_create(5, 1)
GF9 = field_create(3, 2)

QUADRATIC = [(field_create(2, 2), 2), (field_create(3, 2), 3),
             (field_create(2, 4), 4), (field_create(5, 2), 5),
             (field_create(7, 2), 7), (field_create(2, 6), 8),
             (field_create(3, 4), 9)]
# (GF(q0**2), q0) for every prime power q0 <= 64.
QUADRATIC_TO_64 = [(field_create(p, 2 * k), p**k)
                   for p in range(2, 65) if _is_prime(p) for k in range(1, 7) if p**k <= 64]


def codes(m):
    return [[e.code for e in row] for row in m.rows()]


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def test_symplectic_gram_golden():
    form = gram(GF3, FormKind.SYMPLECTIC, 4)
    assert form.kind is FormKind.SYMPLECTIC and form.dim == 4
    assert codes(form.j) == [
        [0, 0, 0, 1], [0, 0, 1, 0], [0, 2, 0, 0], [2, 0, 0, 0]]


def test_unitary_gram_golden():
    form = gram(GF4, FormKind.UNITARY, 3)
    assert codes(form.j) == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


def test_gram_validation():
    with pytest.raises(ValueError, match="even dimension"):
        gram(GF3, FormKind.SYMPLECTIC, 3)
    with pytest.raises(ValueError, match="at least 2"):
        gram(GF3, FormKind.UNITARY, 1)
    with pytest.raises(ValueError, match="unknown form kind"):
        gram(GF3, "symplectic", 4)


@pytest.mark.parametrize("ctx", [GF2, GF3, GF4, GF5, GF9], ids=lambda c: f"GF{c.q}")
@pytest.mark.parametrize("dim", [2, 4, 6])
def test_symplectic_gram_is_invertible_and_alternating(ctx, dim):
    j = gram(ctx, FormKind.SYMPLECTIC, dim).j
    assert j.det() != ctx.zero
    neg = Mat.from_rows(ctx, [[-e for e in row] for row in j.rows()])
    assert j.transpose() == neg


@pytest.mark.parametrize("ctx", [GF4, GF9], ids=lambda c: f"GF{c.q}")
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_unitary_gram_is_invertible_and_hermitian(ctx, dim):
    j = gram(ctx, FormKind.UNITARY, dim).j
    assert j.det() != ctx.zero
    assert j.conj_transpose() == j


# ---------------------------------------------------------------------------
# preserves / form_defect
# ---------------------------------------------------------------------------

def test_preserves_symplectic_examples():
    form = gram(GF3, FormKind.SYMPLECTIC, 2)
    assert preserves(cycle_w(GF3, 2), form)
    assert preserves(elem_x(GF3, 1, 2, 1, 2), form)
    assert preserves(Mat.identity(GF3, 2), form)
    assert not preserves(elem_h(GF3, 1, GF3.xi, 2), form)


def test_preserves_unitary_examples():
    form = gram(GF4, FormKind.UNITARY, 3)
    assert preserves(Mat.identity(GF4, 3), form)
    assert preserves(w_prime(GF4, 1), form)
    beta = special_scalar_beta(GF4, 2)
    assert preserves(q_block(GF4, 1, beta, 3), form)
    assert not preserves(elem_h(GF4, 1, GF4.xi, 3), form)


def test_form_defect_pinpoints_a_violation():
    form = gram(GF3, FormKind.SYMPLECTIC, 4)
    good = Mat.identity(GF3, 4)
    assert form_defect(good, form) is None
    bad = elem_h(GF3, 1, GF3.xi, 4)
    defect = form_defect(bad, form)
    assert defect is not None
    i, j, got, want = defect
    assert (i, j) == (0, 3)
    assert got == GF3.xi and want == GF3.one


def test_preserves_validates_inputs():
    form = gram(GF3, FormKind.SYMPLECTIC, 4)
    with pytest.raises(ValueError, match="degree mismatch"):
        preserves(Mat.identity(GF3, 3), form)
    with pytest.raises(ValueError, match="different fields"):
        preserves(Mat.identity(GF9, 4), form)


# ---------------------------------------------------------------------------
# Distinguished scalars
# ---------------------------------------------------------------------------

def test_eta_goldens():
    assert special_scalar_eta(GF4, 2) == GF4.one
    assert special_scalar_eta(GF9, 3).coeffs == (0, 2)
    assert special_scalar_eta(field_create(5, 2), 5).coeffs == (1, 2)


@pytest.mark.parametrize("ctx,q0", QUADRATIC, ids=lambda v: str(v))
def test_eta_antisymmetric_under_conjugation(ctx, q0):
    eta = special_scalar_eta(ctx, q0)
    assert eta != ctx.zero
    assert eta + frobenius(eta, q0) == ctx.zero


def test_beta_goldens():
    assert special_scalar_beta(GF4, 2) == GF4.xi
    assert special_scalar_beta(field_create(5, 2), 5).coeffs == (1, 3)


@pytest.mark.parametrize("ctx,q0", QUADRATIC_TO_64, ids=lambda v: str(v))
def test_beta_trace_is_minus_one(ctx, q0):
    beta = special_scalar_beta(ctx, q0)
    assert beta + frobenius(beta, q0) == -ctx.one


def test_beta_of_a_non_primitive_xi_raises():
    # xi = t has order 4 in GF(3)[t] / (t^2 + 1), so 1 + xi**(3-1) = 0.
    bad = FieldCtx(3, 2, (1, 0, 1), 3)
    with pytest.raises(ZeroDivisionError):
        special_scalar_beta(bad, 3)


def test_scalars_reject_non_matching_fields():
    with pytest.raises(ValueError, match="expected GF"):
        special_scalar_eta(GF9, 2)
    with pytest.raises(ValueError, match="expected GF"):
        special_scalar_beta(GF4, 3)


# ---------------------------------------------------------------------------
# is_special
# ---------------------------------------------------------------------------

def test_is_special():
    assert is_special(Mat.identity(GF5, 3))
    assert is_special(cycle_w(GF5, 3))
    assert not is_special(elem_h(GF5, 1, GF5.xi, 3))
    assert not is_special(Mat.from_rows(GF5, [[0, 0], [0, 0]]))
