import pytest

from classgen import (
    DualKind,
    FormKind,
    Mat,
    cycle_w,
    dual_index,
    elem_h,
    elem_x,
    field_create,
    frobenius,
    gram,
    hat_h,
    hat_w,
    hat_x,
    hat_z,
    preserves,
    q_block,
    special_scalar_beta,
    special_scalar_eta,
    tilde_h,
    tilde_w,
    tilde_x,
    transposition_w,
    w_prime,
)

GF2 = field_create(2, 1)
GF3 = field_create(3, 1)
GF4 = field_create(2, 2)
GF5 = field_create(5, 1)
GF9 = field_create(3, 2)
GF16 = field_create(2, 4)
GF25 = field_create(5, 2)


def codes(m):
    return [[e.code for e in row] for row in m.rows()]


def valid_q_pairs(ctx, q0):
    """All (alpha, beta) with alpha*conj(alpha) + beta + conj(beta) = 0."""
    out = []
    for alpha in ctx.elements():
        for beta in ctx.elements():
            if alpha * alpha**q0 + beta + beta**q0 == ctx.zero:
                out.append((alpha, beta))
    return out


# ---------------------------------------------------------------------------
# Linear atoms: x_ij, h_i, w_i, w
# ---------------------------------------------------------------------------

def test_elem_x_golden():
    m = elem_x(GF5, 1, 3, GF5.xi, 3)
    assert codes(m) == [[1, 0, 2], [0, 1, 0], [0, 0, 1]]
    assert elem_x(GF5, 2, 1, 3, 3).entry(1, 0).code == 3


def test_elem_x_zero_scalar_is_identity():
    assert elem_x(GF9, 1, 2, 0, 4) == Mat.identity(GF9, 4)


def test_elem_x_rejects_equal_indices_and_bad_range():
    with pytest.raises(ValueError, match="distinct"):
        elem_x(GF3, 2, 2, 1, 3)
    with pytest.raises(ValueError, match="out of range"):
        elem_x(GF3, 0, 2, 1, 3)
    with pytest.raises(ValueError, match="out of range"):
        elem_x(GF3, 1, 4, 1, 3)


def test_elem_h_golden():
    m = elem_h(GF5, 2, GF5.xi, 3)
    assert codes(m) == [[1, 0, 0], [0, 2, 0], [0, 0, 1]]


def test_elem_h_rejects_zero_scalar():
    with pytest.raises(ValueError, match="nonzero"):
        elem_h(GF5, 1, 0, 3)


def test_elem_h_multiplicative_in_the_scalar():
    for a in range(1, 5):
        for b in range(1, 5):
            lhs = elem_h(GF5, 1, a, 3) * elem_h(GF5, 1, b, 3)
            assert lhs == elem_h(GF5, 1, a * b % 5, 3)


def test_transposition_w_golden():
    assert codes(transposition_w(GF3, 1, 3)) == [[0, 1, 0], [2, 0, 0], [0, 0, 1]]
    with pytest.raises(ValueError, match="out of range"):
        transposition_w(GF3, 3, 3)


def test_cycle_w_golden():
    assert codes(cycle_w(GF3, 3)) == [[0, 0, 1], [2, 0, 0], [0, 2, 0]]
    with pytest.raises(ValueError, match="at least 2"):
        cycle_w(GF3, 1)


@pytest.mark.parametrize("deg", [2, 3, 4, 5])
def test_cycle_w_is_product_of_transpositions(deg):
    prod = Mat.identity(GF5, deg)
    for i in range(1, deg):
        prod = prod * transposition_w(GF5, i, deg)
    assert prod == cycle_w(GF5, deg)


@pytest.mark.parametrize("ctx", [GF2, GF3, GF4, GF9], ids=lambda c: f"GF{c.q}")
@pytest.mark.parametrize("deg", [2, 3, 4, 5])
def test_monomial_atoms_have_determinant_one(ctx, deg):
    assert cycle_w(ctx, deg).det() == ctx.one
    for i in range(1, deg):
        assert transposition_w(ctx, i, deg).det() == ctx.one


# ---------------------------------------------------------------------------
# Dual indices
# ---------------------------------------------------------------------------

def test_dual_index_goldens():
    assert dual_index(1, DualKind.SP, 2) == 4
    assert dual_index(2, DualKind.SP, 2) == 3
    assert dual_index(1, DualKind.U_EVEN, 3) == 6
    assert dual_index(1, DualKind.U_ODD, 1) == 3
    assert dual_index(2, DualKind.U_ODD, 1) == 2  # midpoint is self-dual


@pytest.mark.parametrize("kind,dim_of", [
    (DualKind.SP, lambda n: 2 * n),
    (DualKind.U_EVEN, lambda n: 2 * n),
    (DualKind.U_ODD, lambda n: 2 * n + 1),
])
def test_dual_index_is_an_involution(kind, dim_of):
    for n in range(1, 6):
        for i in range(1, dim_of(n) + 1):
            assert dual_index(dual_index(i, kind, n), kind, n) == i


def test_dual_index_range_errors():
    with pytest.raises(ValueError, match="out of range"):
        dual_index(5, DualKind.SP, 2)
    with pytest.raises(ValueError, match="at least 1"):
        dual_index(1, DualKind.SP, 0)


# ---------------------------------------------------------------------------
# Symplectic atoms
# ---------------------------------------------------------------------------

def test_hat_h_golden():
    assert codes(hat_h(GF3, 1, GF3.xi, 2)) == [
        [2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]


def test_hat_x_golden():
    assert codes(hat_x(GF3, 1, 2, 1, 2)) == [
        [1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]]


def test_hat_z_golden():
    assert codes(hat_z(GF3, 1, 1, 2)) == [
        [1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_hat_w_golden():
    assert codes(hat_w(GF3, 2)) == [
        [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 2, 0, 0]]
    with pytest.raises(ValueError, match="at least 2"):
        hat_w(GF3, 1)


def test_hat_atom_errors():
    with pytest.raises(ValueError, match="nonzero"):
        hat_h(GF3, 1, 0, 2)
    with pytest.raises(ValueError, match="distinct"):
        hat_x(GF3, 1, 1, 1, 2)
    with pytest.raises(ValueError, match="out of range"):
        hat_z(GF3, 3, 1, 2)


@pytest.mark.parametrize("ctx", [GF2, GF3, GF4, GF5, GF9], ids=lambda c: f"GF{c.q}")
@pytest.mark.parametrize("n", [2, 3])
def test_hat_atoms_preserve_the_symplectic_form(ctx, n):
    form = gram(ctx, FormKind.SYMPLECTIC, 2 * n)
    assert preserves(hat_w(ctx, n), form)
    nonzero = [a for a in ctx.elements() if a]
    for i in range(1, n + 1):
        for a in nonzero:
            assert preserves(hat_h(ctx, i, a, n), form)
            assert preserves(hat_z(ctx, i, a, n), form)
            for j in range(1, n + 1):
                if j != i:
                    assert preserves(hat_x(ctx, i, j, a, n), form)


def test_hat_atoms_have_determinant_one():
    for ctx in (GF3, GF4):
        for n in (2, 3):
            assert hat_w(ctx, n).det() == ctx.one
            assert hat_h(ctx, 1, ctx.xi, n).det() == ctx.one
            assert hat_x(ctx, 1, 2, ctx.xi, n).det() == ctx.one
            assert hat_z(ctx, 1, ctx.xi, n).det() == ctx.one


# ---------------------------------------------------------------------------
# Unitary atoms
# ---------------------------------------------------------------------------

def test_tilde_h_goldens():
    assert codes(tilde_h(GF9, 1, GF9.xi, 4, DualKind.U_EVEN)) == [
        [4, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 8]]
    # midpoint of an odd-degree block picks up alpha * conj(alpha)^-1
    assert codes(tilde_h(GF9, 2, GF9.xi, 3, DualKind.U_ODD)) == [
        [1, 0, 0], [0, 3, 0], [0, 0, 1]]


def test_tilde_x_golden():
    assert codes(tilde_x(GF9, 1, 2, 1, 4, DualKind.U_EVEN)) == [
        [1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]]


def test_tilde_w_golden():
    eta = special_scalar_eta(GF9, 3)
    assert codes(tilde_w(GF9, 2, eta)) == [
        [0, 0, 6, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 6, 0, 0]]


def test_tilde_w_validates_eta():
    with pytest.raises(ValueError, match="nonzero"):
        tilde_w(GF9, 2, 0)
    with pytest.raises(ValueError, match="eta"):
        tilde_w(GF9, 2, GF9.one)  # 1 + conj(1) = 2 != 0


def test_q_block_goldens():
    beta = special_scalar_beta(GF4, 2)
    assert codes(q_block(GF4, 1, beta, 3)) == [[1, 1, 2], [0, 1, 1], [0, 0, 1]]
    assert q_block(GF4, 0, 0, 5) == Mat.identity(GF4, 5)


def test_q_block_validates_the_constraint():
    with pytest.raises(ValueError, match="conj"):
        q_block(GF4, 1, 0, 3)  # 1*1 + 0 + 0 = 1 != 0
    with pytest.raises(ValueError, match="odd degree"):
        q_block(GF4, 0, 0, 4)


def test_w_prime_goldens():
    assert codes(w_prime(GF4, 1)) == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert codes(w_prime(GF4, 2)) == [
        [0, 1, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 1, 0, 0],
        [1, 0, 0, 0, 0], [0, 0, 0, 1, 0]]
    # odd characteristic: the midpoint entry is -1
    assert w_prime(GF9, 2).entry(2, 2) == -GF9.one


def test_tilde_atom_errors():
    with pytest.raises(ValueError, match="^tilde_h needs a nonzero scalar$"):
        tilde_h(GF9, 1, 0, 4, DualKind.U_EVEN)
    with pytest.raises(ValueError, match="^tilde_x needs distinct indices i and j$"):
        tilde_x(GF9, 2, 2, 1, 4, DualKind.U_EVEN)
    with pytest.raises(ValueError, match="^n = 1 must be at least 2$"):
        tilde_w(GF9, 1, special_scalar_eta(GF9, 3))
    with pytest.raises(ValueError, match="^n = 0 must be at least 1$"):
        w_prime(GF4, 0)


@pytest.mark.parametrize("ctx", [GF9, GF16], ids=["GF9", "GF16"])
@pytest.mark.parametrize("n", [2, 3])
def test_hat_atoms_are_the_tilde_atoms_with_the_identity_twist(ctx, n):
    # Conjugation fixes the subfield GF(q0), where hat and tilde scalars
    # agree, and SP and U_EVEN pair the same coordinates.  In characteristic
    # 2, eta = 1 satisfies eta + conj(eta) = 0, so hat w is tilde w at eta = 1.
    deg = 2 * n
    fixed = [a for a in ctx.elements() if a and frobenius(a) == a]
    assert len(fixed) == ctx.subfield_order() - 1
    if ctx.p == 2:
        assert hat_w(ctx, n) == tilde_w(ctx, n, 1)
    for a in fixed:
        for i in range(1, n + 1):
            assert hat_h(ctx, i, a, n) == tilde_h(ctx, i, a, deg, DualKind.U_EVEN)
            for j in range(1, n + 1):
                if j != i:
                    assert hat_x(ctx, i, j, a, n) == tilde_x(ctx, i, j, a, deg,
                                                             DualKind.U_EVEN)


def test_unitary_degree_kind_validation():
    with pytest.raises(ValueError, match="even degree"):
        tilde_h(GF9, 1, GF9.xi, 3, DualKind.U_EVEN)
    with pytest.raises(ValueError, match="odd degree"):
        tilde_h(GF9, 1, GF9.xi, 4, DualKind.U_ODD)
    with pytest.raises(ValueError, match="U_EVEN or U_ODD"):
        tilde_h(GF9, 1, GF9.xi, 4, DualKind.SP)


@pytest.mark.parametrize("ctx,q0", [(GF4, 2), (GF9, 3), (GF25, 5)],
                         ids=["GF4", "GF9", "GF25"])
def test_tilde_atoms_preserve_the_unitary_form_even_degree(ctx, q0):
    for n in (2, 3):
        deg = 2 * n
        form = gram(ctx, FormKind.UNITARY, deg)
        eta = special_scalar_eta(ctx, q0)
        assert preserves(tilde_w(ctx, n, eta), form)
        nonzero = [a for a in ctx.elements() if a]
        for a in nonzero:
            assert preserves(tilde_h(ctx, 1, a, deg, DualKind.U_EVEN), form)
        for a in ctx.elements():
            assert preserves(tilde_x(ctx, 1, 2, a, deg, DualKind.U_EVEN), form)


@pytest.mark.parametrize("ctx,q0", [(GF4, 2), (GF9, 3), (GF25, 5)],
                         ids=["GF4", "GF9", "GF25"])
def test_unitary_atoms_preserve_the_form_odd_degree(ctx, q0):
    for n in (1, 2):
        deg = 2 * n + 1
        form = gram(ctx, FormKind.UNITARY, deg)
        assert preserves(w_prime(ctx, n), form)
        nonzero = [a for a in ctx.elements() if a]
        for a in nonzero:
            assert preserves(tilde_h(ctx, 1, a, deg, DualKind.U_ODD), form)
        for alpha, beta in valid_q_pairs(ctx, q0):
            assert preserves(q_block(ctx, alpha, beta, deg), form)


# ---------------------------------------------------------------------------
# One-parameter subgroup laws: x(a) x(b) = x(a + b)
# ---------------------------------------------------------------------------

def test_one_parameter_law_elem_x():
    for a in GF9.elements():
        for b in GF9.elements():
            assert elem_x(GF9, 1, 3, a, 3) * elem_x(GF9, 1, 3, b, 3) \
                == elem_x(GF9, 1, 3, a + b, 3)


def test_one_parameter_law_hat_atoms():
    for a in GF5.elements():
        for b in GF5.elements():
            assert hat_x(GF5, 1, 2, a, 2) * hat_x(GF5, 1, 2, b, 2) \
                == hat_x(GF5, 1, 2, a + b, 2)
            assert hat_z(GF5, 1, a, 2) * hat_z(GF5, 1, b, 2) \
                == hat_z(GF5, 1, a + b, 2)


def test_one_parameter_law_tilde_x():
    for a in GF9.elements():
        for b in GF9.elements():
            assert tilde_x(GF9, 1, 2, a, 4, DualKind.U_EVEN) \
                * tilde_x(GF9, 1, 2, b, 4, DualKind.U_EVEN) \
                == tilde_x(GF9, 1, 2, a + b, 4, DualKind.U_EVEN)


@pytest.mark.parametrize("ctx,q0", [(GF4, 2), (GF9, 3)], ids=["GF4", "GF9"])
def test_q_block_composition_law(ctx, q0):
    """Q(a, b) Q(a', b') = Q(a + a', b + b' - a * conj(a'))."""
    pairs = valid_q_pairs(ctx, q0)
    for alpha, beta in pairs:
        for alpha2, beta2 in pairs:
            lhs = q_block(ctx, alpha, beta, 3) * q_block(ctx, alpha2, beta2, 3)
            rhs = q_block(ctx, alpha + alpha2,
                          beta + beta2 - alpha * alpha2**q0, 3)
            assert lhs == rhs
