import numpy as np
import pytest

from classgen import (
    Certificate,
    ClosureResult,
    DualKind,
    Family,
    FormKind,
    GeneratorPair,
    GramForm,
    GroupSpec,
    Mat,
    UnsupportedParametersError,
    Verdict,
    case_label,
    elem_h,
    field_for,
    generator_pair,
    is_member,
    parse_family,
    theoretical_order,
    tilde_h,
)
from classgen.spec import check_gens_limit, check_order_limit

# (family, degree, q) -> expected case label; one row per covered regime
LABEL_GRID = [
    (Family.GL, 3, 5, "GL, q > 2"),
    (Family.GL, 2, 4, "GL, q > 2"),
    (Family.GL, 4, 2, "GL(n,2) = SL(n,2)"),
    (Family.SL, 3, 5, "SL, q > 3"),
    (Family.SL, 2, 9, "SL, q > 3"),
    (Family.SL, 3, 2, "SL, q in {2,3}"),
    (Family.SL, 2, 3, "SL, q in {2,3}"),
    (Family.SP, 2, 7, "Sp(2,q) = SL(2,q)"),
    (Family.SP, 4, 3, "Sp, q odd, n > 1"),
    (Family.SP, 6, 5, "Sp, q odd, n > 1"),
    (Family.SP, 4, 4, "Sp, q even, q != 2, n > 1"),
    (Family.SP, 6, 8, "Sp, q even, q != 2, n > 1"),
    (Family.SP, 6, 2, "Sp(2n,2), n > 2"),
    (Family.SP, 8, 2, "Sp(2n,2), n > 2"),
    (Family.SP, 4, 2, "Sp(4,2)"),
    (Family.GU, 4, 3, "U(2n,q), n > 1"),
    (Family.GU, 6, 2, "U(2n,q), n > 1"),
    (Family.GU, 3, 2, "U(2n+1,q)"),
    (Family.GU, 5, 3, "U(2n+1,q)"),
    (Family.SU, 4, 2, "SU(2n,q), n > 1"),
    (Family.SU, 6, 3, "SU(2n,q), n > 1"),
    (Family.SU, 3, 3, "SU(2n+1,q), n != 1 or q != 2"),
    (Family.SU, 5, 2, "SU(2n+1,q), n != 1 or q != 2"),
    (Family.SU, 3, 2, "SU(3,2)"),
]


def codes(m):
    return [[e.code for e in row] for row in m.rows()]


# ---------------------------------------------------------------------------
# Family names and specs
# ---------------------------------------------------------------------------

def test_parse_family_short_names():
    assert parse_family("gl") is Family.GL
    assert parse_family("SU") is Family.SU
    assert parse_family("Sp") is Family.SP


def test_parse_family_long_names():
    assert parse_family("general linear") is Family.GL
    assert parse_family("special_linear") is Family.SL
    assert parse_family("Symplectic") is Family.SP
    assert parse_family("general unitary") is Family.GU
    assert parse_family("SPECIAL UNITARY") is Family.SU


def test_parse_family_unknown():
    with pytest.raises(ValueError, match="unknown family"):
        parse_family("orthogonal")


def test_group_spec_validation():
    with pytest.raises(ValueError, match="positive integer"):
        GroupSpec(Family.GL, 0, 5)
    with pytest.raises(ValueError, match="q must be"):
        GroupSpec(Family.GL, 3, 1)
    with pytest.raises(ValueError, match="Family value"):
        GroupSpec("gl", 3, 5)
    # Floats are refused even when integral: the exact order would become a float.
    with pytest.raises(ValueError, match="q must be"):
        GroupSpec(Family.GL, 3, 9.0)
    with pytest.raises(ValueError, match="positive integer"):
        GroupSpec(Family.SP, 4.0, 3)
    with pytest.raises(ValueError, match="positive integer"):
        GroupSpec(Family.GL, np.float64(3), 5)
    with pytest.raises(ValueError, match="q must be"):
        GroupSpec(Family.GL, 3, "5")
    # numpy integers become Python ints, so the exact order cannot overflow.
    spec = GroupSpec(Family.GL, np.int32(10), np.int64(4))
    assert type(spec.degree) is int and type(spec.q) is int
    assert spec == GroupSpec(Family.GL, 10, 4)
    assert hash(spec) == hash(GroupSpec(Family.GL, 10, 4))
    order = theoretical_order(spec)
    assert type(order) is int
    assert order == theoretical_order(GroupSpec(Family.GL, 10, 4))
    assert 10**60 < order < 2 * 10**60


def test_group_spec_validates_keywords_and_replace():
    spec = GroupSpec(family=Family.GL, degree=np.int64(3), q=np.int32(5))
    assert spec == (Family.GL, 3, 5)
    assert type(spec.degree) is int and type(spec.q) is int
    assert spec._replace(q=np.int64(7)) == GroupSpec(Family.GL, 3, 7)
    assert type(spec._replace(q=np.int64(7)).q) is int
    with pytest.raises(ValueError, match="q must be"):
        spec._replace(q=9.0)
    with pytest.raises(ValueError, match="positive integer"):
        spec._replace(degree=0)
    with pytest.raises(ValueError, match="positive integer"):
        GroupSpec(family=Family.GL, degree=2.0, q=5)
    with pytest.raises(ValueError, match="Family value"):
        spec._replace(family="gl")


def _record_and_variant(kind: str):
    """A record built from keyword arguments, an equal one built separately,
    and one that differs in one field."""
    spec = GroupSpec(family=Family.SP, degree=4, q=3)
    if kind == "GroupSpec":
        return (spec, GroupSpec(family=Family.SP, degree=4, q=3),
                GroupSpec(family=Family.SP, degree=4, q=5))
    if kind == "GeneratorPair":
        pair, twin = generator_pair(spec), generator_pair(GroupSpec(Family.SP, 4, 3))
        record = GeneratorPair(a=pair.a, b=pair.b, spec=spec, ctx=pair.ctx,
                               case_label=pair.case_label)
        return record, twin, record._replace(b=pair.a)
    if kind == "GramForm":
        ctx = field_for(spec)  # GF(3): code 2 is -1
        record = GramForm(kind=FormKind.SYMPLECTIC, dim=2, j=Mat(ctx, [[0, 1], [2, 0]]))
        return (record, GramForm(FormKind.SYMPLECTIC, 2, Mat(ctx, [[0, 1], [2, 0]])),
                record._replace(j=Mat.identity(ctx, 2)))
    result = ClosureResult(size=51840, truncated=False, frontier_rounds=12)
    if kind == "ClosureResult":
        return result, ClosureResult(51840, False, 12), result._replace(truncated=True)
    record = Certificate(spec=spec, membership_ok=True, expected_order=51840,
                         closure=result, verdict=Verdict.PASS)
    return (record, Certificate(spec, True, 51840, ClosureResult(51840, False, 12), Verdict.PASS),
            record._replace(verdict=Verdict.INDETERMINATE))


@pytest.mark.parametrize("kind", ["GroupSpec", "GeneratorPair", "GramForm", "ClosureResult",
                                  "Certificate"])
def test_records_are_immutable_values(kind):
    record, twin, variant = _record_and_variant(kind)
    assert type(record).__name__ == kind
    assert record == twin and hash(record) == hash(twin) and record is not twin
    assert record != variant
    assert type(record)(**record._asdict()) == record
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


# ---------------------------------------------------------------------------
# Case dispatch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,degree,q,label", LABEL_GRID)
def test_case_label_grid(family, degree, q, label):
    assert case_label(GroupSpec(family, degree, q)) == label


def test_case_label_is_deterministic():
    spec = GroupSpec(Family.SP, 6, 4)
    assert case_label(spec) == case_label(GroupSpec(Family.SP, 6, 4))


@pytest.mark.parametrize("family", list(Family))
def test_degree_one_is_not_covered(family):
    with pytest.raises(UnsupportedParametersError, match="degree 1"):
        case_label(GroupSpec(family, 1, 4 if family in (Family.GU, Family.SU) else 5))


def test_odd_symplectic_degree_is_not_covered():
    with pytest.raises(UnsupportedParametersError, match="even degree"):
        case_label(GroupSpec(Family.SP, 3, 3))
    with pytest.raises(UnsupportedParametersError, match="nearest: Sp\\(4,5\\)"):
        case_label(GroupSpec(Family.SP, 5, 5))


def test_degree_two_unitary_is_not_covered():
    with pytest.raises(UnsupportedParametersError, match="U\\(3,q\\)"):
        case_label(GroupSpec(Family.GU, 2, 3))
    with pytest.raises(UnsupportedParametersError, match="SU\\(3,q\\)"):
        case_label(GroupSpec(Family.SU, 2, 3))


@pytest.mark.parametrize("q", [6, 10, 12])
def test_non_prime_power_q_is_not_covered(q):
    with pytest.raises(UnsupportedParametersError, match="prime power"):
        case_label(GroupSpec(Family.GL, 3, q))


def test_q_above_2_power_40_is_refused_before_factoring():
    assert case_label(GroupSpec(Family.GL, 2, 2**40)) == "GL, q > 2"
    assert case_label(GroupSpec(Family.GL, 2, 2**40 - 87)) == "GL, q > 2"  # a prime
    for q in (2**40 + 1, 10**18 + 3):
        with pytest.raises(ValueError, match=r"exceeds the limit 2\*\*40"):
            GroupSpec(Family.GL, 2, q)


HUGE = 10**5000  # 5001 digits, past str()'s limit of 4300


def test_refusals_never_print_an_unbounded_integer():
    with pytest.raises(ValueError, match=r"q = <16610-bit integer> exceeds the limit 2\*\*40"):
        GroupSpec(Family.GL, 2, HUGE)
    with pytest.raises(ValueError, match="got <negative 16610-bit integer>"):
        GroupSpec(Family.GL, -HUGE, 2)
    with pytest.raises(UnsupportedParametersError, match="degree <16610-bit integer> is not"):
        case_label(GroupSpec(Family.SP, HUGE + 1, 2))
    for check in (check_gens_limit, check_order_limit):
        with pytest.raises(ValueError, match="degree <16610-bit integer> gives <33221-bit"):
            check(GroupSpec(Family.GL, HUGE, 2))


# (family, degree, q) just inside the size limit of gens or order: one
# degree more is refused.
GENS_LIMIT_EDGES = [(Family.GL, 512, 2), (Family.GL, 512, 3), (Family.GU, 418, 2),
                    (Family.SU, 158, 1024)]
ORDER_LIMIT_EDGES = [(Family.GL, 2048, 2), (Family.GL, 2048, 3), (Family.GL, 452, 2**40),
                     (Family.GU, 632, 2**20)]


@pytest.mark.parametrize("check,edges,pattern", [
    (check_gens_limit, GENS_LIMIT_EDGES, r"gens size limit: .* <= 2\*\*19"),
    (check_order_limit, ORDER_LIMIT_EDGES, r"order size limit: .* <= 2\*\*23"),
], ids=["gens", "order"])
def test_size_limits_refuse_one_degree_past_the_edge(check, edges, pattern):
    for family, degree, q in edges:
        check(GroupSpec(family, degree, q))
        with pytest.raises(ValueError, match=pattern):
            check(GroupSpec(family, degree + 1, q))


def test_size_limits_accept_the_specs_the_tests_use():
    # The property tests draw degrees below 26, over fields of up to 2**20
    # elements; the command line tests print these orders.
    check_gens_limit(GroupSpec(Family.GL, 25, 2**20))
    check_gens_limit(GroupSpec(Family.SU, 25, 2**10))
    for spec in [(Family.GL, 120, 2), (Family.GL, 100, 9), (Family.SP, 10, 9),
                 (Family.GL, 27, 2**20), (Family.GL, 2000, 2)]:
        check_order_limit(GroupSpec(*spec))


def test_size_limits_refuse_uncovered_parameters_first():
    for check in (check_gens_limit, check_order_limit):
        with pytest.raises(UnsupportedParametersError):
            check(GroupSpec(Family.SP, 10**6 + 1, 3))


def test_unsupported_is_a_value_error():
    assert issubclass(UnsupportedParametersError, ValueError)


# ---------------------------------------------------------------------------
# Defining fields
# ---------------------------------------------------------------------------

def test_field_for_linear_and_symplectic():
    assert field_for(GroupSpec(Family.GL, 3, 9)).q == 9
    assert field_for(GroupSpec(Family.SP, 4, 8)).q == 8


def test_field_for_unitary_is_the_quadratic_extension():
    assert field_for(GroupSpec(Family.GU, 3, 3)).q == 9
    assert field_for(GroupSpec(Family.SU, 4, 4)).q == 16


def test_field_for_rejects_non_prime_power():
    with pytest.raises(UnsupportedParametersError, match="prime power"):
        field_for(GroupSpec(Family.GL, 3, 6))


# ---------------------------------------------------------------------------
# Generator pairs: frozen matrices for one representative of each regime
# ---------------------------------------------------------------------------

def test_pair_gl_q_large():
    pair = generator_pair(GroupSpec(Family.GL, 3, 5))
    assert codes(pair.a) == [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert codes(pair.b) == [[4, 0, 1], [4, 0, 0], [0, 4, 0]]


def test_pair_sl_q_large():
    pair = generator_pair(GroupSpec(Family.SL, 3, 5))
    assert codes(pair.a) == [[2, 0, 0], [0, 3, 0], [0, 0, 1]]
    assert codes(pair.b) == [[4, 0, 1], [4, 0, 0], [0, 4, 0]]


def test_pair_sl_q_small():
    pair = generator_pair(GroupSpec(Family.SL, 2, 3))
    assert codes(pair.a) == [[1, 1], [0, 1]]
    assert codes(pair.b) == [[0, 1], [2, 0]]


def test_pair_sp_odd_q():
    pair = generator_pair(GroupSpec(Family.SP, 4, 3))
    assert codes(pair.a) == [
        [2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]
    assert codes(pair.b) == [
        [1, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 1], [0, 2, 0, 0]]


def test_pair_sp_4_2_fixed_matrices():
    pair = generator_pair(GroupSpec(Family.SP, 4, 2))
    assert codes(pair.a) == [
        [1, 0, 1, 1], [1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 1, 1]]
    assert codes(pair.b) == [
        [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]]


def test_pair_su_3_2_fixed_matrices():
    pair = generator_pair(GroupSpec(Family.SU, 3, 2))
    assert pair.ctx.q == 4
    assert codes(pair.a) == [[1, 2, 2], [0, 1, 3], [0, 0, 1]]
    assert codes(pair.b) == [[2, 1, 1], [1, 1, 0], [1, 0, 0]]


def test_pair_gu_odd_degree():
    pair = generator_pair(GroupSpec(Family.GU, 3, 2))
    assert codes(pair.a) == [[2, 0, 0], [0, 1, 0], [0, 0, 2]]
    assert codes(pair.b) == [[2, 1, 1], [1, 1, 0], [1, 0, 0]]


# ---------------------------------------------------------------------------
# Delegations between regimes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("degree", [2, 3, 4])
def test_gl_over_gf2_delegates_to_sl(degree):
    gl = generator_pair(GroupSpec(Family.GL, degree, 2))
    sl = generator_pair(GroupSpec(Family.SL, degree, 2))
    assert gl.a == sl.a and gl.b == sl.b


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_sp_degree_two_delegates_to_sl(q):
    sp = generator_pair(GroupSpec(Family.SP, 2, q))
    sl = generator_pair(GroupSpec(Family.SL, 2, q))
    assert sp.a == sl.a and sp.b == sl.b


@pytest.mark.parametrize("family,general,degree,q", [
    (Family.SL, Family.GL, 3, 5), (Family.SL, Family.GL, 4, 7), (Family.SL, Family.GL, 2, 9),
    (Family.SP, Family.GL, 2, 7),
    (Family.SU, Family.GU, 3, 3), (Family.SU, Family.GU, 4, 3), (Family.SU, Family.GU, 5, 4),
    (Family.SU, Family.GU, 4, 2),
])
def test_sl_and_gl_share_the_cycle_generator(family, general, degree, q):
    # The special pair is the general one with a times the diagonal generator
    # at the next index, xi^-1 for xi.  SU(3,2) has an explicit pair instead.
    special = generator_pair(GroupSpec(family, degree, q))
    pair = generator_pair(GroupSpec(general, degree, q))
    ctx, xi = pair.ctx, pair.ctx.xi
    if general is Family.GL:
        fix = elem_h(ctx, 2, xi ** -1, degree)
    elif degree % 2:
        fix = tilde_h(ctx, degree // 2 + 1, xi ** -1, degree, DualKind.U_ODD)
    else:
        fix = tilde_h(ctx, 2, xi ** -1, degree, DualKind.U_EVEN)
    assert special.b == pair.b
    assert special.a == pair.a * fix


def test_generator_pair_is_deterministic():
    first = generator_pair(GroupSpec(Family.SU, 4, 3))
    second = generator_pair(GroupSpec(Family.SU, 4, 3))
    assert first.a == second.a and first.b == second.b
    assert first.case_label == second.case_label


def test_generator_pair_reports_its_case():
    spec = GroupSpec(Family.SP, 6, 2)
    pair = generator_pair(spec)
    assert pair.case_label == case_label(spec)
    assert pair.spec == spec
    assert pair.ctx is field_for(spec)


def test_generator_pair_rejects_uncovered_parameters():
    with pytest.raises(UnsupportedParametersError):
        generator_pair(GroupSpec(Family.GU, 2, 5))
    with pytest.raises(UnsupportedParametersError):
        generator_pair(GroupSpec(Family.SP, 6, 6))


# ---------------------------------------------------------------------------
# Membership predicates
# ---------------------------------------------------------------------------

MEMBER_GRID = [(f, d, q) for f, d, q, _ in LABEL_GRID]


@pytest.mark.parametrize("family,degree,q", MEMBER_GRID,
                         ids=[f"{f.value}-{d}-{q}" for f, d, q, _ in LABEL_GRID])
def test_generators_satisfy_their_membership_predicate(family, degree, q):
    spec = GroupSpec(family, degree, q)
    pair = generator_pair(spec)
    assert is_member(spec, pair.a)
    assert is_member(spec, pair.b)


def test_is_member_negatives():
    ctx5 = field_for(GroupSpec(Family.GL, 3, 5))
    zero = Mat.from_rows(ctx5, [[0] * 3] * 3)
    assert not is_member(GroupSpec(Family.GL, 3, 5), zero)
    # determinant xi is invertible but not 1
    assert not is_member(GroupSpec(Family.SL, 3, 5), elem_h(ctx5, 1, ctx5.xi, 3))
    # unitary membership needs the form, not just invertibility
    spec_u = GroupSpec(Family.GU, 3, 2)
    ctx4 = field_for(spec_u)
    assert not is_member(spec_u, elem_h(ctx4, 1, ctx4.xi, 3))
    # special unitary additionally needs determinant 1
    spec_su = GroupSpec(Family.SU, 3, 2)
    gu_only = generator_pair(spec_u).a
    assert is_member(spec_u, gu_only)
    assert not is_member(spec_su, gu_only)


def test_is_member_needs_the_form_for_su_at_determinant_1():
    # SL(3,4)'s generators have det 1 over GF(4), SU(3,2)'s field, so only
    # the unitary form can reject them
    spec_su = GroupSpec(Family.SU, 3, 2)
    spec_sl = GroupSpec(Family.SL, 3, 4)
    assert field_for(spec_sl) == field_for(spec_su)
    pair = generator_pair(spec_sl)
    for g in (pair.a, pair.b):
        assert g.det().code == 1 and is_member(spec_sl, g)
        assert not is_member(spec_su, g)


def test_is_member_rejects_degree_mismatch():
    spec = GroupSpec(Family.GL, 3, 5)
    with pytest.raises(ValueError, match="degree mismatch"):
        is_member(spec, Mat.identity(field_for(spec), 2))


def _gf9_diag_xi_1():
    gf9 = field_for(GroupSpec(Family.GL, 2, 9))
    return elem_h(gf9, 1, gf9.xi, 2)


@pytest.mark.parametrize("spec,matrix", [
    (GroupSpec(Family.GU, 3, 2), lambda: generator_pair(GroupSpec(Family.GU, 3, 4)).a),
    (GroupSpec(Family.SP, 4, 3), lambda: generator_pair(GroupSpec(Family.SP, 4, 9)).a),
    (GroupSpec(Family.GL, 2, 3), _gf9_diag_xi_1),
], ids=["GU(3,4)-a-in-GU(3,2)", "Sp(4,9)-a-in-Sp(4,3)", "diag(xi,1)-over-GF9-in-GL(2,3)"])
def test_is_member_rejects_field_mismatch(spec, matrix):
    # Each matrix would pass the predicate of spec's family; its field is not spec's.
    with pytest.raises(ValueError, match="field mismatch"):
        is_member(spec, matrix())
