"""classgen: two-generator pairs for the classical matrix groups over finite
fields, with exact field arithmetic and brute-force closure certification."""

from classgen.atoms import (
    DualKind,
    cycle_w,
    dual_index,
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
    transposition_w,
    w_prime,
)
from classgen.enumeration import (
    DEFAULT_CAP,
    Certificate,
    ClosureResult,
    Verdict,
    certify,
    closure,
    group_elements,
    theoretical_order,
)
from classgen.families import (
    Family,
    GeneratorPair,
    GroupSpec,
    UnsupportedParametersError,
    case_label,
    field_for,
    generator_pair,
    is_member,
    parse_family,
)
from classgen.forms import (
    FormKind,
    GramForm,
    form_defect,
    gram,
    is_special,
    preserves,
    special_scalar_beta,
    special_scalar_eta,
)
from classgen.gf import (
    DEFAULT_FIELD_CAP,
    FieldCtx,
    FieldElem,
    field_create,
    field_to_json,
    frobenius,
    poly_string,
)
from classgen.matrix import Mat

__version__ = "0.1.0"

__all__ = [
    "Certificate", "ClosureResult", "DEFAULT_CAP", "DEFAULT_FIELD_CAP",
    "DualKind", "Family", "FieldCtx", "FieldElem", "FormKind", "GeneratorPair",
    "GramForm", "GroupSpec", "Mat", "UnsupportedParametersError",
    "Verdict", "case_label", "certify", "closure", "cycle_w", "dual_index",
    "elem_h", "elem_x", "field_create", "field_for", "field_to_json",
    "form_defect", "frobenius", "generator_pair", "gram", "group_elements",
    "hat_h", "hat_w", "hat_x", "hat_z", "is_member", "is_special",
    "parse_family", "poly_string", "preserves", "q_block", "special_scalar_beta",
    "special_scalar_eta", "theoretical_order", "tilde_h", "tilde_w", "tilde_x",
    "transposition_w", "w_prime",
]
