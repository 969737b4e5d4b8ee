"""classgen: two-generator pairs for the classical matrix groups over finite
fields, with exact field arithmetic and brute-force closure certification.

The package imports lazily (PEP 562): each public name loads its submodule
on first access, and no import loads numpy.  Fields, matrices, generator
pairs and forms are pure Python, and so is group_elements().  closure()
loads numpy when called, and certify() only when both generators are
members and |G| > enumeration.PYTHON_BFS_MAX_ORDER.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "atoms": (
        "DualKind", "cycle_w", "dual_index", "elem_h", "elem_x", "hat_h", "hat_w",
        "hat_x", "hat_z", "q_block", "tilde_h", "tilde_w", "tilde_x",
        "transposition_w", "w_prime",
    ),
    "enumeration": (
        "Certificate", "ClosureResult", "Verdict", "certify", "closure", "group_elements",
    ),
    "families": ("GeneratorPair", "field_for", "generator_pair", "is_member"),
    "forms": (
        "FormKind", "GramForm", "form_defect", "gram", "is_special", "preserves",
        "special_scalar_beta", "special_scalar_eta",
    ),
    "gf": (
        "FieldCtx", "FieldElem", "field_create", "field_to_json", "frobenius",
        "poly_string",
    ),
    "matrix": ("Mat",),
    "spec": (
        "DEFAULT_CAP", "DEFAULT_FIELD_CAP", "Family", "GroupSpec", "UnsupportedParametersError",
        "case_label", "parse_family", "theoretical_order",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
