"""The package imports lazily, and only the numpy closure loads numpy: no
command line path imports it but a certify run whose generators pass the
membership check and whose group order is above
enumeration.PYTHON_BFS_MAX_ORDER, and group_elements() never does.  The
records are collections.namedtuple, so no path loads dataclasses (which
pulls in inspect, ast, dis and tokenize) or typing.  The command line
parses its own arguments and writes its own JSON quotes, so no command
loads argparse, gettext, locale or json.  Every module-level import is used
or keeps an old import path."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import classgen

REPO_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
PACKAGE = Path(classgen.__file__).parent

# Where each public name could be imported from before the package became lazy.
OLD_PATHS = {
    "classgen.atoms": [
        "DualKind", "cycle_w", "dual_index", "elem_h", "elem_x", "hat_h", "hat_w",
        "hat_x", "hat_z", "q_block", "tilde_h", "tilde_w", "tilde_x",
        "transposition_w", "w_prime"],
    "classgen.enumeration": [
        "DEFAULT_CAP", "Certificate", "ClosureResult", "Verdict", "certify", "closure",
        "group_elements", "theoretical_order"],
    "classgen.families": [
        "Family", "GeneratorPair", "GroupSpec", "UnsupportedParametersError",
        "case_label", "field_for", "generator_pair", "is_member", "parse_family"],
    "classgen.forms": [
        "FormKind", "GramForm", "form_defect", "gram", "is_special", "preserves",
        "special_scalar_beta", "special_scalar_eta"],
    "classgen.gf": [
        "DEFAULT_FIELD_CAP", "FieldCtx", "FieldElem", "field_create", "field_to_json",
        "frobenius", "poly_string"],
    "classgen.matrix": ["Mat"],
}


def test_every_public_name_is_the_object_of_its_defining_module():
    assert sorted(n for names in OLD_PATHS.values() for n in names) == classgen.__all__
    for module, names in OLD_PATHS.items():
        for name in names:
            value = getattr(classgen, name)
            assert getattr(importlib.import_module(module), name) is value, name
            home = getattr(value, "__module__", None)
            if isinstance(home, str) and home.startswith("classgen."):
                assert getattr(sys.modules[home], name) is value, name
    assert set(classgen.__all__) <= set(dir(classgen))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from classgen import *", namespace)
    assert set(classgen.__all__) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(classgen, "no_such_name")


NUMPY_FREE = {
    "import classgen": None,
    "order": (["order", "--family", "sp", "--degree", "4", "--q", "3"], 0),
    "exit 2": (["order", "--family", "sp", "--degree", "3", "--q", "3"], 2),
    "exit 3": (["order", "--family", "gl", "--degree", "0", "--q", str(2**40 + 1)], 3),
    "closure limit": (["certify", "--family", "gl", "--degree", "27", "--q", "1048576"], 3),
    "cap below 1": (["certify", "--family", "sl", "--degree", "2", "--q", "3", "--cap", "0"], 3),
    "certify": (["certify", "--family", "gl", "--degree", "3", "--q", "3"], 0),
    "certify truncated": (["certify", "--family", "gu", "--degree", "4", "--q", "2",
                           "--cap", "10000"], 4),
    "field limit": (["gens", "--family", "gu", "--degree", "3", "--q", "2048"], 3),
    "gens size limit": (["gens", "--family", "gl", "--degree", "1000", "--q", "3"], 3),
    "order size limit": (["order", "--family", "gl", "--degree", "4000", "--q", "2"], 3),
    "gens json": (["gens", "--family", "sp", "--degree", "4", "--q", "3"], 0),
    "gens json form": (["gens", "--family", "sp", "--degree", "4", "--q", "3", "--emit-form"], 0),
    "gens text": (["gens", "--family", "gl", "--degree", "3", "--q", "3", "--format", "text"], 0),
    "gens text form": (["gens", "--family", "su", "--degree", "3", "--q", "2",
                        "--format", "text", "--emit-form"], 0),
    "gens gap": (["gens", "--family", "sl", "--degree", "2", "--q", "9", "--format", "gap"], 0),
    "gens gap form big field": (["gens", "--family", "gu", "--degree", "3", "--q", "1024",
                                 "--format", "gap", "--emit-form"], 0),
    "help": (["--help"], 0),
}


def _main_script(argv) -> str:
    """A script that runs main(argv) and leaves its exit code in code; argv
    None only imports classgen."""
    if argv is None:
        return "import sys\nimport classgen\ncode = 0\n"
    return ("import sys\nfrom classgen.cli import main\n"
            f"try:\n    code = main({argv!r})\n"
            "except SystemExit as exc:\n    code = exc.code\n")


def _exit_code_and_numpy_loaded(argv) -> str:
    """'<exit code> <whether numpy was imported> <whether dataclasses or
    inspect was imported>' of main(argv) in a fresh interpreter; argv None
    only imports classgen."""
    return _last_line(_main_script(argv) + (
        "print(code, 'numpy' in sys.modules,\n"
        "      not {'dataclasses', 'inspect'}.isdisjoint(sys.modules))\n"))


def _last_line(script: str) -> str:
    """The last line script prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=REPO_ENV, timeout=30)
    assert proc.stdout, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("case", list(NUMPY_FREE))
def test_numpy_is_not_imported(case):
    argv, want = NUMPY_FREE[case] or (None, 0)
    assert _exit_code_and_numpy_loaded(argv) == f"{want} False False"


# |SL(3,5)| = 372 000 > PYTHON_BFS_MAX_ORDER: the numpy closure runs
NUMPY_CERTIFY = ["certify", "--family", "sl", "--degree", "3", "--q", "5"]
STARTUP_CASES = {**NUMPY_FREE, "certify with numpy": (NUMPY_CERTIFY, 0)}


@pytest.mark.parametrize("case", list(STARTUP_CASES))
def test_no_run_loads_argparse_gettext_locale_or_json(case):
    # argparse with gettext and locale cost a cold run about 4.4 ms, json 1.8 ms.
    argv, want = STARTUP_CASES[case] or (None, 0)
    script = _main_script(argv) + (
        "print(code, sorted({'argparse', 'gettext', 'locale', 'json'} & set(sys.modules)))\n")
    assert _last_line(script) == f"{want} []"


def test_certify_above_the_python_bfs_order_loads_numpy():
    assert _exit_code_and_numpy_loaded(NUMPY_CERTIFY).startswith("0 True ")


def test_certify_of_a_non_member_pair_loads_no_numpy():
    # Sp(4,3) handed the GL(4,3) pair fails membership, so no search runs.
    script = ("import sys\n"
              "from classgen import Family, GroupSpec, enumeration, generator_pair\n"
              "from classgen.cli import main\n"
              "gl = generator_pair(GroupSpec(Family.GL, 4, 3))\n"
              "enumeration.generator_pair = lambda spec: gl._replace(spec=spec)\n"
              "code = main(['certify', '--family', 'sp', '--degree', '4', '--q', '3'])\n"
              "print(code, 'numpy' in sys.modules)\n")
    assert _last_line(script) == "1 False"


def test_group_elements_loads_no_numpy():
    script = ("import sys\n"
              "from classgen import Family, GroupSpec, generator_pair, group_elements\n"
              "pair = generator_pair(GroupSpec(Family.SL, 2, 3))\n"
              "print(len(group_elements([pair.a, pair.b])), 'numpy' in sys.modules)\n")
    assert _last_line(script) == "24 False"


def _import_time_imports(path: Path):
    """Modules named by the import statements that run when path is imported:
    everything outside function bodies."""
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ("classgen." * bool(node.level) + (node.module or "")).rstrip(".")
            yield module
            if module == "classgen":
                yield from (f"classgen.{alias.name}" for alias in node.names)
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_reads_the_environment():
    # Settings come from arguments only, so a command line means the same in
    # every shell: no os.environ, environ or getenv anywhere in the package.
    names = {"environ", "getenv"}
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Attribute, ast.Name, ast.alias))
             and names & {getattr(node, "attr", None), getattr(node, "id", None),
                          getattr(node, "name", None)}]
    assert reads == []


def test_only_the_package_main_module_has_a_main_block():
    # One entry point: `python -m classgen` runs __main__.py, and the console
    # script calls cli.main.
    def is_main_check(node):
        return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and {getattr(n, "id", getattr(n, "value", None))
                     for n in (node.test.left, *node.test.comparators)}
                == {"__name__", "__main__"})

    blocks = [path.name for path in sorted(PACKAGE.glob("*.py"))
              if any(map(is_main_check, ast.walk(ast.parse(path.read_text()))))]
    assert blocks == ["__main__.py"]


@pytest.mark.parametrize("module,allowed", [("spec", set()), ("cli", {"classgen.spec"})])
def test_spec_and_cli_import_no_matrix_module_at_import_time(module, allowed):
    # `from classgen import X` counts as classgen itself, which may load any
    # submodule; only the numpy-free spec module may be imported by name.
    imported = set(_import_time_imports(PACKAGE / f"{module}.py"))
    assert {m for m in imported if m.split(".")[0] == "classgen"} <= allowed
    assert not {m for m in imported if m.split(".")[0] == "numpy"}


# The modules gens runs, and enumeration, which certify runs: none imports numpy
# at import time (test_only_enumeration_and_field_tables_import_numpy says
# which function bodies may).
GENS_MODULES = ("gf", "matrix", "atoms", "forms", "families")


@pytest.mark.parametrize("module", [*GENS_MODULES, "enumeration"])
def test_gens_modules_import_no_numpy_at_import_time(module):
    imported = set(_import_time_imports(PACKAGE / f"{module}.py"))
    assert not {m for m in imported if m.split(".")[0] == "numpy"}
    assert {m for m in imported if m.split(".")[0] == "classgen"} <= {
        f"classgen.{m}" for m in ("spec", *GENS_MODULES)}


def _importers(top: str) -> set[str]:
    """'<module>:<scope>' for every import of package top in classgen,
    function bodies included; scope is the dotted name of the enclosing
    classes and functions, empty at module level."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == top for name in names):
                yield scope
            yield from walk(child, scope)

    return {f"{path.stem}:{scope}" for path in sorted(PACKAGE.glob("*.py"))
            for scope in walk(ast.parse(path.read_text()), "")}


def test_no_module_imports_dataclasses():
    # The records are named tuples; importing dataclasses costs a cold run
    # 10-20 ms for inspect, ast, dis and tokenize.
    assert _importers("dataclasses") == set()


def test_no_module_imports_typing():
    # The records are collections.namedtuple, which enum already loads; an
    # interpreter whose site imports no typing pays 4-7 ms for it.
    assert _importers("typing") == set()


def test_only_enumeration_and_field_tables_import_numpy():
    # closure() and its helpers, and FieldCtx.tables(), the structure
    # constants as an array; everything else is pure Python.
    outside = {s for s in _importers("numpy") if not s.startswith("enumeration:")}
    assert outside == {"gf:FieldCtx.tables"}


def test_every_module_level_import_is_used_or_an_old_path():
    # A name imported only to keep an old import path working must be listed
    # for its module in OLD_PATHS.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        kept = set(OLD_PATHS.get(f"classgen.{path.stem}", ()))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used | kept:
                        unused.append(f"{path.stem}.{name}")
    assert unused == []
