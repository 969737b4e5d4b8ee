import decimal
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import classgen.enumeration as enumeration
import classgen.families as families
from classgen import (DEFAULT_CAP, Family, FormKind, GroupSpec, case_label, cli, generator_pair,
                      theoretical_order)
from classgen.cli import main
from oracles import chunked_decimal
from test_acceptance import CLOSURE_GRID, covered_specs
from test_closure import hand_pair_of

REPO_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
# The benchmark's byte-exact `classgen gens` outputs; read here, never written.
GENS_FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "gens"
# (family, degree, q) of every fixture, named family_degree_q.json: the grid and
# the big-field specs.
GENS_FIXTURE_SPECS = [tuple(path.stem.split("_")) for path in sorted(GENS_FIXTURES.glob("*.json"))]


def run_main(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), whether it returns or exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gens: json format
# ---------------------------------------------------------------------------

def test_gens_json_schema(capsys):
    code, out, _ = run_main(capsys, ["gens", "--family", "sl", "--degree", "2", "--q", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "sl"
    assert payload["degree"] == 2
    assert payload["q"] == 3
    assert payload["case_label"] == "SL, q in {2,3}"
    assert payload["field"] == {"p": 3, "k": 1, "modulus": [0, 1], "xi": [2]}
    assert payload["generators"][0]["rows"] == [[[1], [1]], [[0], [1]]]
    assert payload["generators"][1]["rows"] == [[[0], [1]], [[2], [0]]]
    assert "form" not in payload


def test_gens_json_is_the_default_format(capsys):
    code, out, _ = run_main(capsys, ["gens", "--family", "gl", "--degree", "2", "--q", "4"])
    assert code == 0
    payload = json.loads(out)
    # GL over GF(4): entries are coefficient vectors of length 2
    assert payload["field"]["modulus"] == [1, 1, 1]
    assert payload["generators"][0]["rows"][0][0] == [0, 1]


SP_4_3_WITH_FORM = """\
{
  "family": "sp",
  "degree": 4,
  "q": 3,
  "case_label": "Sp, q odd, n > 1",
  "field": {
    "p": 3,
    "k": 1,
    "modulus": [0, 1],
    "xi": [2]
  },
  "generators": [
    {
      "rows": [
        [[2], [0], [0], [0]],
        [[0], [1], [0], [0]],
        [[0], [0], [1], [0]],
        [[0], [0], [0], [2]]
      ]
    },
    {
      "rows": [
        [[1], [0], [1], [0]],
        [[1], [0], [0], [0]],
        [[0], [1], [0], [1]],
        [[0], [2], [0], [0]]
      ]
    }
  ],
  "form": {
    "kind": "symplectic",
    "rows": [
      [[0], [0], [0], [1]],
      [[0], [0], [1], [0]],
      [[0], [2], [0], [0]],
      [[2], [0], [0], [0]]
    ]
  }
}
"""


def test_gens_json_emit_form_symplectic(capsys):
    code, out, _ = run_main(capsys, ["gens", "--family", "sp", "--degree", "4",
                                     "--q", "3", "--emit-form"])
    assert code == 0
    assert out == SP_4_3_WITH_FORM


def test_every_grid_spec_has_a_benchmark_fixture():
    assert {(family.value, str(degree), str(q)) for family, degree, q, _ in CLOSURE_GRID} \
        <= set(GENS_FIXTURE_SPECS)


@pytest.mark.parametrize("family,degree,q", GENS_FIXTURE_SPECS)
def test_gens_json_matches_the_benchmark_fixture(capsys, family, degree, q):
    code, out, _ = run_main(capsys, ["gens", "--family", family, "--degree", degree, "--q", q])
    assert code == 0
    assert out.encode() == (GENS_FIXTURES / f"{family}_{degree}_{q}.json").read_bytes()


def test_json_quotes_of_every_printed_label_are_plain_quotes():
    # The json writer quotes the family, case label and form kind itself.
    labels = {case_label(spec) for spec in covered_specs(8, (2, 3, 4, 5, 7, 8, 9))}
    assert len(labels) == 14  # every case label the paper uses
    for label in [*(f.value for f in Family), *(k.value for k in FormKind), *sorted(labels)]:
        assert json.dumps(label) == f'"{label}"', label


SU_3_2_WITH_FORM = """\
{
  "family": "su",
  "degree": 3,
  "q": 2,
  "case_label": "SU(3,2)",
  "field": {
    "p": 2,
    "k": 2,
    "modulus": [1, 1, 1],
    "xi": [0, 1]
  },
  "generators": [
    {
      "rows": [
        [[1, 0], [0, 1], [0, 1]],
        [[0, 0], [1, 0], [1, 1]],
        [[0, 0], [0, 0], [1, 0]]
      ]
    },
    {
      "rows": [
        [[0, 1], [1, 0], [1, 0]],
        [[1, 0], [1, 0], [0, 0]],
        [[1, 0], [0, 0], [0, 0]]
      ]
    }
  ],
  "form": {
    "kind": "unitary",
    "rows": [
      [[0, 0], [0, 0], [1, 0]],
      [[0, 0], [1, 0], [0, 0]],
      [[1, 0], [0, 0], [0, 0]]
    ]
  }
}
"""

GL_3_5_WITH_FORM = """\
{
  "family": "gl",
  "degree": 3,
  "q": 5,
  "case_label": "GL, q > 2",
  "field": {
    "p": 5,
    "k": 1,
    "modulus": [0, 1],
    "xi": [2]
  },
  "generators": [
    {
      "rows": [
        [[2], [0], [0]],
        [[0], [1], [0]],
        [[0], [0], [1]]
      ]
    },
    {
      "rows": [
        [[4], [0], [1]],
        [[4], [0], [0]],
        [[0], [4], [0]]
      ]
    }
  ],
  "form": null
}
"""


def test_gens_json_emit_form_unitary_and_none(capsys):
    code, out, _ = run_main(capsys, ["gens", "--family", "su", "--degree", "3",
                                     "--q", "2", "--emit-form"])
    assert code == 0
    assert out == SU_3_2_WITH_FORM
    code, out, _ = run_main(capsys, ["gens", "--family", "gl", "--degree", "3",
                                     "--q", "5", "--emit-form"])
    assert code == 0
    assert out == GL_3_5_WITH_FORM


# ---------------------------------------------------------------------------
# gens: text and gap formats
# ---------------------------------------------------------------------------

def test_gens_text_format(capsys):
    code, out, _ = run_main(capsys, ["gens", "--family", "sl", "--degree", "2",
                                     "--q", "3", "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family: sl"
    assert "case: SL, q in {2,3}" in lines
    assert "generator a:" in lines
    assert "  1 1" in lines and "  0 1" in lines
    assert "generator b:" in lines


def test_gens_text_emit_form_none(capsys):
    code, out, _ = run_main(capsys, ["gens", "--family", "gl", "--degree", "2",
                                     "--q", "5", "--format", "text", "--emit-form"])
    assert code == 0
    assert out.splitlines()[-1] == "form: none"


def test_gens_text_emit_form_symplectic(capsys):
    code, out, _ = run_main(capsys, ["gens", "--family", "sp", "--degree", "4",
                                     "--q", "3", "--format", "text", "--emit-form"])
    assert code == 0
    assert out == """\
family: sp
degree: 4
q: 3
case: Sp, q odd, n > 1
field: GF(3), p=3, k=1, modulus=[0, 1], xi=[2]
generator a:
  2 0 0 0
  0 1 0 0
  0 0 1 0
  0 0 0 2
generator b:
  1 0 1 0
  1 0 0 0
  0 1 0 1
  0 2 0 0
form: symplectic
  0 0 0 1
  0 0 1 0
  0 2 0 0
  2 0 0 0
"""


def test_gens_text_emit_form_unitary(capsys):
    code, out, _ = run_main(capsys, ["gens", "--family", "gu", "--degree", "3",
                                     "--q", "2", "--format", "text", "--emit-form"])
    assert code == 0
    assert out == """\
family: gu
degree: 3
q: 2
case: U(2n+1,q)
field: GF(4), p=2, k=2, modulus=[1, 1, 1], xi=[0, 1]
generator a:
  (0,1) (0,0) (0,0)
  (0,0) (1,0) (0,0)
  (0,0) (0,0) (0,1)
generator b:
  (0,1) (1,0) (1,0)
  (1,0) (1,0) (0,0)
  (1,0) (0,0) (0,0)
form: unitary
  (0,0) (0,0) (1,0)
  (0,0) (1,0) (0,0)
  (1,0) (0,0) (0,0)
"""


def test_gens_gap_format(capsys):
    code, out, _ = run_main(capsys, ["gens", "--family", "sl", "--degree", "2",
                                     "--q", "3", "--format", "gap"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# family sl, degree 2, q 3")
    assert "# field GF(3) = GF(3)[t] / (t)" in lines
    assert "a := [" in lines
    assert "b := [" in lines
    assert lines[-1] == "];"
    # a = [[1,1],[0,1]]: ones are xi^0, zero prints as 0*xi^0, 2 is xi^1
    assert "  [ xi^0, xi^0 ]," in lines
    assert "  [ 0*xi^0, xi^0 ]" in lines
    assert any("xi^1" in line for line in lines)


def test_gens_gap_states_the_modulus_for_extension_fields(capsys):
    code, out, _ = run_main(capsys, ["gens", "--family", "su", "--degree", "3",
                                     "--q", "2", "--format", "gap", "--emit-form"])
    assert code == 0
    assert out == """\
# family su, degree 3, q 2, case: SU(3,2)
# field GF(4) = GF(2)[t] / (t^2 + t + 1)
# xi is the primitive element with coefficients [0, 1] (constant term first)
# entries are powers of xi; zero prints as 0*xi^0
a := [
  [ xi^0, xi^1, xi^1 ],
  [ 0*xi^0, xi^0, xi^2 ],
  [ 0*xi^0, 0*xi^0, xi^0 ]
];
b := [
  [ xi^1, xi^0, xi^0 ],
  [ xi^0, xi^0, 0*xi^0 ],
  [ xi^0, 0*xi^0, 0*xi^0 ]
];
# form: unitary
j := [
  [ 0*xi^0, 0*xi^0, xi^0 ],
  [ 0*xi^0, xi^0, 0*xi^0 ],
  [ xi^0, 0*xi^0, 0*xi^0 ]
];
"""


def test_gens_gap_emit_form_none(capsys):
    code, out, _ = run_main(capsys, ["gens", "--family", "gl", "--degree", "2",
                                     "--q", "5", "--format", "gap", "--emit-form"])
    assert code == 0
    assert out == """\
# family gl, degree 2, q 5, case: GL, q > 2
# field GF(5) = GF(5)[t] / (t)
# xi is the primitive element with coefficients [2] (constant term first)
# entries are powers of xi; zero prints as 0*xi^0
a := [
  [ xi^1, 0*xi^0 ],
  [ 0*xi^0, xi^0 ]
];
b := [
  [ xi^2, xi^0 ],
  [ xi^2, 0*xi^0 ]
];
# form: none
"""


@pytest.mark.parametrize("family,degree,q", [("gl", 2, 4096), ("gu", 3, 1024)])
def test_gens_gap_on_fields_past_2048_elements(capsys, family, degree, q):
    code, out, _ = run_main(capsys, ["gens", "--family", family, "--degree", str(degree),
                                     "--q", str(q), "--format", "gap"])
    assert code == 0
    pair = generator_pair(GroupSpec(Family(family), degree, q))
    ctx = pair.ctx
    lines = out.splitlines()
    for name, m in (("a", pair.a), ("b", pair.b)):
        start = lines.index(f"{name} := [") + 1
        for row, line in zip(m.rows(), lines[start:start + degree]):
            entries = line.strip().rstrip(",").strip("[] ").split(", ")
            for e, entry in zip(row, entries, strict=True):
                if not e:
                    assert entry == "0*xi^0"
                else:
                    assert ctx.pow_code(ctx.xi_code, int(entry.removeprefix("xi^"))) == e.code


@pytest.mark.parametrize("fmt", ["json", "text", "gap"])
@pytest.mark.parametrize("family,q", [(Family.GL, 3), (Family.GU, 3)])
def test_gens_writer_holds_one_row_at_a_time(fmt, family, q):
    # A whole matrix held as FieldElems costs over 50 bytes per entry; a
    # writer that reads one row at a time stays far below 4.
    spec = GroupSpec(family, 128, q)
    pair = generator_pair(spec)
    form = families.form_for(spec, pair.ctx)
    tracemalloc.start()
    try:
        for _ in cli._WRITERS[fmt](spec, pair, form, True):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * spec.degree**2


def test_json_writer_formats_each_distinct_entry_code_once(monkeypatch):
    # GU(64,3) with its form: 3 * 64**2 entries over GF(9), so at most 9 codes
    spec = GroupSpec(Family.GU, 64, 3)
    pair = generator_pair(spec)
    form = families.form_for(spec, pair.ctx)
    ctx_type, formatted = type(pair.ctx), []

    def counted(ctx, code, _real=ctx_type.code_to_coeffs):
        formatted.append(code)
        return _real(ctx, code)

    monkeypatch.setattr(ctx_type, "code_to_coeffs", counted)
    lines = list(cli._json_lines(spec, pair, form, True))
    distinct = {code for m in (pair.a, pair.b, form.j) for row in m._rows for code in row}
    assert set(formatted) == distinct | {pair.ctx.xi_code}  # xi is printed in the header
    assert len(formatted) <= len(distinct) + 1
    first = json.loads("\n".join(lines))["generators"][0]["rows"][0][0]
    assert first == list(pair.a.entry(0, 0).coeffs)


@pytest.mark.parametrize("writer,method", [(cli._text_lines, "code_to_coeffs"),
                                           (cli._gap_lines, "dlog_code")], ids=["text", "gap"])
def test_text_and_gap_writers_format_each_distinct_entry_code_once(monkeypatch, writer, method):
    # GU(64,3) with its form: 12 288 entries over GF(9) with 6 distinct codes, 5 nonzero
    spec = GroupSpec(Family.GU, 64, 3)
    pair = generator_pair(spec)
    form = families.form_for(spec, pair.ctx)
    ctx_type, formatted = type(pair.ctx), []

    def counted(ctx, code, _real=getattr(ctx_type, method)):
        formatted.append(code)
        return _real(ctx, code)

    monkeypatch.setattr(ctx_type, method, counted)
    list(writer(spec, pair, form, True))
    distinct = {code for m in (pair.a, pair.b, form.j) for row in m._rows for code in row}
    assert len(distinct) == 6
    if method == "dlog_code":  # zero prints as 0*xi^0 and the header has no logs
        assert sorted(formatted) == sorted(distinct - {0})
    else:  # the text header prints xi's coefficients
        assert set(formatted) == distinct | {pair.ctx.xi_code}
        assert len(formatted) <= len(distinct) + 1


# ---------------------------------------------------------------------------
# certify and order
# ---------------------------------------------------------------------------

def test_certify_pass(capsys):
    code, out, _ = run_main(capsys, ["certify", "--family", "sl", "--degree", "2", "--q", "3"])
    assert code == 0
    assert "membership: ok" in out
    assert "expected:   24" in out
    assert "size:       24" in out
    assert "truncated:  no" in out
    assert "verdict:    PASS" in out


def test_certify_indeterminate_with_cap(capsys):
    code, out, _ = run_main(capsys, ["certify", "--family", "su", "--degree", "4",
                                     "--q", "2", "--cap", "10000"])
    assert code == 4
    assert "truncated:  yes (cap 10000)" in out
    assert "verdict:    INDETERMINATE" in out


def test_certify_fail_on_a_proper_subgroup_exits_1(capsys, monkeypatch):
    hand_pair_of(monkeypatch, GroupSpec(Family.SL, 3, 3))
    code, out, _ = run_main(capsys, ["certify", "--family", "gl", "--degree", "3", "--q", "3"])
    assert code == 1
    assert out == ("family:     gl\n"
                   "degree:     3\n"
                   "q:          3\n"
                   "membership: ok\n"
                   "expected:   11232\n"
                   "size:       5616\n"
                   "rounds:     21\n"
                   "truncated:  no\n"
                   "verdict:    FAIL\n")
    hand_pair_of(monkeypatch, GroupSpec(Family.SU, 3, 3))
    code, out, _ = run_main(capsys, ["certify", "--family", "gu", "--degree", "3", "--q", "3"])
    assert code == 1
    assert "expected:   24192\nsize:       6048\n" in out
    assert out.endswith("verdict:    FAIL\n")


def test_certify_fail_on_a_non_member_exits_1(capsys, monkeypatch):
    hand_pair_of(monkeypatch, GroupSpec(Family.GL, 4, 3))
    code, out, _ = run_main(capsys, ["certify", "--family", "sp", "--degree", "4",
                                     "--q", "3", "--cap", "1000"])
    assert code == 1
    assert out == ("family:     sp\n"
                   "degree:     4\n"
                   "q:          3\n"
                   "membership: FAILED\n"
                   "expected:   51840\n"
                   "verdict:    FAIL\n")


def test_certify_invalid_cap(capsys, monkeypatch):
    code, _, err = run_main(capsys, ["certify", "--family", "sl", "--degree", "2",
                                     "--q", "3", "--cap", "0"])
    assert code == 3
    assert "cap must be a positive integer, got 0" in err
    monkeypatch.setenv("CLASSGEN_CAP", "10")  # no longer read: the default cap applies
    code, out, _ = run_main(capsys, ["certify", "--family", "sl", "--degree", "2", "--q", "3"])
    assert code == 0
    assert "verdict:    PASS" in out


def test_order(capsys):
    code, out, _ = run_main(capsys, ["order", "--family", "gl", "--degree", "3", "--q", "2"])
    assert code == 0
    assert out.strip() == "168"


def test_order_large_is_exact(capsys):
    code, out, _ = run_main(capsys, ["order", "--family", "sp", "--degree", "10", "--q", "9"])
    assert code == 0
    assert out.strip() == str(9**25 * (9**2 - 1) * (9**4 - 1) * (9**6 - 1)
                              * (9**8 - 1) * (9**10 - 1))


@pytest.mark.parametrize("degree,q", [(27, 1048576), (120, 2)])
def test_order_beyond_the_int_to_str_limit(capsys, degree, q):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_main(capsys, ["order", "--family", "gl",
                                       "--degree", str(degree), "--q", str(q)])
    assert code == 0, err
    expected = theoretical_order(GroupSpec(Family.GL, degree, q))
    assert out == str(decimal.Decimal(expected)) + "\n"  # exact, and not bound by the limit
    assert len(out) - 1 > limit
    assert sys.get_int_max_str_digits() == limit


def test_exact_matches_the_chunked_conversion():
    rng = random.Random(7)
    values = [0, 1, 10**999, 10**1000 - 1, 10**1000, 10**1000 + 1, 10**3000 + 7]
    values += [rng.randrange(10**rng.randrange(1000, 20001)) for _ in range(20)]
    for n in values:
        assert cli._exact(n) == chunked_decimal(n)


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_exit_2_for_unsupported_parameters(capsys):
    code, _, err = run_main(capsys, ["gens", "--family", "gu", "--degree", "2", "--q", "5"])
    assert code == 2
    assert "unsupported parameters" in err
    code, _, err = run_main(capsys, ["order", "--family", "sp", "--degree", "3", "--q", "3"])
    assert code == 2
    code, _, err = run_main(capsys, ["certify", "--family", "gl", "--degree", "2", "--q", "6"])
    assert code == 2


def test_exit_3_for_unknown_family(capsys):
    code, _, err = run_main(capsys, ["gens", "--family", "orthogonal", "--degree", "4", "--q", "3"])
    assert code == 3
    assert "unknown family" in err


def test_exit_3_for_usage_errors():
    with pytest.raises(SystemExit) as exc_info:
        main(["gens", "--family", "sl"])  # missing --degree/--q
    assert exc_info.value.code == 3
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 3
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 3


def test_exit_3_for_closure_size_limit():
    proc = subprocess.run(
        [sys.executable, "-m", "classgen", "certify", "--family", "sl",
         "--degree", "300", "--q", "2", "--cap", "10"],
        capture_output=True, text=True, env=REPO_ENV)
    assert proc.returncode == 3
    assert "q**n <= 2**20" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_exit_3_for_q_above_2_power_40_without_factoring_it():
    for command in ("gens", "order", "certify"):
        proc = subprocess.run(
            [sys.executable, "-m", "classgen", command, "--family", "gl",
             "--degree", "2", "--q", "1000000000000000003"],
            capture_output=True, text=True, env=REPO_ENV, timeout=10)
        assert proc.returncode == 3
        assert "exceeds the limit 2**40" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_certify_refuses_limits_before_building_generators(capsys, monkeypatch):
    def no_pair(spec):
        raise AssertionError("generator_pair must not be called")

    monkeypatch.setattr(enumeration, "generator_pair", no_pair)
    code, out, err = run_main(capsys, ["certify", "--family", "gl",
                                       "--degree", "27", "--q", "1048576"])
    assert code == 3
    assert "q**n <= 2**20" in err
    assert out == ""
    code, _, err = run_main(capsys, ["certify", "--family", "su", "--degree", "2",
                                     "--q", "1048576"])
    assert code == 2
    assert "unsupported parameters" in err


@pytest.mark.parametrize("argv", [
    ["--family", "gl", "--degree", "8", "--q", "4"],               # 8 rows of 16 bits
    ["--family", "su", "--degree", "6", "--q", "2", "--cap", "10"],  # 6 rows of 12 bits
])
def test_certify_refuses_keys_wider_than_one_word_before_building_generators(
        capsys, monkeypatch, argv):
    def no_pair(spec):
        raise AssertionError("generator_pair must not be called")

    monkeypatch.setattr(enumeration, "generator_pair", no_pair)
    code, out, err = run_main(capsys, ["certify", *argv])
    assert code == 3
    assert "n * bit_length(q**n - 1) <= 64 (one-word key limit)" in err
    assert "Traceback" not in err
    assert out == ""


def test_gens_and_order_refuse_their_size_limits_before_building(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("nothing may be built past a size limit")

    monkeypatch.setattr(families, "generator_pair", no_work)
    monkeypatch.setattr(cli, "theoretical_order", no_work)
    for argv, message in [
        (["gens", "--family", "gl", "--degree", "1000", "--q", "3"],
         "gens size limit: degree**2 * bit_length(3) <= 2**19; degree 1000 gives 2000000"),
        (["gens", "--family", "su", "--degree", "159", "--q", "1024"],
         "gens size limit: degree**2 * bit_length(1048576) <= 2**19"),
        (["order", "--family", "gl", "--degree", "4000", "--q", "2"],
         "order size limit: degree**2 * bit_length(2) <= 2**23; degree 4000 gives 32000000"),
        (["order", "--family", "gl", "--degree", "1000", "--q", "1099511627776"],
         "order size limit: degree**2 * bit_length(1099511627776) <= 2**23"),
    ]:
        code, out, err = run_main(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith(f"classgen: {message}")


def test_exit_5_for_internal_errors(capsys, monkeypatch):
    def crash(spec, cap):
        raise RuntimeError("boom")

    monkeypatch.setattr(enumeration, "certify", crash)
    code, out, err = run_main(capsys, ["certify", "--family", "sl", "--degree", "2", "--q", "3"])
    assert code == 5
    assert err == "classgen: internal error: RuntimeError: boom\n"
    assert out == ""


def test_exit_130_for_an_interrupt(capsys, monkeypatch):
    def interrupted(spec, cap):
        raise KeyboardInterrupt

    monkeypatch.setattr(enumeration, "certify", interrupted)
    code, out, err = run_main(capsys, ["certify", "--family", "gl", "--degree", "3", "--q", "7"])
    assert code == 130
    assert err == "classgen: interrupted\n"
    assert out == ""


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_exit_141_quietly_when_stdout_is_closed(capsys, monkeypatch, tmp_path):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert main(["gens", "--family", "sl", "--degree", "2", "--q", "3"]) == 141
        assert capsys.readouterr().err == ""
        # stdout's descriptor now points at devnull, so the flush at exit cannot fail
        os.write(fd, b"lost")
        assert (tmp_path / "stdout").read_bytes() == b""
    finally:
        os.close(fd)


def test_exit_141_when_the_reader_closes_the_pipe():
    proc = subprocess.Popen(
        [sys.executable, "-m", "classgen", "gens", "--family", "gl", "--degree", "300", "--q", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=REPO_ENV)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()  # the gens output is far larger than a pipe buffer
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_long_family_names_accepted(capsys):
    code, out, _ = run_main(capsys, ["order", "--family", "special linear",
                                     "--degree", "2", "--q", "5"])
    assert code == 0
    assert out.strip() == "120"


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

SL23_ARGS = ["--family", "sl", "--degree", "2", "--q", "3"]


@pytest.mark.parametrize("argv", [
    ["order", "--family=sl", "--degree=2", "--q=3"],
    ["order", "--fam", "sl", "--deg", "2", "--q", "3"],
    ["order", "--fa=sl", "--d", "2", "--q", "3"],
    ["order", "--family", "gl", "--family", "sl", "--degree", "2", "--q", "5", "--q=3"],
    ["order", "--q", "3", "--degree", "2", "--family", "sl"],
], ids=["name=value", "prefixes", "prefix=value", "last one wins", "any order"])
def test_options_are_spelled_as_argparse_accepted_them(capsys, argv):
    assert run_main(capsys, argv) == (0, "24\n", "")


def test_gens_and_certify_options_by_prefix_and_repeated(capsys):
    gap = run_main(capsys, ["gens", *SL23_ARGS, "--format", "gap", "--emit-form"])
    assert gap[0] == 0 and "# form: none" in gap[1]
    assert run_main(capsys, ["gens", *SL23_ARGS, "--fo", "text", "--emit", "--form=gap"]) == gap
    assert run_main(capsys, ["gens", *SL23_ARGS, "--emit-form", "--emit", "--fo=gap"]) == gap
    code, out, _ = run_main(capsys, ["certify", *SL23_ARGS, "--cap", "5", "--c=10"])
    assert code == 4
    assert "truncated:  yes (cap 10)" in out


@pytest.mark.parametrize("argv,message", [
    (["gens", "--f", "sl", "--degree", "2", "--q", "3"],
     "ambiguous option: --f could match --family, --format"),
    (["gens", *SL23_ARGS, "--q"], "argument --q: expected one argument"),
    (["gens", "--family", "sl", "--degree", "--q", "3"],
     "argument --degree: expected one argument"),
    (["gens", "--family", "sl", "--degree", "two", "--q", "3"],
     "argument --degree: invalid value: 'two'"),
    (["certify", *SL23_ARGS, "--cap", "1e6"], "argument --cap: invalid value: '1e6'"),
    (["gens", *SL23_ARGS, "--format", "xml"], "argument --format: invalid value: 'xml'"),
    (["gens", *SL23_ARGS, "--emit-form=yes"], "argument --emit-form: takes no value"),
    (["gens", *SL23_ARGS, "--bogus"], "unrecognized argument: --bogus"),
    (["gens", *SL23_ARGS, "-x"], "unrecognized argument: -x"),
    (["gens", *SL23_ARGS, "extra"], "unrecognized argument: extra"),
    (["order", *SL23_ARGS, "--cap", "5"], "unrecognized argument: --cap"),
    (["gens", "--family", "sl"], "the following arguments are required: --degree, --q"),
    (["certify"], "the following arguments are required: --family, --degree, --q"),
    (["frobnicate", *SL23_ARGS], "the first argument must be a command: gens, certify, order"),
    (["GENS", *SL23_ARGS], "the first argument must be a command: gens, certify, order"),
    ([], "the first argument must be a command: gens, certify, order"),
    (["--bogus"], "unrecognized argument: --bogus"),
])
def test_usage_errors_exit_3_after_a_usage_line(capsys, argv, message):
    code, out, err = run_main(capsys, argv)
    assert (code, out) == (3, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: classgen {gens,certify,order} --family FAMILY")
    assert error == f"classgen: error: {message}"


def test_a_negative_number_is_a_value_that_groupspec_refuses(capsys):
    code, out, err = run_main(capsys, ["order", "--family", "sl", "--degree", "2", "--q", "-5"])
    assert (code, out) == (3, "")
    assert err == "classgen: q must be an integer >= 2, got -5\n"


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"],
    *([command, flag] for command in ("gens", "certify", "order") for flag in ("-h", "--help")),
    ["order", "--family", "sl", "-h"],
    ["certify", "--h", "--bogus"],
])
def test_help_exits_0_and_names_every_option(capsys, argv):
    code, out, err = run_main(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: classgen ")
    for word in ("gens", "certify", "order", "--family", "--degree", "--q", "--format",
                 "{json,text,gap}", "--emit-form", "--cap", f"(default {DEFAULT_CAP})",
                 "--name=value"):
        assert word in out, word


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["classgen", "order", *SL23_ARGS])
    assert run_main(capsys, None) == (0, "24\n", "")


# ---------------------------------------------------------------------------
# Module entry point
# ---------------------------------------------------------------------------

def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "classgen", "gens", "--family", "sl",
         "--degree", "2", "--q", "3"],
        capture_output=True, text=True, env=REPO_ENV)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["case_label"] == "SL, q in {2,3}"


def test_console_script_exit_code_for_unsupported():
    proc = subprocess.run(
        [sys.executable, "-m", "classgen", "certify", "--family", "su",
         "--degree", "2", "--q", "3"],
        capture_output=True, text=True, env=REPO_ENV)
    assert proc.returncode == 2
