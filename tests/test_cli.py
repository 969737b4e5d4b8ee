import decimal
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import classgen.enumeration as enumeration
from classgen import Family, GroupSpec, cli, generator_pair, theoretical_order
from classgen.cli import main
from oracles import chunked_decimal
from test_acceptance import CLOSURE_GRID
from test_closure import hand_pair_of

REPO_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
# The benchmark's byte-exact `classgen gens` outputs; read here, never written.
GENS_FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "gens"


def run_main(capsys, argv):
    code = main(argv)
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


@pytest.mark.parametrize("family,degree,q", [
    (family.value, degree, q) for family, degree, q, _ in CLOSURE_GRID])
def test_gens_json_matches_the_benchmark_fixture(capsys, family, degree, q):
    code, out, _ = run_main(capsys, ["gens", "--family", family, "--degree", str(degree),
                                     "--q", str(q)])
    assert code == 0
    assert out.encode() == (GENS_FIXTURES / f"{family}_{degree}_{q}.json").read_bytes()


def test_gens_json_emit_form_unitary_and_none(capsys):
    code, out, _ = run_main(capsys, ["gens", "--family", "su", "--degree", "3",
                                     "--q", "2", "--emit-form"])
    assert code == 0
    assert json.loads(out)["form"]["kind"] == "unitary"
    code, out, _ = run_main(capsys, ["gens", "--family", "gl", "--degree", "3",
                                     "--q", "5", "--emit-form"])
    assert code == 0
    assert json.loads(out)["form"] is None


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
    assert "GF(4) = GF(2)[t] / (t^2 + t + 1)" in out
    assert "j := [" in out


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
        for row, line in zip(m.codes, lines[start:start + degree]):
            entries = line.strip().rstrip(",").strip("[] ").split(", ")
            for code, entry in zip(row, entries, strict=True):
                if code == 0:
                    assert entry == "0*xi^0"
                else:
                    assert ctx.pow_code(ctx.xi_code, int(entry.removeprefix("xi^"))) == code


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
    assert "membership: FAILED" in out
    assert "truncated:  yes (cap 1000)" in out
    assert out.endswith("verdict:    FAIL\n")


def test_certify_invalid_cap(capsys, monkeypatch):
    code, _, err = run_main(capsys, ["certify", "--family", "sl", "--degree", "2",
                                     "--q", "3", "--cap", "0"])
    assert code == 3
    assert "cap must be at least 1, got 0" in err
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


def test_exit_5_for_internal_errors(capsys, monkeypatch):
    def crash(spec, cap):
        raise RuntimeError("boom")

    monkeypatch.setattr(enumeration, "certify", crash)
    code, out, err = run_main(capsys, ["certify", "--family", "sl", "--degree", "2", "--q", "3"])
    assert code == 5
    assert err == "classgen: internal error: RuntimeError: boom\n"
    assert out == ""


def test_long_family_names_accepted(capsys):
    code, out, _ = run_main(capsys, ["order", "--family", "special linear",
                                     "--degree", "2", "--q", "5"])
    assert code == 0
    assert out.strip() == "120"


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
