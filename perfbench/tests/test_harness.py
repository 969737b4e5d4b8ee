"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import ast
import json
import re
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def declared() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    spec = declared()
    for key, harness in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        assert listed == harness
        for name, unit in listed.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_corrupted_fixture_byte_counts_as_failed(tmp_path, monkeypatch):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(run.FIXTURES, fixtures)
    monkeypatch.setattr(run, "FIXTURES", fixtures)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setenv("PYTHONPATH", str(run.SRC))
    op = run.Op("gens", "sl,2,5")

    tally = run.Tally()
    run.run_cli_op(op, tally)
    assert (tally.attempted, tally.errors) == (1, [])

    path = fixtures / "gens" / "sl_2_5.json"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    tally = run.Tally()
    run.run_cli_op(op, tally)
    assert tally.attempted == 1
    assert tally.errors == ["gens sl,2,5: output differs from fixture"]


FORBIDDEN = ("_kernels", "_batch_keys", "backend=", "CLASSGEN_BACKEND",
             "_field_create_cached", "sys.modules")


def test_harness_names_no_private_classgen_symbol():
    for path in BENCH.glob("*.py"):
        source = path.read_text()
        for word in FORBIDDEN:
            assert word not in source, f"{path.name} names {word}"
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("classgen"):
                assert not any(part.startswith("_") for part in node.module.split("."))
                assert not any(alias.name.startswith("_") for alias in node.names)
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("classgen"):
                        assert not any(p.startswith("_") for p in alias.name.split("."))
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "classgen"):
                assert not node.attr.startswith("_") or node.attr == "__file__"


def test_expected_orders_are_the_theoretical_orders():
    sys.path.insert(0, str(run.SRC))
    from classgen import theoretical_order

    from probe import parse_spec

    for table in (run.BFS_SPECS, run.GRID_SPECS):
        for spec, order in table.items():
            assert theoretical_order(parse_spec(spec)) == order, spec


def test_tail_rank_leaves_ten_samples_above():
    assert run.tail_rank(57) == 46
    assert run.tail_rank(11) == 0
    assert run.tail_rank(6) == 5


def test_reference_run_checks_its_work(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.run_reference() > 0
