"""Smoke test of the benchmark probe, perfbench/probe.py.

The benchmark calls classgen only through this script, each mode in a fresh
interpreter, and a failing mode turns into a failed benchmark run.  So every
name the probe uses (generator_pair, field_for, FieldCtx.tables, closure,
field_create, field_to_json, theoretical_order, ...) must keep working; this
runs each mode on a small spec and checks its exit code and JSON keys.
The closure probe calls FieldCtx.tables() to load numpy before its timed
span; test_startup pins that tables() is where numpy is imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PROBE = REPO / "perfbench" / "probe.py"
SPEC = "sl,2,3"

MODES = {
    "setup": ([SPEC], {"import_s", "build_s", "file"}, set()),
    "field": (["3", "1", SPEC], {"field"}, {"gf.field_create", "families.generator_pair"}),
    "tables": ([SPEC], set(), {"gf.tables"}),
    "closure": ([SPEC], {"size", "truncated", "rounds", "order", "peak_rss_mb"},
                {"closure.closure"}),
}


@pytest.mark.parametrize("mode", list(MODES))
def test_probe_mode_runs_on_the_package_source(mode):
    args, keys, spans = MODES[mode]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, str(PROBE), mode, *args], capture_output=True,
                          text=True, env=env, cwd=REPO, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == keys | {"spans"}
    assert {s["name"] for s in result["spans"]} == spans
    assert all(s["end"] >= s["start"] for s in result["spans"])
    if mode == "setup":
        assert Path(result["file"]).resolve().parent == REPO / "src" / "classgen"
    if mode == "closure":
        assert (result["size"], result["truncated"], result["order"]) == (24, False, 24)
