"""classgen benchmark: three workloads, end-to-end metrics, and a traced run
that gives per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package under test is
imported from ./src, never from an installed copy.  Every child process gets
the same environment (no inherited CLASSGEN_* variable, one BLAS/OpenMP
thread, PYTHONHASHSEED=0, PYTHONPATH=src) and runs with this interpreter,
one at a time.

With --trace 0 the harness runs whole passes of one workload for about S
seconds; the seed only shuffles the order of operations within each pass.
Each metric takes every operation at its median over the passes.  On the
two CLI workloads it also runs a reference between operations (probe.py
reference: an interpreter start, the numpy import and fixed Python and
numpy work, in code that is not classgen's) and reports every time at the
machine speed where the reference takes REFERENCE_S.  A shared host's
neighbours slow such short cold processes and the reference alike, so the
scaled times keep what classgen costs and drop most of what the host adds.
bfs-large runs no reference: its closures run for seconds over hundreds of
MB of numpy arrays, and the reference does not follow them (over five runs
on a 2-vCPU Xeon VM its median ranged over 27% while the closures' total
ranged over 13%), so its times are as measured.  The unscaled values are printed above the result
line.
With --trace 1 it runs the layer suite instead: from the benchmark's own
code it times the calls into each classgen module's public functions, keeps
the spans in memory and writes them to .perfbench_out/ at the end.  The
suite is the same for every workload.

Every operation's output is checked; a wrong output counts as a failed
operation.  Human-readable lines come first; the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.

fixtures/gens/*.json hold the stdout of `classgen gens` for each spec,
captured at the commit that added the benchmark; `gens` output must stay
byte-identical.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from importlib import metadata, util
from pathlib import Path
from random import Random
from statistics import median

from probe import Tracer, parse_spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBE = BENCH / "probe.py"
FIXTURES = BENCH / "fixtures"
OUT = ROOT / ".perfbench_out"

# Large closures, each timed after import and pair set-up: spec -> expected
# group order.  Sp(6,2) and GL(3,5) stress the multiply and the key/dedup
# steps respectively; SU(3,5) is the only closure over an extension field.
BFS_SPECS = {"sp,6,2": 1451520, "gl,3,5": 1488000, "su,3,5": 378000}

# `classgen gens` over the largest fields the package accepts: spec -> (p, k)
# of its field.  Field construction dominates and closure is never called.
BIGFIELD_SPECS = {
    "gu,3,1024": (2, 20), "su,3,729": (3, 12), "gu,4,512": (2, 18),
    "gl,8,823543": (7, 7), "sp,8,390625": (5, 8), "gl,2,1042441": (1021, 2),
}

# The 19-case acceptance closure grid: spec -> expected group order.
GRID_SPECS = {
    "gl,2,3": 48, "gl,2,4": 180, "gl,2,5": 480, "gl,3,2": 168, "gl,3,3": 11232,
    "sl,2,4": 60, "sl,2,5": 120, "sl,2,9": 720, "sl,3,2": 168, "sl,3,3": 5616,
    "sp,2,5": 120, "sp,4,2": 720, "sp,4,3": 51840,
    "gu,3,2": 648, "gu,3,3": 24192, "gu,4,2": 77760,
    "su,3,2": 216, "su,3,3": 6048, "su,4,2": 25920,
}

SETUP_SAMPLES = 15
# One reference run per REFERENCE_EVERY_S of timed operations, about a fifth
# of a run; REFERENCE_S is about the median reference time on the 2-vCPU
# Xeon (Sapphire Rapids) VM where the benchmark was written.
REFERENCE_EVERY_S = 2.0
REFERENCE_S = 0.55
IMPORT_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "norm_wall_s": "s", "setup_s": "s", "norm_op_p50_s": "s", "norm_op_tail_s": "s",
    "norm_elems_per_s": "elem/s", "peak_rss_mb": "MB",
}


def closure_label(spec: str) -> str:
    family, degree, q = spec.split(",")
    return f"{family}{degree}_{q}"


PER_LAYER = {
    **{f"gf.field_create.{p}_{k}_s": "s" for p, k in BIGFIELD_SPECS.values()},
    "gf.tables_s": "s",
    "families.generator_pair.bigfield_s": "s",
    "families.generator_pair.grid_s": "s",
    "forms.is_member.grid_s": "s",
    **{f"closure.{closure_label(spec)}.{name}": unit for spec in BFS_SPECS
       for name, unit in (("s", "s"), ("elems_per_s", "elem/s"),
                          ("peak_rss_mb", "MB"), ("size", "count"),
                          ("rounds", "count"))},
    "closure.grid_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_classgen_s": "s",
    "cli.main.grid_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
}


def pin_environment() -> None:
    """Give this process and every child the same environment."""
    for key in [k for k in os.environ if k.startswith("CLASSGEN_")]:
        del os.environ[key]
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                      MKL_NUM_THREADS="1", PYTHONHASHSEED="0", PYTHONPATH=str(SRC))


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "numba": util.find_spec("numba") is not None}


@dataclass
class Child:
    code: int
    out: bytes
    err: str
    seconds: float
    peak_rss_mb: float


def run_child(args: list[str]) -> Child:
    """Run this interpreter with args from the checkout root; time it from
    spawn to exit and take its own peak RSS from wait4."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(proc.returncode, out, err.read().decode(errors="replace"),
                     seconds, usage.ru_maxrss / 1024)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.errors.append(f"{what}: {error}")


def probe(mode: str, *args: str, tracer: Tracer | None = None) -> dict:
    """Run one probe.py mode in a fresh interpreter and return its JSON."""
    child = run_child([str(PROBE), mode, *args])
    if child.code != 0:
        raise RuntimeError(f"probe {mode} {' '.join(args)} exited {child.code}:\n{child.err}")
    result = json.loads(child.out.splitlines()[-1])
    if tracer is not None:
        tracer.adopt(result["spans"])
    return result


def gens_fixture(spec: str) -> bytes:
    return (FIXTURES / "gens" / f"{spec.replace(',', '_')}.json").read_bytes()


@dataclass(frozen=True)
class Op:
    """One `classgen` CLI invocation and the check of its output.  elems is
    what the operation counts towards elems_per_s."""

    command: str
    spec: str
    order: int | None = None
    elems: int = 0

    def argv(self) -> list[str]:
        family, degree, q = self.spec.split(",")
        return [self.command, "--family", family, "--degree", degree, "--q", q]

    def check(self, code: int, out: bytes) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if self.command == "gens":
            return None if out == gens_fixture(self.spec) else "output differs from fixture"
        if self.command == "order":
            return None if out.strip() == str(self.order).encode() else f"order {out!r}"
        fields = dict(line.split(":", 1) for line in out.decode().splitlines() if ":" in line)
        got = {k.strip(): v.strip() for k, v in fields.items()}
        want = {"membership": "ok", "expected": str(self.order), "size": str(self.order),
                "truncated": "no", "verdict": "PASS"}
        bad = {k: got.get(k) for k, v in want.items() if got.get(k) != v}
        return f"certify printed {bad}" if bad else None


def grid_ops() -> list[Op]:
    """Every command on every grid spec; certify counts the group elements."""
    return [Op(command, spec, order, order if command == "certify" else 0)
            for spec, order in GRID_SPECS.items()
            for command in ("gens", "order", "certify")]


def bigfield_ops() -> list[Op]:
    """gens on every big-field spec, counting the elements of its field."""
    return [Op("gens", spec, elems=p**k) for spec, (p, k) in BIGFIELD_SPECS.items()]


@dataclass
class Sample:
    op: str
    seconds: float
    elems: int
    peak_rss_mb: float


def tail_rank(n: int) -> int:
    """Index into n sorted samples of the highest percentile with at least
    10 samples above it; the maximum when there are 10 or fewer samples."""
    return n - 11 if n > 10 else n - 1


def setup_seconds(specs: list[str], count: int) -> list[float]:
    """Fresh-interpreter set-up samples: `import classgen`, plus building the
    generator pairs and field tables of specs."""
    samples = []
    for _ in range(count):
        result = probe("setup", *specs)
        if not Path(result["file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"classgen was imported from {result['file']}, not {SRC}")
        samples.append(result["import_s"] + result["build_s"])
    return samples


def run_cli_op(op: Op, tally: Tally) -> Sample:
    """One cold `python -m classgen` run, timed from spawn to exit."""
    child = run_child(["-m", "classgen", *op.argv()])
    name = f"{op.command} {op.spec}"
    tally.record(name, op.check(child.code, child.out))
    return Sample(name, child.seconds, op.elems, child.peak_rss_mb)


def run_closure_op(spec: str, tally: Tally) -> Sample:
    """closure() of one generator pair, timed inside a process that has
    already imported classgen and built the pair and its field tables.
    Each closure gets its own process: in a shared one, the peak RSS would
    depend on the seeded order (326 to 351 MB measured)."""
    result = probe("closure", spec)
    want = BFS_SPECS[spec]
    error = None
    if result["truncated"] or not result["size"] == result["order"] == want:
        error = f"size {result['size']}, theoretical {result['order']}, expected {want}"
    tally.record(f"closure {spec}", error)
    (span,) = result["spans"]
    return Sample(f"closure {spec}", span["end"] - span["start"], want,
                  result["peak_rss_mb"])


def run_reference() -> float:
    """Seconds of one reference run, timed like a CLI operation."""
    child = run_child([str(PROBE), "reference"])
    if child.code != 0 or json.loads(child.out.splitlines()[-1]) != {"ok": True, "spans": []}:
        raise RuntimeError(f"reference run failed ({child.code}):\n{child.err}")
    return child.seconds


def run_passes(ops: list, run_op, seed: int, seconds: float, tally: Tally,
               scaled: bool) -> tuple[list[list[Sample]], list[float]]:
    """Whole passes over ops, each in seeded order, filling about `seconds`:
    another pass starts while more than half a mean pass of time remains.
    If scaled, reference runs follow the operations, one per
    REFERENCE_EVERY_S of their time, so they sample the machine's speed
    across the whole run."""
    rng = Random(seed)
    passes: list[list[Sample]] = []
    references: list[float] = []
    owed = 0.0
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) < seconds:
        order = list(ops)
        rng.shuffle(order)
        samples = []
        for op in order:
            samples.append(run_op(op, tally))
            if scaled:
                owed += samples[-1].seconds
                while owed >= REFERENCE_EVERY_S:
                    references.append(run_reference())
                    owed -= REFERENCE_EVERY_S
        passes.append(samples)
    return passes, references


# name -> (operations of one pass, how to run one, specs whose generator
# pairs and field tables count as set-up, whether times are scaled by the
# reference)
WORKLOADS = {
    "bfs-large": (list(BFS_SPECS), run_closure_op, list(BFS_SPECS), False),
    "gens-bigfield": (bigfield_ops(), run_cli_op, [], True),
    "cli-grid": (grid_ops(), run_cli_op, [], True),
}


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally, notes: list[str]):
    ops, run_op, setup_specs, scaled = WORKLOADS[workload]
    # Set-up samples before and after the passes, so a slow phase of the
    # machine weighs on both sides of the median.
    setup = setup_seconds(setup_specs, SETUP_SAMPLES // 2)
    passes, references = run_passes(ops, run_op, seed, seconds, tally, scaled)
    setup += setup_seconds(setup_specs, SETUP_SAMPLES - len(setup))
    # Each operation counts with its median over the passes, so one slow
    # moment of a shared machine moves no metric by itself.
    by_op: dict[str, list[Sample]] = {}
    for samples in passes:
        for sample in samples:
            by_op.setdefault(sample.op, []).append(sample)
    typical = {op: median(s.seconds for s in group) for op, group in by_op.items()}
    times = sorted(typical.values())
    rank = tail_rank(len(times))
    elem_ops = [op for op, group in by_op.items() if group[0].elems]
    notes.append(f"passes: {len(passes)} of {len(times)} operations; "
                 f"setup samples: {len(setup)}; reference runs: {len(references)}")
    notes.append(f"op_tail_s: p{100 * rank / max(len(times) - 1, 1):.0f} of {len(times)} "
                 f"operations, {len(times) - 1 - rank} above it")
    raw = {
        "wall_s": sum(times),
        "op_p50_s": median(times),
        "op_tail_s": times[rank],
        "elems_per_s": (sum(by_op[op][0].elems for op in elem_ops)
                        / sum(typical[op] for op in elem_ops)),
    }
    scale = REFERENCE_S / median(references) if references else 1.0
    notes.append(f"unscaled: {json.dumps(raw)}; scale {scale:.4f}")
    return {
        "norm_wall_s": raw["wall_s"] * scale,
        "setup_s": median(setup),
        "norm_op_p50_s": raw["op_p50_s"] * scale,
        "norm_op_tail_s": raw["op_tail_s"] * scale,
        "norm_elems_per_s": raw["elems_per_s"] / scale,
        "peak_rss_mb": max(s.peak_rss_mb for samples in passes for s in samples),
    }


def in_process_segment(tracer: Tracer, rng: Random, tally: Tally) -> None:
    """Grid generators, membership, closures and CLI mains in this process."""
    from classgen import closure, generator_pair, is_member
    from classgen.cli import main

    specs = list(GRID_SPECS)
    rng.shuffle(specs)
    pairs = {}
    for text in specs:
        spec = parse_spec(text)
        with tracer.span("families.generator_pair", group="grid", spec=text):
            pairs[text] = generator_pair(spec)
    for text in specs:
        pair = pairs[text]
        with tracer.span("forms.is_member", group="grid", spec=text):
            members = [is_member(pair.spec, pair.a), is_member(pair.spec, pair.b)]
        tally.record(f"is_member {text}", None if all(members) else f"{members}")
    for text in specs:
        pair = pairs[text]
        with tracer.span("closure.closure", group="grid", spec=text):
            result = closure([pair.a, pair.b])
        ok = result.size == GRID_SPECS[text] and not result.truncated
        tally.record(f"closure {text}", None if ok else f"size {result.size}")
    ops = grid_ops()
    rng.shuffle(ops)
    for op in ops:
        out = io.StringIO()
        with tracer.span("cli.main", command=op.command, spec=op.spec), redirect_stdout(out):
            code = main(op.argv())
        tally.record(f"main {op.command} {op.spec}", op.check(code, out.getvalue().encode()))


def layer_suite(workload: str, seed: int, tally: Tally) -> dict:
    rng = Random(seed)
    tracer = Tracer()
    metrics = {}

    snippets = {"interpreter": "pass", "import_numpy": "import numpy",
                "import_classgen": "import classgen.cli"}
    for _ in range(IMPORT_SAMPLES):
        for name in rng.sample(list(snippets), len(snippets)):
            with tracer.span("cli.python_c", snippet=name):
                child = run_child(["-c", snippets[name]])
            tally.record(f"python -c {snippets[name]!r}", child.err if child.code else None)
    walls = [median(tracer.durations("cli.python_c", snippet=name)) for name in snippets]
    for name, wall, before in zip(snippets, walls, [0.0, *walls]):
        metrics[f"cli.{name}_s"] = wall - before

    bigfield = list(BIGFIELD_SPECS.items())
    rng.shuffle(bigfield)
    for spec, (p, k) in bigfield:
        with tracer.span("probe", mode="field", spec=spec):
            result = probe("field", str(p), str(k), spec, tracer=tracer)
        ok = result["field"] == json.loads(gens_fixture(spec))["field"]
        tally.record(f"field_create {p} {k}", None if ok else f"field {result['field']}")
        metrics[f"gf.field_create.{p}_{k}_s"] = tracer.total("gf.field_create", field=f"{p}_{k}")
    metrics["families.generator_pair.bigfield_s"] = tracer.total(
        "families.generator_pair", group="bigfield")

    with tracer.span("probe", mode="tables"):
        probe("tables", *BFS_SPECS, *GRID_SPECS, tracer=tracer)
    metrics["gf.tables_s"] = tracer.total("gf.tables")

    bfs = list(BFS_SPECS.items())
    rng.shuffle(bfs)
    for spec, want in bfs:
        with tracer.span("probe", mode="closure", spec=spec):
            result = probe("closure", spec, tracer=tracer)
        ok = not result["truncated"] and result["size"] == result["order"] == want
        tally.record(f"closure {spec}", None if ok else f"size {result['size']}")
        label = closure_label(spec)
        seconds = tracer.total("closure.closure", group="bfs", spec=spec)
        metrics.update({
            f"closure.{label}.s": seconds,
            f"closure.{label}.elems_per_s": result["size"] / seconds,
            f"closure.{label}.peak_rss_mb": result["peak_rss_mb"],
            f"closure.{label}.size": result["size"],
            f"closure.{label}.rounds": result["rounds"],
        })

    sys.path.insert(0, str(SRC))
    # The first untraced segment fills the field caches and tables; the
    # second and the traced one then do the same work.
    for _ in range(2):
        start = time.perf_counter()
        in_process_segment(Tracer(enabled=False), Random(seed), tally)
    metrics["trace.untraced_s"] = time.perf_counter() - start
    with tracer.span("in_process_segment"):
        in_process_segment(tracer, Random(seed), tally)
    metrics["trace.traced_s"] = tracer.total("in_process_segment")
    metrics["families.generator_pair.grid_s"] = tracer.total(
        "families.generator_pair", group="grid")
    metrics["forms.is_member.grid_s"] = tracer.total("forms.is_member")
    metrics["closure.grid_s"] = tracer.total("closure.closure", group="grid")
    metrics["cli.main.grid_s"] = tracer.total("cli.main")

    trace_file = OUT / f"trace-{workload}-{seed}.json"
    trace_file.write_text(json.dumps({"workload": workload, "seed": seed,
                                      "spans": tracer.spans}))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="classgen benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "classgen" / "__init__.py").is_file():
        print(f"error: no classgen source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    OUT.mkdir(exist_ok=True)
    print(f"machine: {json.dumps(machine())}")
    # Untimed: compile bytecode and warm the file cache before any sample.
    run_child(["-m", "classgen", "order", "--family", "sl", "--degree", "2", "--q", "3"])

    tally = Tally()
    notes: list[str] = []
    if args.trace:
        values, units = layer_suite(args.workload, args.seed, tally), PER_LAYER
    else:
        values = end_to_end(args.workload, args.seed, args.seconds, tally, notes)
        units = END_TO_END
    if set(values) != set(units):
        raise RuntimeError(f"metric names differ from the declared set: "
                           f"{sorted(set(values) ^ set(units))}")
    for line in notes + tally.errors:
        print(line)
    for name, unit in units.items():
        value = values[name]
        print(f"{name}: {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
