"""Measurements that must run inside a fresh interpreter.

The harness (run.py) starts this script as a child process, one mode per
process, and reads the JSON object it prints as its last stdout line.

    python perfbench/probe.py setup SPEC...
        time `import classgen`, then build each spec's generator pair and
        field tables
    python perfbench/probe.py field P K SPEC
        trace field_create(P, K), then generator_pair(SPEC) on that field
    python perfbench/probe.py tables SPEC...
        trace FieldCtx.tables() of each distinct field of the specs
    python perfbench/probe.py closure SPEC
        build one generator pair and its field tables, then trace closure()
        of the pair and report the peak RSS
    python perfbench/probe.py reference
        fixed work that uses no classgen code: import numpy, pure-Python
        polynomial arithmetic and numpy products, keys and unique; the
        harness times it to follow the speed of a shared machine

A SPEC is family,degree,q, for example sp,6,2.  Only public classgen API is
used.  Nothing from classgen is imported at module level, so `setup` times
the whole package import.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Spans kept in memory, each with an id, name, start, end, parent id and
    attributes.  Times come from time.perf_counter, which on Linux reads the
    system-wide monotonic clock, so spans of child processes line up with the
    parent's.  A disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def adopt(self, spans: list[dict]) -> None:
        """Append spans recorded by a child process below the open span."""
        offset = len(self.spans)
        below = self._open[-1] if self._open else None
        for s in spans:
            parent = below if s["parent"] is None else s["parent"] + offset
            self.spans.append(dict(s, id=s["id"] + offset, parent=parent))

    def durations(self, name: str, **attrs) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def total(self, name: str, **attrs) -> float:
        return sum(self.durations(name, **attrs))


def parse_spec(text: str):
    from classgen import GroupSpec, parse_family

    family, degree, q = text.split(",")
    return GroupSpec(parse_family(family), int(degree), int(q))


def mode_setup(tracer, *specs):
    start = time.perf_counter()
    import classgen

    imported = time.perf_counter()
    for text in specs:
        classgen.generator_pair(parse_spec(text)).ctx.tables()
    return {"import_s": imported - start, "build_s": time.perf_counter() - imported,
            "file": classgen.__file__}


def mode_field(tracer, p, k, spec):
    from classgen import field_create, field_to_json, generator_pair

    with tracer.span("gf.field_create", field=f"{p}_{k}"):
        ctx = field_create(int(p), int(k))
    with tracer.span("families.generator_pair", group="bigfield", spec=spec):
        generator_pair(parse_spec(spec))
    return {"field": field_to_json(ctx)}


def mode_tables(tracer, *specs):
    from classgen import field_for

    for ctx in dict.fromkeys(field_for(parse_spec(text)) for text in specs):
        with tracer.span("gf.tables", field=f"{ctx.p}_{ctx.k}"):
            ctx.tables()
    return {}


def mode_closure(tracer, spec):
    import resource

    from classgen import closure, generator_pair, theoretical_order

    pair = generator_pair(parse_spec(spec))
    pair.ctx.tables()
    with tracer.span("closure.closure", group="bfs", spec=spec):
        result = closure([pair.a, pair.b])
    return {"size": result.size, "truncated": result.truncated,
            "rounds": result.frontier_rounds, "order": theoretical_order(pair.spec),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _polymulmod(a, b, modulus, p):
    k = len(modulus) - 1
    out = [0] * (2 * k)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    for d in range(2 * k - 1, k - 1, -1):
        c = out[d]
        if c:
            for j in range(k + 1):
                out[d - k + j] = (out[d - k + j] - c * modulus[j]) % p
    return tuple(out[:k])


def mode_reference(tracer):
    """The same kinds of work as a classgen run, in code of its own: an
    interpreter start, the numpy import, polynomial arithmetic in Python
    (as in field construction) and matrix products, row keys and unique
    (as in closure).  The checks only confirm that the work was done."""
    import numpy as np

    modulus = (2, 1, 0, 0, 0, 0, 0, 1)  # x^7 + x + 2 over GF(3)
    x, power, seen = (0, 1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0), set()
    for _ in range(20_000):
        power = _polymulmod(power, x, modulus, 3)
        seen.add(power)
    rows = np.random.default_rng(0).integers(0, 5, size=(60_000, 9))
    step = (np.eye(9, dtype=np.int64) + np.eye(9, k=1, dtype=np.int64)
            + 2 * np.eye(9, k=2, dtype=np.int64))  # invertible mod 5
    weights = 5 ** np.arange(9, dtype=np.int64)
    distinct = []
    for _ in range(4):
        rows = rows @ step % 5
        distinct.append(len(np.unique(rows @ weights)))
    # The powers of x modulo x^7 + x + 2 repeat with period 728; an
    # invertible step keeps the number of distinct rows.
    return {"ok": len(seen) == 728 and len(set(distinct)) == 1}


MODES = {"setup": mode_setup, "field": mode_field, "tables": mode_tables,
         "closure": mode_closure, "reference": mode_reference}


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in MODES:
        print(f"usage: probe.py {{{','.join(MODES)}}} ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    result = MODES[argv[0]](tracer, *argv[1:])
    print(json.dumps({**result, "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
