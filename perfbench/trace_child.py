"""Traced in-process run: spans around the public functions of each layer.

Usage: python3 trace_child.py SRC INPUT ALGO OUTPUT K WORKDIR

The spans are recorded from here, around calls into the package, never
from inside it:

* ``pool``: ``BoundedPool.insert`` / ``extract_min`` / ``prune_max``,
  through a subclass put where ``enumerators`` looks up ``BoundedPool``;
* ``shifts``: ``compact_children`` and ``final_dag_children``, wrapped
  where ``enumerators`` looks them up;
* ``enumerators``: each ``next()`` on the ``topk()`` stream;
* ``core``: ``load_input`` and each ``next()`` on ``expand_deltas``;
* ``cli``: ``main``, with stdout bound to a counting writer over a
  regular file whose ``write`` and ``flush`` calls are spans too.

Phases, in order:

1. untraced drain of the workload's stream: stream time, the gap between
   consecutive results, and GC collections (``gc.get_stats()``);
2. the same drain traced: pool, shifts, enumerators and expand metrics;
3. ``cli.main`` traced, writing the workload's TSV to a file: load and
   formatting metrics;
4. probes for layers the workload's own path never calls, on the same
   input: a ``bitvec`` drain for ``final_dag_children`` and a ``compact``
   drain through ``expand_deltas`` for ``compact_children`` and
   ``expand_deltas``.  A probe supplies only the metrics the path lacks.

Tracing overhead is phase 2's stream time over phase 1's.  Totals from
every drain and the TSV are written to WORKDIR for the parent to check;
the spans of every phase are written there when the run ends.  Prints
one JSON line.
"""

import gc
import json
import os
import sys
from array import array
from time import perf_counter_ns as now

NAMES = (
    "cli.main",
    "cli.write",
    "cli.flush",
    "core.load_input",
    "core.expand_deltas",
    "enumerators.next",
    "pool.insert",
    "pool.extract_min",
    "pool.prune_max",
    "shifts.compact_children",
    "shifts.final_dag_children",
)
ID = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """Spans in flat arrays: name id, parent span index, start, end (ns)."""

    def __init__(self) -> None:
        self.name = array("B")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.children = [0] * len(NAMES)  # items returned by the shifts rules

    def begin(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(i)
        self.start.append(now())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = now()
        self.stack.pop()

    def summary(self) -> dict:
        """Per span name: calls, total duration and self time (ns)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0] * len(dur)
        for d, p in zip(dur, self.parent):
            if p >= 0:
                covered[p] += d
        calls = [0] * len(NAMES)
        total = [0] * len(NAMES)
        own = [0] * len(NAMES)
        for n, d, c in zip(self.name, dur, covered):
            calls[n] += 1
            total[n] += d
            own[n] += d - c
        return {
            NAMES[i]: {"calls": calls[i], "total_ns": total[i], "self_ns": own[i],
                       "children": self.children[i]}
            for i in range(len(NAMES)) if calls[i]
        }

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def traced_iter(tracer: Tracer, name: str, it):
    """Yield from ``it`` with one span per ``next()``; consumer time is outside."""
    begin, finish, nid = tracer.begin, tracer.finish, ID[name]
    it = iter(it)
    while True:
        i = begin(nid)
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            finish(i)
        yield item


def traced_call(tracer: Tracer, name: str, fn, count_children: bool = False):
    begin, finish, nid = tracer.begin, tracer.finish, ID[name]
    children = tracer.children

    def call(*args, **kwargs):
        i = begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            finish(i)
        if count_children:
            children[nid] += len(out)
        return out

    return call


def traced_pool_class(base, tracer: Tracer):
    begin, finish = tracer.begin, tracer.finish
    ins, ext, pru = ID["pool.insert"], ID["pool.extract_min"], ID["pool.prune_max"]

    class TracedPool(base):
        __slots__ = ()

        def insert(self, item, key):
            i = begin(ins)
            try:
                return base.insert(self, item, key)
            finally:
                finish(i)

        def extract_min(self):
            i = begin(ext)
            try:
                return base.extract_min(self)
            finally:
                finish(i)

        def prune_max(self):
            i = begin(pru)
            try:
                return base.prune_max(self)
            finally:
                finish(i)

    return TracedPool


class CountingWriter:
    """Text sink over a regular file that times write/flush calls and counts flushes."""

    def __init__(self, fh, tracer: Tracer) -> None:
        self.fh = fh
        self.tracer = tracer
        self.flushes = 0

    def write(self, text: str) -> int:
        i = self.tracer.begin(ID["cli.write"])
        try:
            return self.fh.write(text)
        finally:
            self.tracer.finish(i)

    def flush(self) -> None:
        i = self.tracer.begin(ID["cli.flush"])
        try:
            self.fh.flush()
        finally:
            self.tracer.finish(i)
            self.flushes += 1


class Layers:
    """The package's modules, with their originals kept for re-patching."""

    def __init__(self, src: str) -> None:
        sys.path.insert(0, src)
        from topk_subsets import cli, core, enumerators

        self.cli, self.core, self.enumerators = cli, core, enumerators
        self.orig = {
            "BoundedPool": enumerators.BoundedPool,
            "compact_children": enumerators.compact_children,
            "final_dag_children": enumerators.final_dag_children,
            "topk": enumerators.topk,
            "expand_deltas": core.expand_deltas,
            "load_input": core.load_input,
        }

    def install(self, tracer: Tracer) -> None:
        o, enum, cli = self.orig, self.enumerators, self.cli
        enum.BoundedPool = traced_pool_class(o["BoundedPool"], tracer)
        enum.compact_children = traced_call(
            tracer, "shifts.compact_children", o["compact_children"], True)
        enum.final_dag_children = traced_call(
            tracer, "shifts.final_dag_children", o["final_dag_children"], True)
        cli.topk = self.traced_topk(tracer)
        cli.expand_deltas = self.traced_expand(tracer)
        cli.load_input = traced_call(tracer, "core.load_input", o["load_input"])

    def traced_topk(self, tracer: Tracer):
        topk = self.orig["topk"]

        def call(*args, **kwargs):
            stream, metrics = topk(*args, **kwargs)
            return traced_iter(tracer, "enumerators.next", stream), metrics

        return call

    def traced_expand(self, tracer: Tracer):
        expand = self.orig["expand_deltas"]
        return lambda stream: traced_iter(tracer, "core.expand_deltas", expand(stream))


def drain(stream, stamps=None) -> list:
    totals = []
    keep = totals.append
    if stamps is None:
        for item in stream:
            keep(item.total)
    else:
        mark = stamps.append
        for item in stream:
            mark(now())
            keep(item.total)
    return totals


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an already sorted list."""
    idx = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[idx]


def phase_metrics(summary: dict, results: int, run_metrics) -> dict:
    """Per-layer metrics of one traced drain of ``results`` items."""
    def s(name, key):
        return summary.get(name, {}).get(key, 0)

    ins, ext, pru = (s(f"pool.{op}", "calls") for op in ("insert", "extract_min", "prune_max"))
    out = {
        "pool.insert_ns": s("pool.insert", "total_ns") / max(ins, 1),
        "pool.extract_ns": s("pool.extract_min", "total_ns") / max(ext, 1),
        "pool.prune_ns": s("pool.prune_max", "total_ns") / max(pru, 1),
        "pool.ops_per_result": (ins + ext + pru) / results,
        "pool.extracted_per_insert": ext / max(ins, 1),
        "pool.peak_entries": run_metrics.peak_size,
        "enumerators.self_ns_per_result": s("enumerators.next", "self_ns") / results,
    }
    for rule in ("compact_children", "final_dag_children"):
        calls = s(f"shifts.{rule}", "calls")
        if calls:
            out[f"shifts.{rule}_ns"] = s(f"shifts.{rule}", "total_ns") / calls
            out["shifts.children_per_call"] = s(f"shifts.{rule}", "children") / calls
    if s("core.expand_deltas", "calls"):
        out["core.expand_ns_per_result"] = s("core.expand_deltas", "self_ns") / results
    return out


def main(argv: list) -> int:
    src, path, algo, output, k, workdir = argv
    k = int(k)
    expand = algo == "compact" and output == "subsets"
    layers = Layers(src)
    with open(path, encoding="utf-8") as fh:
        r = layers.core.load_input(fh)
    report = {"metrics": {}, "checks": {}}
    metrics = report["metrics"]

    def write_totals(name: str, totals: list, asked: int) -> None:
        with open(os.path.join(workdir, f"trace-{name}.totals"), "w", encoding="ascii") as fh:
            fh.write("\n".join(map(str, totals)) + "\n")
        report["checks"][name] = {"file": f"trace-{name}.totals", "k": asked}

    def stream_of(tracer, variant, through_expand, kk):
        o = layers.orig
        stream, run_metrics = o["topk"](r, kk, variant)
        if tracer is not None:
            stream = traced_iter(tracer, "enumerators.next", stream)
        if through_expand:
            stream = (layers.traced_expand(tracer) if tracer else o["expand_deltas"])(stream)
        return stream, run_metrics

    # 1. untraced drain
    stats0 = gc.get_stats()
    stamps = []
    t0 = now()
    stream, _ = stream_of(None, algo, expand, k)
    totals = drain(stream, stamps)
    untraced_ns = now() - t0
    collections = sum(a["collections"] for a in gc.get_stats()) - sum(
        a["collections"] for a in stats0)
    gaps = sorted(b - a for a, b in zip([t0] + stamps, stamps))
    write_totals("untraced", totals, k)
    del stream, totals, stamps
    metrics["enumerators.gap_us_p50"] = percentile(gaps, 0.5) / 1e3
    metrics["enumerators.gap_us_p999"] = percentile(gaps, 0.999) / 1e3
    metrics["enumerators.gap_samples"] = len(gaps)
    metrics["enumerators.gc_collections"] = collections
    del gaps

    tracers = {}

    # 2. the same drain, traced
    tracer = tracers["drain"] = Tracer()
    layers.install(tracer)
    t0 = now()
    stream, run_metrics = stream_of(tracer, algo, expand, k)
    totals = drain(stream)
    traced_ns = now() - t0
    write_totals("traced", totals, k)
    metrics.update(phase_metrics(tracer.summary(), len(totals), run_metrics))
    metrics["trace.overhead_ratio"] = traced_ns / untraced_ns
    del stream, totals

    # 3. cli.main, traced, into a regular file
    tracer = tracers["cli"] = Tracer()
    layers.install(tracer)
    tsv = os.path.join(workdir, "trace-cli.tsv")
    argv_cli = ["topk", "--input", path, "--k", str(k), "--algo", algo, "--output", output]
    saved = sys.stdout
    with open(tsv, "w", encoding="utf-8") as fh:
        sys.stdout = writer = CountingWriter(fh, tracer)
        try:
            i = tracer.begin(ID["cli.main"])
            code = layers.cli.main(argv_cli)
            tracer.finish(i)
        finally:
            sys.stdout = saved
    summary = tracer.summary()
    lines = summary["cli.write"]["calls"]
    report["checks"]["cli"] = {"file": "trace-cli.tsv", "k": k, "exit_code": code}
    metrics["core.load_input_s"] = summary["core.load_input"]["total_ns"] / 1e9
    metrics["cli.format_ns_per_result"] = summary["cli.main"]["self_ns"] / lines
    metrics["cli.flushes_per_result"] = writer.flushes / lines

    # 4. probes for layers off the workload's path
    probes = []
    if algo == "compact":
        probes.append(("bitvec", False, max(10, min(k, 10**7 // r.n))))
    if not expand:
        probes.append(("compact", True, min(k, 20000)))
    for variant, through_expand, kk in probes:
        name = f"probe-{variant}"
        tracer = tracers[name] = Tracer()
        layers.install(tracer)
        stream, run_metrics = stream_of(tracer, variant, through_expand, kk)
        totals = drain(stream)
        write_totals(name, totals, kk)
        for key, value in phase_metrics(tracer.summary(), len(totals), run_metrics).items():
            metrics.setdefault(key, value)
        del stream, totals

    report["spans"] = {}
    for name, tracer in tracers.items():
        tracer.dump(os.path.join(workdir, f"spans-{name}.bin"))
        report["spans"][name] = len(tracer.name)
    report["span_names"] = NAMES
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
