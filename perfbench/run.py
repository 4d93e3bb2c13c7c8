"""One-command benchmark of the `topk-subsets topk` CLI and the `topk()` stream.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compact-sums --seed 1 --seconds 25 --trace 0

With ``--trace 0`` a run repeats whole rounds until ``--seconds`` have
passed (at least MIN_ROUNDS of them).  A round is, in this order:

* ``setup``: the workload's CLI command at ``--k 1``, spawn to exit;
* ``main``: the workload's CLI command at its full k, stdout to a regular
  file, spawn to exit, peak RSS from the child's rusage;
* ``api``: a fresh interpreter draining ``topk()`` (see api_child.py).

It prints the medians over rounds of ``results_per_s``, ``setup_s``,
``peak_rss_mb`` and ``api_results_per_s``.  With ``--trace 1`` it repeats
traced in-process rounds (see trace_child.py) instead and prints the
per-layer metrics, medians over rounds.  End-to-end metrics never come
from a traced round.

Inputs come from this file's own seeded generator and are written once
per run, before any timing, to ``.perfbench_work/`` at the checkout root.
Every result line is checked after the timed rounds (see checker.py);
each line is one operation.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from checker import Check, check_lines, check_totals  # noqa: E402


@dataclass(frozen=True)
class Workload:
    n: int
    k: int
    algo: str
    output: str
    setup_reps: int  # --k 1 runs per round; interpreter start alone needs several


# Values are uniform integers in [1, VALUE_MAX], as in the acceptance gates.
# Why each workload is here: BENCHMARK.json and README.md.
VALUE_MAX = 10**6

WORKLOADS = {
    "compact-sums": Workload(10**6, 150_000, "compact", "sums", 1),
    "compact-subsets": Workload(1000, 150_000, "compact", "subsets", 3),
    "bitvec-subsets": Workload(3000, 15_000, "bitvec", "subsets", 3),
}

# (name, unit, better); bounds live in BENCHMARK.json.
END_TO_END = (
    ("results_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("api_results_per_s", "1/s", "higher"),
)
PER_LAYER = (
    ("core.load_input_s", "s", "lower"),
    ("core.expand_ns_per_result", "ns", "lower"),
    ("pool.insert_ns", "ns", "lower"),
    ("pool.extract_ns", "ns", "lower"),
    ("pool.prune_ns", "ns", "lower"),
    ("pool.ops_per_result", "count", "lower"),
    ("pool.extracted_per_insert", "ratio", "higher"),
    ("pool.peak_entries", "count", "lower"),
    ("shifts.compact_children_ns", "ns", "lower"),
    ("shifts.final_dag_children_ns", "ns", "lower"),
    ("shifts.children_per_call", "count", "lower"),
    ("enumerators.self_ns_per_result", "ns", "lower"),
    ("enumerators.gap_us_p50", "us", "lower"),
    ("enumerators.gap_us_p999", "us", "lower"),
    ("enumerators.gap_samples", "count", "higher"),
    ("enumerators.gc_collections", "count", "lower"),
    ("cli.format_ns_per_result", "ns", "lower"),
    ("cli.flushes_per_result", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 1
CHILD_TIMEOUT_S = 150
HERE = os.path.dirname(os.path.abspath(__file__))


def make_values(workload: str, seed: int, n: int) -> list:
    """Seeded uniform integers in [1, VALUE_MAX], in generation order."""
    bits = random.Random(f"perfbench:{workload}:{seed}").getrandbits
    return [(bits(64) * VALUE_MAX >> 64) + 1 for _ in range(n)]


def run_record(root: str, args, wl: Workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "topk_subsets", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "n": wl.n, "k": wl.k, "algo": wl.algo, "output": wl.output,
        "python": sys.version.split()[0], "executable": sys.executable,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit, "source_sha256": digest.hexdigest(),
    }


class Runner:
    """Spawns the program's processes from one checkout, one at a time."""

    def __init__(self, root: str, work: str, wl: Workload) -> None:
        self.root, self.work, self.wl = root, work, wl
        self.src = os.path.join(root, "src")
        self.input = os.path.join(work, "input.txt")
        self.env = dict(os.environ, PYTHONPATH=self.src)

    def cli(self, k: int, out_path: str) -> dict:
        """Run `topk-subsets topk` once; wall time spawn to exit and peak RSS."""
        wl = self.wl
        cmd = [sys.executable, "-m", "topk_subsets.cli", "topk", "--input", self.input,
               "--k", str(k), "--algo", wl.algo, "--output", wl.output]
        err_path = out_path + ".err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode,
                "stderr": stderr}

    def child(self, script: str, *extra: str) -> dict:
        wl = self.wl
        cmd = [sys.executable, os.path.join(HERE, script), self.src, self.input, wl.algo,
               wl.output, str(wl.k), *extra]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=self.root,
                              env=self.env, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"{script} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def parse_totals(text: str) -> list:
    return [int(t) for t in text.split()]


def mismatches(a: list, b: list) -> int:
    """Positions at which two sequences differ, counting any length difference."""
    return sum(1 for x, y in zip(a, b) if x != y) + abs(len(a) - len(b))


def run_failed(run: dict, lines: int, what: str) -> "Check | None":
    """A run that exits non-zero or writes to stderr fails every line it owed."""
    if run["code"] == 0 and not run["stderr"]:
        return None
    chk = Check(attempted=lines)
    chk.fail(lines, f"{what}: exit {run['code']}, stderr {run['stderr'][:200]!r}")
    return chk


def measure(runner: Runner, values: list, seconds: int) -> tuple[dict, Check]:
    wl, work = runner.wl, runner.work
    main_out = os.path.join(work, "main.tsv")
    setup_out = os.path.join(work, "setup.tsv")
    api_out = os.path.join(work, "api.totals")
    subsets = wl.output == "subsets"
    first = min(values)
    # --k 1 answers the smallest value alone, position 1 of the sorted input
    setup_line = f"1\t{first}\t1\n" if subsets else f"1\t{first}\n"
    chk = Check()

    def check_setup(run: dict) -> None:
        bad = run_failed(run, 1, "setup run") or Check(attempted=1)
        if not bad.failed and read(setup_out).decode() != setup_line:
            bad.fail(1, f"--k 1 printed {read(setup_out)[:80]!r}")
        chk.add(bad)

    check_setup(runner.cli(1, setup_out))  # warm-up: compiles bytecode caches
    rounds = []
    outputs = {}  # sha256 -> bytes of each distinct main output
    api_texts = {}
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        setup = []
        for _ in range(wl.setup_reps):
            run = runner.cli(1, setup_out)
            check_setup(run)
            setup.append(run["wall_s"])
        main = runner.cli(wl.k, main_out)
        body = read(main_out)
        main["sha"] = hashlib.sha256(body).hexdigest()
        outputs.setdefault(main["sha"], body)
        api = runner.child("api_child.py", api_out)
        api_text = read(api_out).decode()
        api["sha"] = hashlib.sha256(api_text.encode()).hexdigest()
        api_texts.setdefault(api["sha"], api_text)
        rounds.append({"setup": setup, "main": main, "api": api})

    # -- checks, outside the timed rounds
    reference = rounds[0]["main"]["sha"]
    checked = {}
    for sha, body in outputs.items():
        checked[sha] = check_lines(body.decode(), values, wl.k, subsets)
    ref_totals = checked[reference][1]
    api_checked = {}
    for sha, text in api_texts.items():
        totals = parse_totals(text)
        c = check_totals(values, totals, wl.k)
        differ = mismatches(totals, ref_totals)
        if differ:
            c.fail(differ, f"api totals differ from the CLI's at {differ} ranks")
        api_checked[sha] = c
    for r in rounds:
        main = r["main"]
        c = run_failed(main, wl.k, "main run")
        if c is None:
            ref = checked[main["sha"]][0]
            c = Check(ref.attempted, ref.failed, list(ref.problems))
        if main["sha"] != reference:
            differ = mismatches(outputs[main["sha"]].split(b"\n"),
                                outputs[reference].split(b"\n"))
            c.fail(differ, f"output differs from round 1 at {differ} lines")
        chk.add(c)
        chk.add(api_checked[r["api"]["sha"]])
        if r["api"]["results"] != wl.k:
            chk.fail(abs(wl.k - r["api"]["results"]), "api drained a wrong count")

    series = {
        "results_per_s": [wl.k / r["main"]["wall_s"] for r in rounds],
        "setup_s": [s for r in rounds for s in r["setup"]],
        "peak_rss_mb": [r["main"]["rss_mb"] for r in rounds],
        "api_results_per_s": [r["api"]["results"] * 1e9 / r["api"]["drain_ns"] for r in rounds],
    }
    metrics = {name: statistics.median(values) for name, values in series.items()}
    samples = {
        "rounds": len(rounds),
        **{name: [round(v, 4) for v in values] for name, values in series.items()},
        "gc_enabled": rounds[0]["api"]["gc_enabled"],
        "module": rounds[0]["api"]["module"],
    }
    return {"metrics": metrics, "samples": samples}, chk


def trace(runner: Runner, values: list, seconds: int) -> tuple[dict, Check]:
    wl, work = runner.wl, runner.work
    subsets = wl.output == "subsets"
    chk = Check()
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_TRACE_ROUNDS or time.perf_counter() - start < seconds:
        report = runner.child("trace_child.py", work)
        for name, spec in report["checks"].items():
            text = read(os.path.join(work, spec["file"])).decode()
            if name == "cli":
                c, _ = check_lines(text, values, spec["k"], subsets)
                if spec["exit_code"] != 0:
                    c.fail(c.attempted, f"cli.main returned {spec['exit_code']}")
            else:
                c = check_totals(values, parse_totals(text), spec["k"])
            chk.add(c)
        rounds.append(report)
    metrics = {
        name: statistics.median(r["metrics"][name] for r in rounds)
        for name, _, _ in PER_LAYER
    }
    samples = {"rounds": len(rounds), "spans": rounds[-1]["spans"],
               "span_names": rounds[-1]["span_names"]}
    return {"metrics": metrics, "samples": samples}, chk


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "topk_subsets", "cli.py")):
        print("perfbench: run from the repository root; src/topk_subsets is missing",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    values = make_values(args.workload, args.seed, wl.n)
    runner = Runner(root, work, wl)
    with open(runner.input, "w", encoding="ascii") as fh:
        fh.write("\n".join(map(str, values)) + "\n")
    record = run_record(root, args, wl)

    if args.trace:
        result, chk = trace(runner, values, args.seconds)
        units = PER_LAYER
    else:
        result, chk = measure(runner, values, args.seconds)
        units = END_TO_END
    record.update(result["samples"])
    record["problems"] = chk.problems
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump({**record, "metrics": result["metrics"]}, fh, indent=1)
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit, _ in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
