"""Run perfbench on a base revision and on the working tree, in pairs.

Usage::

    python3 tools/bench_pairs.py BASE_REV PAIRS OUT

For seeds 2..PAIRS+1 and each workload in ``BENCHMARK.json``, runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0``, T being
its ``run_seconds``, once in a detached git worktree of BASE_REV
("parent") and once in the working tree ("change"), alternating which
side runs first from one seed to the next.
Each run's ``record.json`` is tagged with its side and written to OUT as a
JSON list, in the format of the committed ``BENCH_*.json`` files: the
interpreter path is dropped, ``module`` is relative to the measured
checkout, a change side whose ``src/`` differs from HEAD records
``commit: null`` (its ``source_sha256`` names the code), and ``src_lines``
is the line count of the side's ``src/``.  ``env`` gives the values (or
null) of ``PYTHONUNBUFFERED`` and ``PYTHONDONTWRITEBYTECODE``, which every
run inherits: the one makes the CLI's stdout write-through, the other
recompiles the package at every start, and both change what a CLI wall
time holds.  Then prints each side's median
[quartiles] of every end-to-end metric, the ratio of the change's median
to the parent's (its base, printed first), the pairs the change won and a
verdict, the ``src/`` line count of both sides, and each side's
``cpus_usable`` from its records.  A run with fewer than 2 usable CPUs
gets a warning on stderr: there the CLI's walk and writer share one CPU,
so their overlap cannot show.  The verdict is the
first of these that holds:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's ``BENCHMARK.json`` bound (a fraction of the parent's
  median);
* ``unresolved``: the parent's interquartile range is wider than that
  bound, so the runs cannot show a change inside it, and not every change
  run beats every parent run;
* ``gain``: the change wins at least 9 in 10 pairs and its median beats
  the parent's by more than the parent's interquartile range;
* ``same``.

When a perfbench run fails, the runs before it are still written to OUT,
the failed side, workload and seed are printed to stderr, and the exit
status is 1, with no summary.  A run fails when ``run.py`` exits non-zero,
or when its ``record.json`` lists ``problems``: its checker found wrong
answers, which ``run.py`` reports with exit status 0; the first problem is
printed.  The worktree is removed on exit; nothing is written under
``perfbench/``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = ("PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


class WrongAnswers(Exception):
    """A perfbench run whose checker found wrong answers; the message is the first."""


def run_side(side: str, root: str, workload: str, seed: int, seconds: int) -> dict:
    print(f"{side} {workload} seed={seed}", file=sys.stderr, flush=True)
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                    str(seed), "--seconds", str(seconds), "--trace", "0"],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(root, ".perfbench_work", f"{workload}-trace0", "record.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if record.get("problems"):
        raise WrongAnswers(f"wrong answers, the first: {record['problems'][0]}")
    record.pop("executable", None)
    record["module"] = os.path.relpath(record["module"], root)
    if side == "change" and git("status", "--porcelain", "--", "src"):
        record["commit"] = None
    return {"side": side, **record, "env": {name: os.environ.get(name) for name in ENV}}


def src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def spread(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def summarize(entries: list, workloads: list, metrics: list) -> None:
    for workload in workloads:
        runs = {side: {e["seed"]: e["metrics"] for e in entries
                       if e["workload"] == workload and e["side"] == side}
                for side in ("parent", "change")}
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            parent = [m[name] for m in runs["parent"].values()]
            change = [m[name] for m in runs["change"].values()]
            wins = sum(sign * (runs["change"][s][name] - runs["parent"][s][name]) > 0
                       for s in runs["parent"])
            median, change_median = statistics.median(parent), statistics.median(change)
            ratio = change_median / median if median else float("nan")
            gap = sign * (change_median - median)  # > 0: the change is better
            q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (0, 0, 0)
            bound = metric["bound"] * abs(median)
            if -gap > bound:
                verdict = "worse"
            elif q3 - q1 > bound and min(sign * v for v in change) <= max(sign * v for v in parent):
                verdict = "unresolved"
            elif 10 * wins >= 9 * len(parent) and gap > q3 - q1:
                verdict = "gain"
            else:
                verdict = "same"
            print(f"{workload:<16} {name:<18} {spread(parent)} -> {spread(change)}"
                  f"  x{ratio:.3f}  change better in {wins}/{len(parent)}  {verdict}")


def report_cpus(entries: list) -> None:
    """Print each side's ``cpus_usable`` values; warn when a run had fewer than 2."""
    for side in ("parent", "change"):
        cpus = sorted({e["cpus_usable"] for e in entries if e["side"] == side})
        print(f"cpus_usable: {side} {','.join(map(str, cpus))}")
    few = sum(e["cpus_usable"] < 2 for e in entries)
    if few:
        print(f"warning: {few} of {len(entries)} runs had fewer than 2 usable CPUs; the CLI's"
              " walk and writer shared one there, so a gain from their overlap cannot show",
              file=sys.stderr)


def main(argv: list) -> int:
    if len(argv) != 3 or not argv[1].isdigit() or int(argv[1]) < 1:
        print("usage: python3 tools/bench_pairs.py BASE_REV PAIRS OUT", file=sys.stderr)
        return 2
    base_rev, pairs, out = argv[0], int(argv[1]), argv[2]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    entries, failed = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        base = os.path.join(tmp, "base")
        git("worktree", "add", "--detach", base, base_rev)
        try:
            lines = {"parent": src_lines(base), "change": src_lines(ROOT)}
            sides = [("parent", base), ("change", ROOT)]
            runs = [(side, root, workload, seed)
                    for seed in range(2, pairs + 2) for workload in workloads
                    for side, root in (sides if seed % 2 == 0 else sides[::-1])]
            for side, root, workload, seed in runs:
                try:
                    entries.append({**run_side(side, root, workload, seed, spec["run_seconds"]),
                                    "src_lines": lines[side]})
                except (subprocess.CalledProcessError, WrongAnswers) as exc:
                    failed = f"{side} {workload} seed={seed} failed: {exc}"
                    break
        finally:
            git("worktree", "remove", "--force", base)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
    if failed:
        print(f"{failed}\n{len(entries)} earlier runs written to {out}", file=sys.stderr)
        return 1
    summarize(entries, workloads, spec["end_to_end"])
    print(f"src/ lines: parent {lines['parent']} -> change {lines['change']}")
    report_cpus(entries)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
