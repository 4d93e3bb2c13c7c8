"""The verdicts of ``tools/bench_pairs.py`` on synthetic run records, and its failure path."""

import importlib.util
import json
import os
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # IQR 5.5


def entries(workload, rate, time, parent=PARENT):
    """Ten seeds per side, as ``run_side`` tags them; the parent reads ``parent``."""
    return [
        {"side": side, "workload": workload, "seed": seed,
         "metrics": {"rate": rates[i], "time": times[i]}}
        for side, rates, times in (("parent", parent, parent), ("change", rate, time))
        for i, seed in enumerate(range(2, 12))
    ]


def test_summary_gives_one_verdict_per_metric_and_workload(capsys):
    runs = (
        # rate: 9 of 10 pairs won by 11, more than the IQR; time: +5%, inside the bound
        entries("fast", [v + 11 for v in PARENT[:9]] + [100], [v * 1.05 for v in PARENT])
        # rate: -30% against a 0.25 bound; time: +30%
        + entries("slow", [v * 0.7 for v in PARENT], [v * 1.3 for v in PARENT])
        # every pair won, but by less than the parent's IQR
        + entries("noisy", [v + 1 for v in PARENT], [v - 1 for v in PARENT])
    )
    metrics = [{"name": "rate", "better": "higher", "bound": 0.25},
               {"name": "time", "better": "lower", "bound": 0.25}]
    bench_pairs.summarize(runs, ["fast", "slow", "noisy"], metrics)
    lines = capsys.readouterr().out.splitlines()
    assert [(line.split()[0], line.split()[1], line.split()[-1]) for line in lines] == [
        ("fast", "rate", "gain"), ("fast", "time", "same"),
        ("slow", "rate", "worse"), ("slow", "time", "worse"),
        ("noisy", "rate", "same"), ("noisy", "time", "same"),
    ]
    assert "change better in 9/10" in lines[0]
    assert "change better in 10/10" in lines[5]
    # each line gives the change's median over the parent's, its base printed first
    assert " 104.5 [101.8, 107.2] -> 114.5 [111.8, 117.2]  x1.096  " in lines[0]
    assert " 104.5 [101.8, 107.2] -> 109.7 [106.8, 112.6]  x1.050  " in lines[1]
    assert " -> 73.15 [71.22, 75.07]  x0.700  " in lines[2]


WIDE = [60, 70, 80, 90, 100, 110, 120, 130, 140, 150]  # IQR 55, over 0.25 * median 105


def test_a_spread_wider_than_the_bound_is_unresolved(capsys):
    runs = (
        # every pair won by 5, inside the spread: unresolved, not same
        entries("wide", [v + 5 for v in WIDE], [v - 5 for v in WIDE], parent=WIDE)
        # every change run beats every parent run; time gains by less than the IQR
        + entries("clear", [v + 100 for v in WIDE], list(range(50, 60)), parent=WIDE)
        # worse keeps its rule and comes first
        + entries("slow", [v * 0.5 for v in WIDE], [v * 1.5 for v in WIDE], parent=WIDE)
    )
    metrics = [{"name": "rate", "better": "higher", "bound": 0.25},
               {"name": "time", "better": "lower", "bound": 0.25}]
    bench_pairs.summarize(runs, ["wide", "clear", "slow"], metrics)
    lines = capsys.readouterr().out.splitlines()
    assert [(line.split()[0], line.split()[1], line.split()[-1]) for line in lines] == [
        ("wide", "rate", "unresolved"), ("wide", "time", "unresolved"),
        ("clear", "rate", "gain"), ("clear", "time", "same"),
        ("slow", "rate", "worse"), ("slow", "time", "worse"),
    ]


def test_a_failed_run_keeps_the_runs_before_it(tmp_path, monkeypatch, capsys):
    calls = []

    def run_side(side, root, workload, seed, seconds):
        calls.append((side, workload, seed, seconds))
        if len(calls) == 3:
            raise bench_pairs.subprocess.CalledProcessError(1, ["perfbench/run.py"])
        return {"side": side, "workload": workload, "seed": seed}

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "src_lines",
                        lambda root: 1417 if root == bench_pairs.ROOT else 1464)
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["BASE", "10", str(out)]) == 1
    # the run length is BENCHMARK.json's; seed 2 runs the parent side first
    spec = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    first, second = (w["name"] for w in spec["workloads"][:2])
    assert calls == [("parent", first, 2, spec["run_seconds"]),
                     ("change", first, 2, spec["run_seconds"]),
                     ("parent", second, 2, spec["run_seconds"])]
    # each entry carries its side's src/ line count
    assert json.loads(out.read_text()) == [
        {"side": "parent", "workload": first, "seed": 2, "src_lines": 1464},
        {"side": "change", "workload": first, "seed": 2, "src_lines": 1417},
    ]
    captured = capsys.readouterr()
    assert f"parent {second} seed=2 failed" in captured.err
    assert captured.out == ""


def test_a_run_with_wrong_answers_fails(tmp_path, monkeypatch, capsys):
    # run.py exits 0 when its checker finds wrong lines: its record lists them
    problems = iter([[], ["2 totals smaller than the line before", "3 negative totals"]])
    real = bench_pairs.run_side

    def run_side(side, root, workload, seed, seconds):
        work = tmp_path / ".perfbench_work" / f"{workload}-trace0"
        work.mkdir(parents=True, exist_ok=True)
        (work / "record.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "module": str(tmp_path / "m.py"),
             "problems": next(problems)}))
        return real(side, str(tmp_path), workload, seed, seconds)

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "src_lines", lambda root: 1464)
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["BASE", "10", str(out)]) == 1
    spec = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    first = spec["workloads"][0]["name"]
    assert [(e["side"], e["workload"], e["seed"], e["problems"])
            for e in json.loads(out.read_text())] == [("parent", first, 2, [])]
    captured = capsys.readouterr()
    assert (f"change {first} seed=2 failed: wrong answers, the first: "
            "2 totals smaller than the line before\n") in captured.err
    assert "1 earlier runs written to" in captured.err
    assert captured.out == ""


def test_src_lines_counts_every_python_file_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\nz = 3\n")
    (tmp_path / "src" / "pkg" / "b.py").write_text("w = 4\nv = 5")
    (tmp_path / "src" / "notes.txt").write_text("not code\n")
    assert bench_pairs.src_lines(str(tmp_path)) == 5


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_each_entry_records_the_interpreter_settings(tmp_path, monkeypatch, unbuffered):
    work = tmp_path / ".perfbench_work" / "w-trace0"
    work.mkdir(parents=True)
    (work / "record.json").write_text(json.dumps(
        {"workload": "w", "seed": 2, "executable": "/usr/bin/python3",
         "module": str(tmp_path / "src" / "topk_subsets" / "__init__.py")}))
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    if unbuffered is None:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    else:
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    entry = bench_pairs.run_side("parent", str(tmp_path), "w", 2, 25)
    assert entry == {
        "side": "parent", "workload": "w", "seed": 2,
        "module": os.path.join("src", "topk_subsets", "__init__.py"),
        "env": {"PYTHONUNBUFFERED": unbuffered, "PYTHONDONTWRITEBYTECODE": "1"},
    }


def test_cpus_usable_is_printed_per_side_and_one_cpu_warns(capsys):
    runs = [{"side": side, "cpus_usable": cpus}
            for side, cpus in (("parent", 2), ("parent", 2), ("change", 2), ("change", 1))]
    bench_pairs.report_cpus(runs)
    captured = capsys.readouterr()
    assert captured.out == "cpus_usable: parent 2\ncpus_usable: change 1,2\n"
    assert captured.err.startswith("warning: 1 of 4 runs had fewer than 2 usable CPUs")
    bench_pairs.report_cpus(runs[:3])
    assert capsys.readouterr().err == ""
