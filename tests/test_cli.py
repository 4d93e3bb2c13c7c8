"""End-to-end CLI behavior, mostly through in-process main() calls."""

import io
import os
import subprocess
import sys

import pytest

import topk_subsets
from topk_subsets.cli import main


@pytest.fixture()
def input_file(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("4 2 1 3\n")
    return str(path)


def run_ok(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    return out, err


class TestTopkCommand:
    def test_sums_output(self, input_file, capsys):
        out, err = run_ok(["topk", "--input", input_file, "--k", "5"], capsys)
        assert out == "1\t1\n2\t2\n3\t3\n4\t3\n5\t4\n"
        assert err == ""

    def test_subsets_output_matches_across_algos(self, input_file, capsys):
        seen = {}
        for algo in ("baseline", "dedup", "bitvec", "compact"):
            out, _ = run_ok(
                ["topk", "--input", input_file, "--k", "4",
                 "--algo", algo, "--output", "subsets"],
                capsys,
            )
            seen[algo] = out
        # the two on-demand walks share one DAG order, including ties
        assert seen["compact"] == seen["bitvec"]
        assert seen["bitvec"].splitlines()[0] == "1\t1\t1"
        for text in seen.values():
            assert len(text.splitlines()) == 4

    def test_delta_output(self, input_file, capsys):
        out, _ = run_ok(
            ["topk", "--input", input_file, "--k", "5",
             "--algo", "compact", "--output", "deltas"],
            capsys,
        )
        assert out.splitlines() == [
            "1\t1\t-\t-\t1",
            "2\t2\t1\t1\t2",
            "3\t3\t2\t2\t3",
            "4\t3\t2\t-\t1",
            "5\t4\t3\t3\t4",
        ]

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("5 1"))
        out, _ = run_ok(["topk", "--k", "2"], capsys)
        assert out == "1\t1\n2\t5\n"

    def test_float_mode(self, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_text("0.5 0.25\n")
        out, _ = run_ok(
            ["topk", "--input", str(path), "--k", "3", "--mode", "float"], capsys
        )
        assert out == "1\t0.25\n2\t0.5\n3\t0.75\n"

    def test_metrics_file(self, input_file, tmp_path, capsys):
        mfile = tmp_path / "metrics.txt"
        run_ok(
            ["topk", "--input", input_file, "--k", "15", "--metrics", str(mfile)],
            capsys,
        )
        pairs = dict(
            line.split("=", 1) for line in mfile.read_text().splitlines()
        )
        assert set(pairs) == {
            "total_insertions",
            "peak_size",
            "extractions",
            "prunes",
            "elapsed_ns",
            "reported_count",
        }
        assert pairs["extractions"] == pairs["reported_count"] == "15"
        assert int(pairs["elapsed_ns"]) > 0

    def test_truncation_notice(self, tmp_path, capsys):
        path = tmp_path / "three.txt"
        path.write_text("1 2 3\n")
        out, err = run_ok(["topk", "--input", str(path), "--k", "100"], capsys)
        assert len(out.splitlines()) == 7
        assert "truncated at 7" in err

    def test_dedup_edge_set_accepted(self, input_file, capsys):
        out, _ = run_ok(
            ["topk", "--input", input_file, "--k", "3",
             "--algo", "dedup", "--edge-set", "mmincr"],
            capsys,
        )
        assert out.splitlines() == ["1\t1", "2\t2", "3\t3"]

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # as `topk ... | head -2`: the reader leaves long before the k-th line
        path = tmp_path / "wide.txt"
        path.write_text(" ".join(map(str, range(1, 1001))) + "\n")
        src = os.path.dirname(os.path.dirname(topk_subsets.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        err_path = tmp_path / "stderr.txt"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "topk_subsets.cli", "topk",
                 "--input", str(path), "--k", "100000"],
                stdout=subprocess.PIPE, stderr=err, env=env,
            )
            try:
                head = [proc.stdout.readline() for _ in range(2)]
                proc.stdout.close()
                code = proc.wait(timeout=120)
            finally:
                proc.kill()
        assert head == [b"1\t1\n", b"2\t2\n"]
        assert err_path.read_bytes() == b""
        assert code == 141


class TestFlagErrors:
    """Misuse of the flag surface is exit code 2, before any work happens."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["topk", "--k", "0"],
            ["topk", "--k", "-3"],
            ["topk", "--k", "two"],
            ["topk", "--k", "3", "--algo", "baseline", "--edge-set", "incr"],
            ["topk", "--k", "3", "--algo", "bitvec", "--output", "deltas"],
            ["topk", "--k", "3", "--algo", "quantum"],
            ["verify", "--n-max", "17"],
            ["verify", "--algos", "baseline,bogus"],
            ["bench", "--n-list", "4", "--k-list", "", "--csv", "x.csv"],
            ["dag", "--n", "4"],
            ["dag", "--n", "11", "--dot", "x.dot"],
        ],
        ids=" ".join,
    )
    def test_exit_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert main(["topk", "--input", "/no/such/file", "--k", "2"]) == 3
        assert "cannot read input" in capsys.readouterr().err

    def test_negative_value(self, tmp_path, capsys):
        path = tmp_path / "neg.txt"
        path.write_text("3 -1\n")
        assert main(["topk", "--input", str(path), "--k", "2"]) == 3
        assert "error" in capsys.readouterr().err

    def test_non_finite_float(self, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        path.write_text("1.0 nan\n")
        code = main(["topk", "--input", str(path), "--k", "2", "--mode", "float"])
        assert code == 3


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        out, _ = run_ok(["verify", "--n-max", "5", "--seeds", "2"], capsys)
        lines = out.splitlines()
        assert len(lines) == 4 + 5  # four algos, five structure widths
        assert all(line.endswith("PASS") for line in lines)

    def test_detects_broken_shift_rule(self, capsys, monkeypatch):
        # disable one move type: the walk loses nodes and the sums drift
        monkeypatch.setattr(
            "topk_subsets.shifts.type2_child", lambda node, r: None
        )
        code = main(["verify", "--n-max", "4", "--seeds", "1", "--algos", "bitvec"])
        out, err = capsys.readouterr()
        assert code == 1
        assert "FAIL" in out
        assert "failed" in err

    def test_detects_corrupted_cursor_arithmetic(self, capsys, monkeypatch):
        import topk_subsets.enumerators as en

        real = en.compact_children

        def skewed(node, r, parent_rank):
            kids = real(node, r, parent_rank)
            return kids[:1]  # silently drop one child

        monkeypatch.setattr(en, "compact_children", skewed)
        code = main(["verify", "--n-max", "4", "--seeds", "1", "--algos", "compact"])
        out, _ = capsys.readouterr()
        assert code == 1
        assert "oracle-equivalence[compact]" in out
        assert "FAIL" in out


class TestBenchCommand:
    def test_grid_to_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        out, _ = run_ok(
            ["bench", "--n-list", "4,5", "--k-list", "3", "--algos",
             "baseline,compact", "--reps", "2", "--seed", "1",
             "--csv", str(csv_path)],
            capsys,
        )
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,k,variant,seed,elapsed_ns,total_insertions,peak_size,reported_count"
        assert len(lines) == 1 + 2 * 1 * 2 * 2
        assert "8 rows" in out
        assert "median_ns" in out


class TestDagCommand:
    def test_export_n4(self, tmp_path, capsys):
        dot = tmp_path / "n4.dot"
        out, _ = run_ok(["dag", "--n", "4", "--dot", str(dot)], capsys)
        assert "nodes=15 edges=14" in out
        text = dot.read_text()
        assert text.startswith("digraph topk_subsets {")
        assert '"1010" -> "1001" [label="Type1"];' in text
        assert text.rstrip().endswith("}")

    def test_single_node(self, tmp_path, capsys):
        dot = tmp_path / "n1.dot"
        out, _ = run_ok(["dag", "--n", "1", "--dot", str(dot)], capsys)
        assert "nodes=1 edges=0" in out
        assert '"1";' in dot.read_text()
