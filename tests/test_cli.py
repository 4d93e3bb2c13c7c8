"""End-to-end CLI behavior, mostly through in-process main() calls."""

import codecs
import contextlib
import hashlib
import io
import itertools
import os
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import topk_subsets
from topk_subsets import cli, core, enumerators
from topk_subsets.bench import gen_float_instance, splitmix64_stream
from topk_subsets.cli import main
from topk_subsets.core import load_input
from topk_subsets.enumerators import Variant, topk

ALGOS = [v.value for v in Variant]


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
        for algo in ALGOS:
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

    @pytest.mark.parametrize("data, code, out", [
        (b"3\r1\r2", 0, "1\t1\n2\t2\n"),
        (b"3\r1\r\xe9", 3, ""),  # latin-1 would decode it, as the token "\xe9"
    ], ids=["cr-only", "not-utf-8"])
    def test_stdin_bytes_are_decoded_as_a_file_is(self, capsys, monkeypatch, data, code, out):
        # a locale-decoded stdin, as under the C locale: its bytes are read as strict
        # UTF-8 with universal newlines, and its own text layer is left as it was
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="latin-1",
                                 errors="surrogateescape", newline="\n")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["topk", "--k", "2"]) == code
        got, err = capsys.readouterr()
        assert got == out
        assert err == ("" if code == 0 else "error: cannot decode input as UTF-8: 'utf-8' "
                       "codec can't decode byte 0xe9 in position 4: unexpected end of data\n")
        assert (stdin.encoding, stdin.errors) == ("latin-1", "surrogateescape")

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

    def test_unwritable_metrics_path(self, tmp_path, capsys, monkeypatch):
        # the answers are on stdout before the metrics file is opened
        path = tmp_path / "missing" / "m.txt"
        monkeypatch.setattr("sys.stdin", io.StringIO("3 7"))
        assert main(["topk", "--k", "2", "--metrics", str(path)]) == 2
        assert capsys.readouterr() == (
            "1\t3\n2\t7\n", f"error: cannot write {path}: No such file or directory\n")

    def test_truncation_notice(self, tmp_path, capsys):
        path = tmp_path / "three.txt"
        path.write_text("1 2 3\n")
        out, err = run_ok(["topk", "--input", str(path), "--k", "100"], capsys)
        assert len(out.splitlines()) == 7
        assert "truncated at 7" in err

    def test_truncation_notice_names_full_n(self, tmp_path, capsys):
        path = tmp_path / "five.txt"
        path.write_text("5 4 3 2 1\n")
        out, err = run_ok(["topk", "--input", str(path), "--k", "40"], capsys)
        assert len(out.splitlines()) == 31
        assert err == "note: truncated at 31 subsets; only 31 non-empty subsets exist for n=5\n"

    def test_edge_set_flag_is_gone(self, input_file, capsys):
        # the flag that chose the retired dedup walk's edge set is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["topk", "--input", input_file, "--k", "3", "--edge-set", "mmincr"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --edge-set mmincr" in capsys.readouterr().err

    def test_float_repro_orders_by_exact_sums(self, capsys, monkeypatch):
        # every total prints as 9e+16, but {2,5} is exactly smaller than {1,2,3,5}
        monkeypatch.setattr("sys.stdin", io.StringIO("6 9e16 8e-8 1e-8 2e-8"))
        out, _ = run_ok(["topk", "--k", "31", "--mode", "float", "--output", "subsets"],
                        capsys)
        subsets = [line.split("\t")[2] for line in out.splitlines()]
        assert subsets.index("2,5") < subsets.index("1,2,3,5")

    @pytest.mark.parametrize("algo", ALGOS)
    def test_float_total_past_the_float_range_is_inf(self, capsys, monkeypatch, algo):
        monkeypatch.setattr("sys.stdin", io.StringIO("1e308 1e308"))
        out, _ = run_ok(["topk", "--k", "3", "--mode", "float", "--algo", algo], capsys)
        assert out == "1\t1e+308\n2\t1e+308\n3\tinf\n"

    def test_start_up_loads_no_helper_only_modules(self):
        # verify, bench and the oracle's callers import these on call; topk's start-up does not
        src = os.path.dirname(os.path.dirname(topk_subsets.__file__))
        code = "import sys, topk_subsets.cli; print(sorted(sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
        loaded = set(eval(out.stdout))
        assert loaded & {"csv", "decimal", "fractions", "statistics"} == set()

    @pytest.mark.parametrize("argv, unbuffered, head", [
        # as `topk ... | head -2`: the reader leaves long before the k-th line
        (["topk", "--input", "{wide}", "--k", "100000", "--metrics", "{metrics}"], False,
         [b"1\t1\n", b"2\t2\n"]),
        # write-through stdout: each batch is one write, and the second one fails
        (["topk", "--input", "{wide}", "--k", "100000", "--metrics", "{metrics}"], True,
         [b"1\t1\n", b"2\t2\n"]),
        # the first line fails at its print: the oracle sweep outlasts the reader
        (["verify", "--n-max", "12", "--seeds", "5"], True, []),
        # as `verify | true`: the whole answer waits in the buffer for the last flush
        (["verify", "--n-max", "4", "--seeds", "1"], False, []),
    ], ids=["topk", "topk-unbuffered", "verify-unbuffered", "verify-buffered"])
    def test_closed_stdout_exits_quietly(self, tmp_path, argv, unbuffered, head):
        wide = tmp_path / "wide.txt"
        wide.write_text(" ".join(map(str, range(1, 1001))) + "\n")
        metrics = tmp_path / "metrics.txt"
        argv = [arg.format(wide=wide, metrics=metrics) for arg in argv]
        src = os.path.dirname(os.path.dirname(topk_subsets.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        err_path = tmp_path / "stderr.txt"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "topk_subsets.cli", *argv],
                                    stdout=subprocess.PIPE, stderr=err, env=env)
            try:
                got = [proc.stdout.readline() for _ in head]
                proc.stdout.close()
                code = proc.wait(timeout=120)
            finally:
                proc.kill()
        assert got == head
        assert err_path.read_bytes() == b""
        assert code == 141
        assert not metrics.exists()


def _run_captured(argv, text):
    """main(argv) on stdin text: exit code, stdout, and --metrics lines minus elapsed_ns."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", io.StringIO(text))
        metrics = os.path.join(tmp, "metrics.txt")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--metrics", metrics])
        with open(metrics, encoding="ascii") as fh:
            lines = [line for line in fh.read().splitlines()
                     if not line.startswith("elapsed_ns=")]
    return code, out.getvalue(), lines


_CLI_RUNS = [
    (algo, output)
    for algo in ALGOS
    for output in ("sums", "subsets", "deltas")
    if output != "deltas" or algo == "compact"
]


class TestCutLoadOutput:
    """The CLI's answer-bounded load prints what an uncut load prints."""

    @given(
        st.one_of(
            st.lists(st.just(0), min_size=1, max_size=10),
            st.lists(st.integers(0, 3), min_size=1, max_size=10),
            st.integers(1, 4).flatmap(lambda v: st.lists(st.just(v), min_size=1, max_size=10)),
        ),
        st.integers(1, 12),
        st.sampled_from(_CLI_RUNS),
    )
    def test_bytes_and_counters_match_an_uncut_load(self, values, k, run):
        algo, output = run
        argv = ["topk", "--k", str(k), "--algo", algo, "--output", output]
        text = " ".join(map(str, values))
        code, out, metrics = _run_captured(argv, text)
        with pytest.MonkeyPatch.context() as mp:
            # as the tracer swaps it: same name, but keep is dropped
            real = cli.load_input
            mp.setattr(cli, "load_input", lambda source, mode="int", keep=None: real(source, mode))
            want_code, want_out, want_metrics = _run_captured(argv, text)
        assert (code, out, metrics) == (want_code, want_out, want_metrics)

    # baseline's output bytes and counters on a tied input of 18 values, cut to its
    # 8 smallest (k=9) and, by the sum term alone, its 13 smallest (k=40)
    @pytest.mark.parametrize("k, digest, counters", [
        (9, "ace27cb0d39bff1596c24aaca57c54ff066053abb25be8733bcb9f78fc3ad413",
         "total_insertions=19 peak_size=10 extractions=9 prunes=0 reported_count=9"),
        (40, "841f645f7b77752c3e4d2a660a1681eceeb3aad065d503d6bb5c55d29af653b6",
         "total_insertions=81 peak_size=41 extractions=40 prunes=0 reported_count=40"),
    ], ids=["k9", "k40"])
    def test_baseline_bytes_and_counters_pinned(self, k, digest, counters):
        argv = ["topk", "--k", str(k), "--algo", "baseline", "--output", "subsets"]
        code, out, metrics = _run_captured(argv, "3 0 1 1 0 2 1 5 4 2 2 9 7 1 0 8 6 3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert " ".join(metrics) == counters

    def test_bitvec_past_n_prints_the_full_width_records(self):
        # k = 15000 > n = 3000: only the sum of the 14 smallest values bounds the cut
        stream = splitmix64_stream(3)
        text = "\n".join(str(1 + next(stream) % 10**6) for _ in range(3000))
        assert len(load_input(text, keep=15_000).values) < 300
        argv = ["topk", "--k", "15000", "--algo", "bitvec", "--output", "subsets"]
        code, out, _ = _run_captured(argv, text)
        records, _ = topk(load_input(text), 15_000, "bitvec")
        want = "".join(f"{item.rank}\t{item.total}\t{','.join(map(str, item.positions))}\n"
                       for item in records)
        assert (code, out) == (0, want)


class _Recorder:
    """A stdout that keeps each write's text."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def _library_lines(text, k, algo, output, mode):
    """The TSV lines of the library's own records, as cmd_topk formats them."""
    stream, _ = topk(load_input(text, mode), k, algo)
    if output == "subsets" and algo == "compact":
        stream = core.expand_deltas(stream)
    lines = []
    for item in stream:
        if output == "sums":
            cells = ()
        elif output == "subsets":
            cells = (",".join(map(str, item.positions)),)
        else:
            cells = tuple("-" if v is None else str(v) for v in item.delta)
        lines.append("\t".join(map(str, (item.rank, item.total, *cells))) + "\n")
    return lines


def _values_text(mode):
    stream = splitmix64_stream(5)
    values = [1 + next(stream) % 1000 for _ in range(40)]
    return " ".join(str(v / 8) if mode == "float" else str(v) for v in values)


class TestWritePath:
    """cmd_topk writes its lines in batches of _BATCH, or sooner after _WAIT_S."""

    K = 2_500  # two whole batches and a short last one

    @pytest.mark.parametrize("algo, output, mode", [
        *((algo, output, "int") for algo in ALGOS for output in ("sums", "subsets")),
        ("compact", "deltas", "int"),
        *((algo, "subsets", "float") for algo in ALGOS),
    ], ids="-".join)
    def test_bytes_match_the_library_records(self, monkeypatch, algo, output, mode):
        text = _values_text(mode)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        monkeypatch.setattr("sys.stdout", stdout := _Recorder())
        assert main(["topk", "--k", str(self.K), "--algo", algo, "--output", output,
                     "--mode", mode]) == 0
        want = _library_lines(text, self.K, algo, output, mode)
        assert len(want) == self.K
        assert "".join(stdout.writes) == "".join(want)

    def test_one_write_per_batch(self, monkeypatch):
        # the clock stands still, so only the batch size starts a write
        monkeypatch.setattr(cli, "monotonic", lambda: 0.0)
        monkeypatch.setattr("sys.stdin", io.StringIO(_values_text("int")))
        monkeypatch.setattr("sys.stdout", stdout := _Recorder())
        assert main(["topk", "--k", str(self.K), "--output", "subsets"]) == 0
        assert len(stdout.writes) <= -(-self.K // cli._BATCH) + 1
        assert [w.count("\n") for w in stdout.writes] == [1024, 1024, 452]

    def test_a_slow_stream_is_written_line_by_line(self, monkeypatch):
        self.check_a_slow_stream(monkeypatch, 4)

    def test_a_slow_stream_is_written_line_by_line_from_the_forked_walk(self, monkeypatch):
        self.check_a_slow_stream(monkeypatch, cli._BATCH + 4)

    def check_a_slow_stream(self, monkeypatch, k):
        """The first four records come 0.06 s apart: each goes out at most one behind."""
        real = cli.topk

        def paced(*args):
            stream, metrics = real(*args)

            def items():
                for rank, item in enumerate(stream, 1):
                    if rank <= 4:
                        time.sleep(0.06)  # longer than _WAIT_S
                    yield item

            return items(), metrics

        monkeypatch.setattr(cli, "topk", paced)
        forks = _fork_count(monkeypatch)
        text = "4 2 1 3" if k == 4 else _values_text("int")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        monkeypatch.setattr("sys.stdout", stdout := _Recorder())
        assert main(["topk", "--k", str(k)]) == 0
        assert len(forks) == (k > cli._BATCH)
        assert "".join(stdout.writes) == "".join(_library_lines(text, k, "compact", "sums", "int"))
        assert max(w.count("\n") for w in stdout.writes[:4]) <= 2


def _no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _fork_count(monkeypatch):
    """Count the calls of os.fork from here on."""
    forks, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    return forks


class TestForkedWalk:
    """Above _BATCH records the walk runs in a forked process and streams its batches."""

    K = 2 * cli._BATCH + 452

    def run(self, argv, text, forked, clock=None):
        """main(argv) on stdin text: code, writes, and metrics minus elapsed_ns.

        ``forked`` False takes os.fork away; "fails" makes it raise.
        """
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            if forked == "fails":
                mp.setattr(os, "fork", self.failing_fork)
            elif forked:
                forks = _fork_count(mp)
            else:
                mp.delattr(os, "fork")
            if clock is not None:
                mp.setattr(cli, "monotonic", clock)
            mp.setattr("sys.stdin", io.StringIO(text))
            mp.setattr("sys.stdout", stdout := _Recorder())
            metrics = os.path.join(tmp, "metrics.txt")
            code = main(argv + ["--metrics", metrics])
            with open(metrics, encoding="ascii") as fh:
                lines = [line for line in fh.read().splitlines()
                         if not line.startswith("elapsed_ns=")]
        assert _no_child_left()
        if forked is True:
            assert forks == [1]
        return code, stdout.writes, lines

    @staticmethod
    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    @pytest.mark.parametrize("paced", [False, True], ids=["full", "paced"])
    @pytest.mark.parametrize("mode", ["int", "float"])
    @pytest.mark.parametrize("algo, output", _CLI_RUNS, ids=[f"{a}-{o}" for a, o in _CLI_RUNS])
    def test_forked_and_in_process_runs_match(self, algo, output, mode, paced):
        # a paced clock moves 1/64 s per reading, so batches close by _WAIT_S
        # after four records; the same readings in either process.  A still
        # clock closes them by size alone: under the real one, a full collection
        # of the test process's heap (40-50 ms) can close a batch early.
        argv = ["topk", "--k", str(self.K), "--algo", algo, "--output", output, "--mode", mode]
        text = _values_text(mode)
        runs = [self.run(argv, text, forked, itertools.count(0, 1 / 64).__next__ if paced
                         else lambda: 0.0) for forked in (True, False)]
        assert runs[0] == runs[1]
        code, writes, _ = runs[0]
        assert code == 0
        assert "".join(writes) == "".join(_library_lines(text, self.K, algo, output, mode))
        sizes = [w.count("\n") for w in writes]
        assert sizes == ([1024, 1024, 452] if not paced else [4] * (self.K // 4))

    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
    @pytest.mark.parametrize("mode", ["int", "float"])
    def test_compact_subsets_match_bitvec(self, mode, forked):
        # compact's writer replays deltas; bitvec decodes each pattern and replays nothing
        argv = ["topk", "--k", str(self.K), "--output", "subsets", "--mode", mode, "--algo"]
        text = _values_text(mode)
        compact, bitvec = (self.run(argv + [algo], text, forked)[1]
                           for algo in ("compact", "bitvec"))
        assert "".join(compact) == "".join(bitvec)
        assert "".join(compact).count("\n") == self.K

    # tie-heavy ints, and subnormals with values near 1e308 whose larger sums are inf
    DIFF_INPUTS = {
        "ties": " ".join(str(1 + i % 6) for i in range(40)),
        "gen_float": " ".join(map(repr, gen_float_instance(12, 1).values)),
    }

    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
    @pytest.mark.parametrize("text, mode", [("ties", "int"), ("ties", "float"),
                                            ("gen_float", "float")], ids="-".join)
    @pytest.mark.parametrize("algo, output", _CLI_RUNS, ids=[f"{a}-{o}" for a, o in _CLI_RUNS])
    def test_the_wire_fields_print_as_the_records(self, algo, output, text, mode, forked):
        # the walk sends fields built from its nodes; the public stream's records must agree
        text = self.DIFF_INPUTS[text]
        argv = ["topk", "--k", str(self.K), "--algo", algo, "--output", output, "--mode", mode]
        code, writes, _ = self.run(argv, text, forked)
        want = _library_lines(text, self.K, algo, output, mode)
        assert code == 0 and len(want) == self.K
        assert "".join(writes) == "".join(want)

    def test_the_gen_float_input_reaches_inf_and_subnormals(self):
        totals = [item.total for item in topk(load_input(self.DIFF_INPUTS["gen_float"], "float"),
                                               self.K)[0]]
        assert totals.count(float("inf")) > 0 and 0 < totals[0] < 2.3e-308

    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
    @pytest.mark.parametrize("mode", ["int", "float"])
    @pytest.mark.parametrize("algo, output", _CLI_RUNS, ids=[f"{a}-{o}" for a, o in _CLI_RUNS])
    def test_the_walk_builds_no_record(self, monkeypatch, algo, output, mode, forked):
        text = _values_text(mode)
        want = _library_lines(text, self.K, algo, output, mode)

        def refuse(rank, node):
            raise AssertionError("the CLI's walk built a record")

        for name in ("delta_record", "bitvec_record", "_positions_record"):
            monkeypatch.setattr(enumerators, name, refuse)
        argv = ["topk", "--k", str(self.K), "--algo", algo, "--output", output, "--mode", mode]
        code, writes, _ = self.run(argv, text, forked)
        assert code == 0
        assert "".join(writes) == "".join(want)
        assert not hasattr(cli, "_FIELDS")

    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
    def test_a_wide_float_input_is_cut(self, forked):
        # an uncut load would hold a 5,000-byte bitvec pattern per pool entry
        stream = splitmix64_stream(7)
        text = "\n".join(repr((1 + next(stream) % 10**6) / 1024) for _ in range(5000))
        assert load_input(text, "float", keep=2000).n < 300
        argv = ["topk", "--k", "2000", "--algo", "bitvec", "--output", "subsets", "--mode", "float"]
        code, writes, _ = self.run(argv, text, forked)
        assert code == 0
        assert "".join(writes) == "".join(_library_lines(text, 2000, "bitvec", "subsets", "float"))

    def test_a_failed_fork_walks_in_process(self):
        argv = ["topk", "--k", str(self.K), "--output", "subsets"]
        text = _values_text("int")
        assert self.run(argv, text, "fails") == self.run(argv, text, forked=False)

    def test_a_truncated_answer(self, capsys):
        text = " ".join(map(str, range(1, 11)))  # 1,023 subsets
        code, writes, metrics = self.run(["topk", "--k", "2000"], text, forked=True)
        assert code == 0
        assert "".join(writes).count("\n") == 1023
        assert "extractions=1023" in metrics
        assert "note: truncated at 1023 subsets" in capsys.readouterr().err

    def test_a_closed_stdout_kills_the_walk(self, monkeypatch, tmp_path):
        class Closing(_Recorder):
            def write(self, text):
                if self.writes:
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

            def fileno(self):  # main points fd 1 at devnull: give it one of ours
                return self.fh.fileno()

        forks = _fork_count(monkeypatch)
        monkeypatch.setattr(cli, "monotonic", lambda: 0.0)  # batches close by size alone
        monkeypatch.setattr("sys.stdin", io.StringIO(_values_text("int")))
        monkeypatch.setattr("sys.stdout", stdout := Closing())
        with open(tmp_path / "out", "wb") as stdout.fh:
            metrics = tmp_path / "metrics.txt"
            assert main(["topk", "--k", str(self.K), "--metrics", str(metrics)]) == 141
        assert forks == [1] and _no_child_left()
        assert [w.count("\n") for w in stdout.writes] == [1024]
        assert not metrics.exists()

    def failing_walk(self, monkeypatch, fail):
        """Patch cli.topk so that the walk calls fail() after its first batch.

        The clock stands still, so that batch closes by its size alone.
        """
        real = cli.topk

        def walk(*args):
            stream, metrics = real(*args)

            def items():
                for rank, item in enumerate(stream, 1):
                    if rank == cli._BATCH + 10:
                        fail()
                    yield item

            return items(), metrics

        monkeypatch.setattr(cli, "topk", walk)
        monkeypatch.setattr(cli, "monotonic", lambda: 0.0)
        monkeypatch.setattr("sys.stdin", io.StringIO(_values_text("int")))
        monkeypatch.setattr("sys.stdout", stdout := _Recorder())
        return stdout

    def test_a_walk_that_raises_fails_the_run(self, monkeypatch, tmp_path, capsys):
        def fail():
            raise RuntimeError("the walk broke")

        stdout = self.failing_walk(monkeypatch, fail)
        forks = _fork_count(monkeypatch)
        metrics = tmp_path / "metrics.txt"
        assert main(["topk", "--k", str(self.K), "--metrics", str(metrics)]) == 1
        assert forks == [1] and _no_child_left()
        err = capsys.readouterr().err
        assert err.startswith("error: the walk failed: Traceback")
        assert err.endswith("RuntimeError: the walk broke\n")
        assert [w.count("\n") for w in stdout.writes] == [1024]
        assert not metrics.exists()

    def test_a_walk_killed_by_a_signal_fails_the_run(self, monkeypatch, tmp_path, capsys):
        test_pid = os.getpid()

        def fail():
            assert os.getpid() != test_pid, "the walk ran in the test's own process"
            os.kill(os.getpid(), signal.SIGKILL)

        stdout = self.failing_walk(monkeypatch, fail)
        forks = _fork_count(monkeypatch)
        metrics = tmp_path / "metrics.txt"
        assert main(["topk", "--k", str(self.K), "--metrics", str(metrics)]) == 1
        assert forks == [1] and _no_child_left()
        assert capsys.readouterr().err == (
            f"error: the walk failed: its process ended by signal {signal.SIGKILL.value}"
            " before its last frame\n")
        assert [w.count("\n") for w in stdout.writes] == [1024]
        assert not metrics.exists()


def _lines_of(count, seed):
    """count ints in [1, 1000], one per line, some lines CRLF and some commented."""
    stream = splitmix64_stream(seed)
    return "".join(f"{1 + next(stream) % 1000}" + ("\r\n", "\n", " # c\n")[i % 3]
                   for i in range(count)).encode()


# bad bytes: a lone 0xff, and a sequence that a "\n" or the end cuts short
_SPLIT_PIECES = [b"0", b"1", b"2", b"7", b"-1", str(2**62).encode(), b"x", b"# c", b"#",
                 b" ", b"\n", b"\n", b"\r\n", b"\r", b"\xff", b"\xe2\x82"]


def _split_run(path, k, split):
    """main() on --input path, split at byte ``split`` (None: whole), every "forked"
    process run here: code, stdout, stderr, and the numbers of calls of cli.load_input
    and of cli._load_rest."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_split", lambda fh, args: split)
        mp.setattr(cli, "_forked", lambda frames: frames())
        loads, real_load = [], cli.load_input
        mp.setattr(cli, "load_input", lambda *a, **kw: loads.append(1) or real_load(*a, **kw))
        rests, real_rest = [], cli._load_rest
        mp.setattr(cli, "_load_rest", lambda *a: rests.append(1) or real_rest(*a))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["topk", "--input", path, "--k", str(k)])
    return code, out.getvalue(), err.getvalue(), len(loads), len(rests)


class TestSplitLoad:
    """An int --input file of at least _SPLIT bytes loads its second half in a forked helper."""

    DATA = _lines_of(3000, 11)  # 21 KB, more than the largest perfbench input

    def run(self, capsys, argv, split=None, fork=True):
        """main(argv), _SPLIT set to ``split``: code, stdout, stderr, metrics, calls.

        ``fork`` False takes os.fork away; "fails" makes it raise.  Metrics are
        None when the run wrote none, and lose their elapsed_ns line.  Calls are
        "load" per call of cli.load_input and, when ``fork`` is True, "fork" per
        call of os.fork, in order.
        """
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            if split is not None:
                mp.setattr(cli, "_SPLIT", split)
            calls, real_load = [], cli.load_input
            mp.setattr(cli, "load_input",
                       lambda *a, **kw: calls.append("load") or real_load(*a, **kw))
            if fork == "fails":
                mp.setattr(os, "fork", TestForkedWalk.failing_fork)
            elif fork:
                real_fork = os.fork
                mp.setattr(os, "fork", lambda: calls.append("fork") or real_fork())
            else:
                mp.delattr(os, "fork")
            metrics = os.path.join(tmp, "metrics.txt")
            code = main(argv + ["--metrics", metrics])
            lines = None
            if os.path.exists(metrics):
                with open(metrics, encoding="ascii") as fh:
                    lines = [line for line in fh.read().splitlines()
                             if not line.startswith("elapsed_ns=")]
        out, err = capsys.readouterr()
        assert _no_child_left()
        return code, out, err, lines, calls

    @staticmethod
    def argv(tmp_path, data, *flags):
        path = tmp_path / "values.txt"
        path.write_bytes(data)
        return ["topk", "--input", str(path), *flags]

    @pytest.mark.parametrize("k", [5, TestForkedWalk.K])
    @pytest.mark.parametrize("algo, output", _CLI_RUNS, ids=[f"{a}-{o}" for a, o in _CLI_RUNS])
    def test_a_large_file_loads_in_two_processes(self, tmp_path, capsys, algo, output, k):
        argv = self.argv(tmp_path, self.DATA, "--k", str(k), "--algo", algo, "--output", output)
        *split, calls = self.run(capsys, argv, split=1)
        *whole, whole_calls = self.run(capsys, argv, split=len(self.DATA) + 1)
        # one load each: a split load that passes is never redone
        walker = ["fork"] if k > cli._BATCH else []
        assert (calls, whole_calls) == (["fork", "load"] + walker, ["load"] + walker)
        assert split == whole
        text = self.DATA.decode()
        assert split[:3] == [0, "".join(_library_lines(text, k, algo, output, "int")), ""]

    @pytest.mark.parametrize("route", ["small-file", "stdin", "float", "long-line"])
    def test_only_a_large_int_file_forks_a_helper(self, tmp_path, capsys, monkeypatch, route):
        # a line that runs on for more than a block past half the bytes has no split point
        data = b"1 " * 100_000 + b"\n" if route == "long-line" else self.DATA
        argv = self.argv(tmp_path, data, "--k", "5")
        split = 1
        if route == "small-file":
            split = None  # the module's own threshold
        elif route == "stdin":
            argv[2] = "-"
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(self.DATA)))
        else:
            argv += ["--mode", "float"]
        code, out, err, _, calls = self.run(capsys, argv, split)
        assert (code, err, calls) == (0, "", ["load"])
        assert out.count("\n") == 5

    @pytest.mark.parametrize("fork", [False, "fails"], ids=["no-fork", "fork-fails"])
    def test_without_a_working_fork_loads_whole(self, tmp_path, capsys, monkeypatch, fork):
        argv = self.argv(tmp_path, self.DATA, "--k", str(TestForkedWalk.K), "--output", "subsets")
        want = self.run(capsys, argv, split=len(self.DATA) + 1)[:4]
        rests, real_rest = [], cli._load_rest
        monkeypatch.setattr(cli, "_load_rest", lambda *a: rests.append(1) or real_rest(*a))
        *run, calls = self.run(capsys, argv, 1, fork)
        assert run == list(want) and want[0] == 0
        assert (calls, rests) == (["load"], [])

    def test_a_platform_without_fork_or_pread_loads_whole(self, tmp_path, capsys, monkeypatch):
        argv = self.argv(tmp_path, self.DATA, "--k", "5")
        want = self.run(capsys, argv, split=1)[:4]
        monkeypatch.delattr(os, "pread")
        *run, calls = self.run(capsys, argv, 1, fork=False)
        assert run == list(want) and want[0] == 0
        assert calls == ["load"]

    @pytest.mark.parametrize("how", ["raises", "killed"])
    def test_a_failed_helper_leaves_the_load_to_the_parent(self, tmp_path, capsys, monkeypatch,
                                                         how):
        test_pid = os.getpid()

        def fail(*args):
            assert os.getpid() != test_pid, "the helper ran in the test's own process"
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("the helper broke")

        argv = self.argv(tmp_path, self.DATA, "--k", "5")
        want = self.run(capsys, argv, split=len(self.DATA) + 1)[:4]
        monkeypatch.setattr(cli, "_load_values", fail)  # the helper's, not the parent's
        *run, calls = self.run(capsys, argv, split=1)
        assert run == list(want) and want[0] == 0
        assert calls == ["fork", "load", "load"]

    @given(st.lists(st.sampled_from(_SPLIT_PIECES), max_size=24).map(b"".join),
           st.one_of(st.none(), st.integers(1, 12)), st.sampled_from([2, 5, core._BLOCK]))
    @example(b"1 x\n2 \xff\n", 1, core._BLOCK)  # a decode error in the rest wins
    @example(b"1 \xff\n2 x\n", 1, core._BLOCK)  # the earlier decode error wins
    @example(b"1 x\n2 \xe2\x82\n", 1, core._BLOCK)  # a sequence cut short by the "\n"
    @example(b"\n\xe2\x82", None, 2)  # and by the end of the input
    @example(b"3 x\n1 y\n", 1, core._BLOCK)  # the first bad token in input order
    @example(b"3 1\nx\n", 1, core._BLOCK)  # a bad token in the rest alone
    @example(b"3 -1\n-2 5\n", 1, core._BLOCK)  # the smaller of the two minimums
    @example(b"-2 3\n-1\n", 1, core._BLOCK)
    @example(b"1\n4611686018427387904\n", 1, core._BLOCK)  # the guard takes the summed n
    @example(b"1\n5 6 4611686018427387904\n", 1, core._BLOCK)  # and a maximum the rest cut
    @example(b"# c\n\n", 1, core._BLOCK)  # both halves empty
    @example(b"# c\n5\n", 1, core._BLOCK)  # a comment-only half, then values
    @example(b"5\n# c\n", 1, core._BLOCK)
    @example(b"7\r\n2\r\n2\r\n1\r\n", 1, core._BLOCK)  # CRLF
    @example(b"7\n7\n2\n2\n1\n0\n5\n9\n", 1, 2)  # both halves cut while they read
    def test_every_cut_at_a_newline_matches_the_whole_load(self, data, k, block):
        # k None: 4096 subsets, more than the at most 12 values here form, so nothing is cut
        k = 4096 if k is None else k
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK", block)
            path = os.path.join(tmp, "values.txt")
            with open(path, "wb") as fh:
                fh.write(data)
            *whole, loads, rests = _split_run(path, k, None)
            assert (loads, rests) == (1, 0)
            # every cut loads its rest once; a split load that passes is never redone,
            # one that fails always is
            split = (*whole, 1 if whole[0] == 0 else 2, 1)
            cuts = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
            for cut in cuts:
                assert _split_run(path, k, cut) == split, cut

    @pytest.mark.parametrize("data", [
        b"1\n" * 150_000 + b"\xff\n",
        b"1\n" * 150_000 + b"\xe2\x82(\n",
        b"1\n" * 150_000 + b"\xe2\x82",  # the end of the file cuts the sequence short
        b"1\n" * 50_000 + b"\xff\n" + b"1\n" * 100_000,  # in the first half
        b"x\n" + b"1\n" * 150_000 + b"\xff\n",  # a later decode error wins over a bad token
    ], ids=["start-byte", "continuation", "end-of-data", "first-half", "after-a-bad-token"])
    def test_a_bad_byte_names_its_offset_in_the_file(self, tmp_path, capsys, data):
        # far past the decoder's first chunk in either half, whose own position would be named
        with pytest.raises(UnicodeDecodeError) as exc:
            data.decode("utf-8")
        argv = self.argv(tmp_path, data, "--k", "2")
        *split, calls = self.run(capsys, argv, split=1)
        assert calls == ["fork", "load", "load"]  # the split load, then the whole one
        assert split == [3, "", f"error: cannot decode input as UTF-8: {exc.value}\n", None]
        assert list(self.run(capsys, argv, split=len(data) + 1)[:4]) == split

    @pytest.mark.parametrize("first, second, error", [
        ("1 x", "2 y", "unparseable token 'x'"),
        ("1 2", "3 y", "unparseable token 'y'"),
        # a decode error in the rest wins over a bad token before it
        ("1 x", "2 \udcff", "cannot decode input as UTF-8: 'utf-8' codec can't decode byte 0xff "
                            "in position 8: invalid start byte"),
        ("3 -1", "-2 5", "negative value -2 not allowed"),
        # the rest's maximum is past its cut
        ("1", f"5 6 {2**62}", "n * max(values) = 18446744073709551616 exceeds the signed 64-bit range"),
        ("# c", "", "empty input: no values found"),
    ], ids=["bad-token-first", "bad-token-second", "bad-token-then-bad-byte", "negative",
            "overflow", "empty"])
    def test_verdicts_match_the_whole_load(self, tmp_path, capsys, first, second, error):
        # the first line, padded past half the bytes, is the first half; a lone
        # surrogate escapes a bad byte
        data = f"{first.ljust(len(second) + 2)}\n{second}\n".encode(errors="surrogateescape")
        argv = self.argv(tmp_path, data, "--k", "1")
        *split, calls = self.run(capsys, argv, split=1)
        assert calls == ["fork", "load", "load"]
        assert split == [3, "", f"error: {error}\n", None]
        assert list(self.run(capsys, argv, split=len(data) + 1)[:4]) == split


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
            ["topk", "--k", "3", "--algo", "dedup"],
            ["verify", "--n-max", "17"],
            ["verify", "--algos", "baseline,bogus"],
            ["verify", "--algos", "dedup"],
            ["bench", "--n-list", "4", "--k-list", ","],
            ["bench", "--n-list", "4", "--k-list", "3", "--algos", "dedup"],
            ["bench", "--n-list", "0", "--k-list", "5"],
            ["bench", "--n-list", "4", "--k-list", "-1"],
            ["verify", "--algos", ","],
            ["bench", "--n-list", "4", "--k-list", "3", "--algos", ""],
            ["bench", "--n-list", "4,x", "--k-list", "3"],
            ["dag", "--n", "4"],
            ["dag", "--n", "11", "--dot", "x.dot"],
        ],
        ids=" ".join,
    )
    def test_exit_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_comma_lists_skip_blanks_and_spaces(self):
        args = cli.build_parser().parse_args(
            ["bench", "--n-list", " 4, 5", "--k-list", "3,,", "--algos", " compact ,"])
        assert (args.n_list, args.k_list, args.algos) == ([4, 5], [3], [Variant.ONDEMAND_COMPACT])


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert main(["topk", "--input", "/no/such/file", "--k", "2"]) == 3
        assert "cannot read input" in capsys.readouterr().err

    def test_closed_stdin(self):
        # started with fd 0 closed, the interpreter sets sys.stdin to None
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(topk_subsets.__file__)))
        script = 'exec "$0" -m topk_subsets.cli topk --k 1 <&-'
        run = subprocess.run(["sh", "-c", script, sys.executable], capture_output=True, env=env,
                             timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (
            3, b"", b"error: cannot read input: stdin is closed\n")

    @pytest.mark.parametrize("argv", ["topk --k 1 --metrics {out}", "verify",
                                      "dag --n 2 --dot {out}"], ids=["topk", "verify", "dag"])
    def test_closed_stdout(self, tmp_path, argv):
        # started with fd 1 closed, sys.stdout is None: as a pipe closed before the first line
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(topk_subsets.__file__)))
        out = tmp_path / "out.txt"
        script = f'exec "$0" -m topk_subsets.cli {argv.format(out=out)} >&-'
        run = subprocess.run(["sh", "-c", script, sys.executable], input=b"3 7\n",
                             capture_output=True, env=env, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (141, b"", b"")
        assert not out.exists()

    @pytest.mark.parametrize("text, k, code, out", [
        (b"3\n", 5, 0, b"1\t3\n"),  # the truncation notice is dropped
        (b"3 x\n", 1, 3, b""),  # and so is the input error
    ], ids=["note", "error"])
    def test_closed_stderr(self, text, k, code, out):
        # started with fd 2 closed, a write to sys.stderr raises OSError
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(topk_subsets.__file__)))
        script = f'exec "$0" -m topk_subsets.cli topk --k {k} 2>&-'
        run = subprocess.run(["sh", "-c", script, sys.executable], input=text,
                             capture_output=True, env=env, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (code, out, b"")

    def test_no_stderr(self, capsys, monkeypatch):
        # print(file=None) would put the notice into the answer on stdout
        monkeypatch.setattr("sys.stdin", io.StringIO("3"))
        monkeypatch.setattr("sys.stderr", None)
        assert main(["topk", "--k", "5"]) == 0
        assert capsys.readouterr().out == "1\t3\n"

    def test_negative_value(self, tmp_path, capsys):
        path = tmp_path / "neg.txt"
        path.write_text("3 -1\n")
        assert main(["topk", "--input", str(path), "--k", "2"]) == 3
        assert "error" in capsys.readouterr().err

    # values a --k 1 load cuts away are still checked: the verdict is the full input's
    def test_overflow_past_the_cut(self, tmp_path, capsys):
        text = "1 2 3 4611686018427387904\n"
        path = tmp_path / "big.txt"
        path.write_text(text)
        assert main(["topk", "--input", str(path), "--k", "1"]) == 3
        with pytest.raises(topk_subsets.OverflowRiskError) as exc:
            load_input(text)
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        assert str(exc.value) == (
            "n * max(values) = 18446744073709551616 exceeds the signed 64-bit range"
        )

    def test_bad_token_past_the_cut(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("5 1 2 x\n")
        assert main(["topk", "--input", str(path), "--k", "1"]) == 3
        assert capsys.readouterr().err == "error: unparseable token 'x'\n"

    def test_non_finite_float(self, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        path.write_text("1.0 nan\n")
        code = main(["topk", "--input", str(path), "--k", "2", "--mode", "float"])
        assert code == 3

    _UNDECODABLE = (
        "error: cannot decode input as UTF-8: 'utf-8' codec can't decode byte 0xff "
        "in position 4: invalid start byte\n"
    )

    def test_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"1 2 \xff 3\n")
        assert main(["topk", "--input", str(path), "--k", "2"]) == 3
        assert capsys.readouterr() == ("", self._UNDECODABLE)

    def test_undecodable_text_stand_in_stdin(self, capsys, monkeypatch):
        # a sys.stdin with no .buffer decodes for itself: no input offset is known
        monkeypatch.setattr("sys.stdin", codecs.getreader("utf-8")(io.BytesIO(b"1 2 \xff 3\n")))
        assert main(["topk", "--k", "3"]) == 3
        assert capsys.readouterr() == ("", "error: cannot decode input: 'utf-8' codec can't "
                                           "decode byte 0xff in position 4: invalid start byte\n")

    def test_undecodable_stdin(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"1 2 \xff 3\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["topk", "--k", "2"]) == 3
        assert capsys.readouterr() == ("", self._UNDECODABLE)

    @pytest.mark.parametrize("data", [b"1 2 # \xff\n3\n", b"1 2 \xff 3\n", b"3\r1\r2"],
                             ids=["in-a-comment", "in-a-token", "cr-only"])
    def test_stdin_is_decoded_as_a_file_is(self, tmp_path, data):
        # under the C locale Python's own stdin would replace bad bytes, not reject them
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        env = dict(os.environ, LC_ALL="C",
                   PYTHONPATH=os.path.dirname(os.path.dirname(topk_subsets.__file__)))
        env.pop("PYTHONIOENCODING", None)
        argv = [sys.executable, "-m", "topk_subsets.cli", "topk", "--k", "2"]
        runs = [subprocess.run(argv + extra, input=data, capture_output=True, env=env, timeout=60)
                for extra in ([], ["--input", str(path)])]
        stdin, file = [(run.returncode, run.stdout, run.stderr) for run in runs]
        assert stdin == file
        assert file[0] == (0 if data == b"3\r1\r2" else 3)

    @pytest.mark.parametrize("route", ["--input", "< file", "pipe"])
    def test_decode_error_names_the_offset_in_the_input(self, tmp_path, route):
        # far past the decoder's first chunk, whose own position would be named
        data = b"1\n" * 150_000 + b"\xff\n"
        path = tmp_path / "late.txt"
        path.write_bytes(data)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(topk_subsets.__file__)))
        argv = [sys.executable, "-m", "topk_subsets.cli", "topk", "--k", "2"]
        with open(path, "rb") as fh:
            extra, stdin = {"--input": (["--input", str(path)], None), "< file": ([], fh),
                            "pipe": ([], subprocess.PIPE)}[route]
            proc = subprocess.Popen(argv + extra, stdin=stdin, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, env=env)
            out, err = proc.communicate(data if route == "pipe" else None, timeout=60)
        assert (proc.returncode, out) == (3, b"")
        assert err.decode() == (
            "error: cannot decode input as UTF-8: 'utf-8' codec can't decode byte 0xff "
            "in position 300000: invalid start byte\n"
        )

    @pytest.mark.parametrize("at", [0, 8191, 65535, 262143, 300_001])
    @pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82(", b"\xf0\x9f\x98"],
                             ids=["start-byte", "continuation", "end-of-data"])
    def test_decode_error_offset_matches_a_whole_decode(self, capsys, monkeypatch, at, bad):
        # a bad sequence at, or straddling, a likely chunk boundary of the decoder
        data = b"7\n" * (at // 2) + b" " * (at % 2) + bad
        with pytest.raises(UnicodeDecodeError) as exc:
            data.decode("utf-8")
        assert exc.value.start == at
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(["topk", "--k", "2"]) == 3
        assert capsys.readouterr() == ("", f"error: cannot decode input as UTF-8: {exc.value}\n")

    def test_decode_error_wins_over_an_earlier_bad_token(self, tmp_path, capsys, monkeypatch):
        # the decoder reads 8 KiB at a time: the 0xff byte lies well past the first
        # chunk, so the block naming "x" is parsed before the 0xff is decoded
        data = b"1 x\n" + b"2\n" * 10_000 + b"\xff\n"
        path = tmp_path / "late.txt"
        path.write_bytes(data)
        monkeypatch.setattr(core, "_BLOCK", 64)
        assert main(["topk", "--input", str(path), "--k", "2"]) == 3
        assert capsys.readouterr().err.startswith("error: cannot decode input as UTF-8: ")
        with pytest.raises(core.InputError, match="unparseable token 'x'"):
            load_input(io.StringIO(data[:-2].decode()))


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        out, _ = run_ok(["verify", "--n-max", "5", "--seeds", "2"], capsys)
        lines = out.splitlines()
        assert len(lines) == len(ALGOS) + 5  # one line per algo, five structure widths
        assert all(line.endswith("PASS") for line in lines)

    def test_float_sweep_passes(self, capsys):
        out, _ = run_ok(["verify", "--mode", "float", "--n-max", "6", "--seeds", "3"], capsys)
        lines = [" ".join(line.split()) for line in out.splitlines()]
        assert lines[:len(ALGOS)] == [f"oracle-equivalence[{a} float] PASS" for a in ALGOS]
        assert len(lines) == len(ALGOS) + 6 and all(line.endswith("PASS") for line in lines)

    def test_float_sweep_detects_totals_summed_as_floats(self, capsys, monkeypatch):
        def float_sums(r, k, variant):
            # every walk adds the input's floats themselves, not their exact ints
            floats = core.InputSet(r.values, r.mode)
            object.__setattr__(floats, "exact", r.values)
            object.__setattr__(floats, "scale", 1)
            return topk(floats, k, variant)

        monkeypatch.setattr(cli, "topk", float_sums)
        code = main(["verify", "--mode", "float", "--n-max", "6", "--seeds", "3"])
        lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
        assert code == 1
        assert [line.split(" (")[0] for line in lines[:len(ALGOS)]] == [
            f"oracle-equivalence[{a} float] FAIL" for a in ALGOS]
        assert all(line.endswith("PASS") for line in lines[len(ALGOS):])

    def test_a_repeated_algo_gives_one_line(self, capsys):
        out, _ = run_ok(["verify", "--n-max", "3", "--seeds", "1", "--algos", "compact,compact"],
                        capsys)
        names = [line.split()[0] for line in out.splitlines()]
        assert names == ["oracle-equivalence[compact]"] + ["structure[final-dag"] * 3

    def test_detects_broken_shift_rule(self, capsys, monkeypatch):
        # disable one move type: the walk loses nodes and the sums drift
        import topk_subsets.shifts as shifts

        real = shifts.compact_children

        def no_type2(node, r, parent_rank):
            # Type2 removes the parent's prefix_end, never its first_after_gap
            return [c for c in real(node, r, parent_rank) if c[7] in (None, node[0])]

        monkeypatch.setattr(shifts, "compact_children", no_type2)
        code = main(["verify", "--n-max", "4", "--seeds", "1", "--algos", "bitvec"])
        out, err = capsys.readouterr()
        assert code == 1
        # the walk ran and found the missing child; a mutant that crashed would not
        lines = [" ".join(line.split()) for line in out.splitlines()]
        assert lines[2] == (
            "structure[final-dag n=2] FAIL 10: children [] != position rule [((2,), 'Type2')]"
        )
        assert not any("walk raised" in line for line in lines)
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
        # the walk runs out of nodes before k; the DAG checks do not use the patched name
        lines = [" ".join(line.split()) for line in out.splitlines()]
        assert lines[0] == ("oracle-equivalence[compact] FAIL (n=3, seed=0, k=7) "
                            "raised IndexError('extract_min on an empty pool')")
        assert all(line.endswith("PASS") for line in lines[1:])

    def test_detects_a_replay_that_drops_a_shift(self, capsys, monkeypatch):
        # a shift to the next slot loses its added position; the totals stay right
        real = core._replayer

        def dropping():
            step = real()
            return lambda parent, removed, added: step(
                parent, removed, None if removed is not None and added == removed + 1 else added)

        monkeypatch.setattr(core, "_replayer", dropping)
        code = main(["verify", "--n-max", "4", "--seeds", "1", "--algos", "compact"])
        lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
        assert code == 1
        assert lines[0] == ("oracle-equivalence[compact] FAIL (n=2, seed=0, k=3) rank 2: "
                            "positions () are not non-empty and increasing in 1..2")
        assert all(line.endswith("PASS") for line in lines[1:])

    def test_detects_a_decode_that_drops_a_position(self, capsys, monkeypatch):
        # the first member of a pattern is lost from each record of two or more
        import topk_subsets.shifts as shifts

        real = shifts.positions_from_bits
        monkeypatch.setattr(shifts, "positions_from_bits",
                            lambda bits: real(bits)[1:] or real(bits))
        code = main(["verify", "--n-max", "4", "--seeds", "1", "--algos", "bitvec"])
        lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
        assert code == 1
        # the DAG checks decode patterns too, and fail from n = 2 on
        assert lines[0] == ("oracle-equivalence[bitvec] FAIL (n=2, seed=0, k=3) rank 3: "
                            "positions (2,) do not sum to 963237")

    @pytest.mark.parametrize("fault, rank", [("altered", 5), ("short", 7)])
    def test_reports_the_first_wrong_rank(self, capsys, monkeypatch, fault, rank):
        # from n = 3 (k = 7) on, the stream has one wrong total or ends one item early
        def faulty(r, k, variant):
            stream, metrics = topk(r, k, variant)
            items = list(stream)
            if k >= 7 and fault == "altered":
                items[4] = items[4]._replace(total=items[4].total + 1)
            elif k >= 7:
                del items[-1]
            return iter(items), metrics

        monkeypatch.setattr(cli, "topk", faulty)
        code = main(["verify", "--n-max", "4", "--seeds", "1", "--algos", "compact"])
        out, _ = capsys.readouterr()
        assert code == 1
        lines = [" ".join(line.split()) for line in out.splitlines()]
        assert lines[0] == f"oracle-equivalence[compact] FAIL (n=3, seed=0, k=7) rank {rank}"
        assert all(line.endswith("PASS") for line in lines[1:])


class TestBenchCommand:
    def test_grid_table(self, capsys):
        out, _ = run_ok(
            ["bench", "--n-list", "4,5", "--k-list", "3", "--algos",
             "baseline,compact", "--reps", "2", "--seed", "1"],
            capsys,
        )
        header, *rows = out.splitlines()
        assert header.split() == ["n", "k", "variant", "median_ns", "reps",
                                  "total_insertions", "peak_size", "extractions"]
        assert [row.split()[:3] for row in rows] == [
            [n, "3", v] for n in ("4", "5") for v in ("baseline", "compact")
        ]
        # baseline inserts 2k+1 and peaks at k+1 (acceptance test 3)
        assert rows[0].split()[4:] == ["2", "7", "4", "3"]


class TestDagCommand:
    def test_export_n4(self, tmp_path, capsys):
        dot = tmp_path / "n4.dot"
        out, _ = run_ok(["dag", "--n", "4", "--dot", str(dot)], capsys)
        assert "nodes=15 edges=14" in out
        text = dot.read_text()
        assert text.startswith("digraph topk_subsets {")
        assert '"1010" -> "1001" [label="Type1"];' in text
        assert text.rstrip().endswith("}")

    @pytest.mark.parametrize("n, digest", [
        (4, "8ebfa9ab0620f2d1a85641987e197c49525fb45e4df537af861dcd3e6085b360"),
        (8, "925036c1791c2b1caf0df635b2d932bb800257561c94fe18e0bfedc3cb8233b2"),
        (10, "b6d971c9a8a98ab3ce2df5046eb4b45c3f41d47d524360e5fc02fc0579a3ee3c"),
    ])
    def test_export_bytes_pinned(self, tmp_path, capsys, n, digest):
        # nodes, edges, their order and labels: any change to the walk shows here
        dot = tmp_path / f"n{n}.dot"
        run_ok(["dag", "--n", str(n), "--dot", str(dot)], capsys)
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == digest

    def test_unwritable_dot_path(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.dot"
        assert main(["dag", "--n", "3", "--dot", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {path}: No such file or directory\n")

    def test_single_node(self, tmp_path, capsys):
        dot = tmp_path / "n1.dot"
        out, _ = run_ok(["dag", "--n", "1", "--dot", str(dot)], capsys)
        assert "nodes=1 edges=0" in out
        assert '"1";' in dot.read_text()
