"""Command-line surface: query, verify, benchmark, and DAG export.

Exit codes: 0 success (including a truncated answer, which adds a notice on
stderr), 1 a failed ``verify`` check or ``topk`` walk (in its forked process),
2 bad flags or an output file that cannot be written, 3 unusable input data.
Every subcommand exits 141 (128 + SIGPIPE, what a shell reports for a
filter killed by a closed pipe) without a traceback when its stdout is
closed before the last line, as in ``topk ... | head``, or at start, when
it does no work.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import marshal
import os
import stat
import sys
from contextlib import closing, nullcontext, suppress
from functools import partial
from itertools import product
from time import monotonic
from typing import IO, Callable, Iterator, Sequence

from .core import InputError, _load_values, _replayer, load_input
from .enumerators import RunMetrics, Variant, topk
from .shifts import final_dag_report, pattern_text, walk_final_dag

__all__ = ["main"]

_ALGOS = [v.value for v in Variant]

# topk's walk closes a batch per _BATCH records, or sooner once _WAIT_S seconds have
# passed since the last one, so a slow stream shows promptly; each is one write and flush
_BATCH = 1024
_WAIT_S = 0.05

# an int --input file of at least _SPLIT bytes loads in two halves at once, the second in
# a forked helper.  At --k 1 the split lost 9% on 0.34 MB (5*10**4 values) and won 4% on
# 0.52 MB and 8% on 0.69 MB; the largest perfbench input below it is 20 KB
_SPLIT = 1 << 19


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _comma_list(item):
    """An argparse type: a comma-separated list of item(entry), blank entries skipped."""
    def parse(text: str) -> list:
        try:
            values = [item(tok) for tok in map(str.strip, text.split(",")) if tok]
        except ValueError as exc:  # Variant's: name the choices
            raise argparse.ArgumentTypeError(f"{exc}, expected from {','.join(_ALGOS)}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return values
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topk-subsets",
        description="Stream the k smallest-sum non-empty subsets of a sorted input set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topk", help="enumerate the k best subsets of an input file")
    p.add_argument("--input", default="-", help="input file of numbers, or - for stdin")
    p.add_argument("--k", type=_positive_int, required=True, help="how many subsets")
    p.add_argument("--algo", choices=_ALGOS, default="compact")
    p.add_argument("--output", choices=["sums", "subsets", "deltas"], default="sums")
    p.add_argument("--mode", choices=["int", "float"], default="int")
    p.add_argument("--metrics", metavar="FILE", default=None,
                   help="write run counters to FILE as key=value lines")
    p.set_defaults(func=cmd_topk)

    p = sub.add_parser("verify", help="self-check against the brute-force oracle")
    p.add_argument("--n-max", type=_positive_int, default=12)
    p.add_argument("--seeds", type=_positive_int, default=25)
    p.add_argument("--algos", type=_comma_list(Variant), default=",".join(_ALGOS),
                   help="comma-separated subset of " + ",".join(_ALGOS))
    p.add_argument("--mode", choices=["int", "float"], default="int",
                   help="int: values in [1, 10**6]; float: subnormals, values near 1 and"
                        " values near 1e308, against exact sums")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time and space of each cell of an (n, k, algo) grid")
    p.add_argument("--n-list", type=_comma_list(_positive_int), required=True)
    p.add_argument("--k-list", type=_comma_list(_positive_int), required=True)
    p.add_argument("--algos", type=_comma_list(Variant), default="baseline,compact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=_positive_int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("dag", help="export the full successor DAG as DOT")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--dot", metavar="FILE", required=True)
    p.set_defaults(func=cmd_dag)

    return parser


def _warn(line: str) -> None:
    """Print a line on stderr, or drop it when stderr is closed: the exit code tells."""
    if sys.stderr is not None:  # print(file=None) would write it to stdout
        with suppress(OSError):
            print(line, file=sys.stderr)


def _write_file(path: str, text: str) -> bool:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        _warn(f"error: cannot write {path}: {exc.strerror}")
        return False
    return True


class _Counted(io.RawIOBase):
    """A binary source that counts the bytes read from it, and reads ``stop`` at most.

    ``binary`` is a binary stream, read where it stands, or a file descriptor, read
    from byte ``start`` by ``os.pread``, which moves no file offset: both halves of
    a split load are read so, as the forked load helper shares the offset of its
    parent's file.  The count names a decode error's offset in a whole load, which
    starts at byte 0; a split load that fails is loaded whole again for its message.
    """

    def __init__(self, binary: "IO[bytes] | int", start: int = 0,
                 stop: "int | None" = None) -> None:
        self.binary, self.start, self.stop, self.count = binary, start, stop, 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if self.stop is not None:
            buffer = memoryview(buffer)[: self.stop - self.count]
        if isinstance(self.binary, int):
            data = os.pread(self.binary, len(buffer), self.start + self.count)
            n = len(data)
            buffer[:n] = data
        else:
            n = self.binary.readinto(buffer)
        self.count += n
        return n


def _load_rest(fd: int, start: int, keep: int) -> Iterator:
    """The load helper's one frame: the int ``_load_values`` triple of the file from
    byte ``start``."""
    yield _load_values(io.TextIOWrapper(_Counted(fd, start), encoding="utf-8"), int, keep)


def _split(fh: IO[bytes], args: argparse.Namespace) -> "int | None":
    """Where the first half of ``fh`` stops when its second loads in a helper, or None.

    An int ``--input`` regular file of at least ``_SPLIT`` bytes splits just past
    the first ``"\\n"`` at or after half its bytes: a ``"\\n"`` ends every token and
    comment and is never part of a UTF-8 sequence.  Stdin, float mode, smaller
    files and a line that runs on for a whole block there load whole.
    """
    if args.input == "-" or args.mode != "int":
        return None
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode) or info.st_size < _SPLIT:
        return None
    half = info.st_size // 2
    fh.seek(half)
    at = fh.read(1 << 16).find(b"\n")
    fh.seek(0)
    return None if at < 0 else half + at + 1


def _walk(r, args: argparse.Namespace) -> Iterator:
    """The walk's frames: batches of the fields printed, then a tuple of the RunMetrics fields."""
    stream, metrics = topk(r, args.k, Variant(args.algo), args.output)
    batch, last = [], monotonic()
    for fields in stream:
        batch.append(fields)
        if len(batch) >= _BATCH or monotonic() - last >= _WAIT_S:
            yield batch
            batch, last = [], monotonic()
    if batch:
        yield batch
    yield dataclasses.astuple(metrics)


def _forked(frames: Callable[[], Iterator]) -> "Iterator | None":
    """The frames of ``frames()``, run in a process forked now and sent through a pipe.

    The frames end with a tuple.  Each frame is a 4-byte little-endian length and a
    ``marshal`` payload; a str payload is the child's traceback, sent last.  The
    returned generator reads the pipe to its end and reaps the child once, and then a
    failed child raises the builtin ``ChildProcessError``.  Only a reader that leaves
    early, by ``close()`` or a fault, has the child killed first.  None where no
    process can be forked: ``os.fork`` is missing or fails.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # no os.fork, or no process to spare
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:  # the child leaves by os._exit alone: it never returns into the
        code = 1  # caller, nor flushes the stdout buffer it inherited
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                def send(frame) -> None:
                    data = marshal.dumps(frame)
                    pipe.write(len(data).to_bytes(4, "little") + data)
                    pipe.flush()
                try:
                    for frame in frames():
                        send(frame)
                except Exception:
                    import traceback
                    send(traceback.format_exc())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    received = _received(pid, read_end)
    next(received)
    return received


def _received(pid: int, read_end: int) -> Iterator:
    """The frames that child ``pid`` sends to ``read_end``, read to the pipe's end.

    A None comes first, which ``_forked`` takes.  The ``finally`` reaps the child, once,
    killing it first only if the reader left early; a failure raises after it.  Where
    SIGCHLD is ignored, the system reaps it first: the wait finds no status to name.
    """
    ended, last = False, None
    try:
        with open(read_end, "rb") as pipe:
            yield None
            while len(head := pipe.read(4)) == 4:
                size = int.from_bytes(head, "little")
                data = pipe.read(size)
                if len(data) < size:
                    break
                last = marshal.loads(data)
                if not isinstance(last, str):  # a str, the traceback, is kept for after the wait
                    yield last
        ended = True  # the child closed its end of the pipe
    finally:
        if not ended:
            from signal import SIGKILL  # only an early exit pays for the module
            with suppress(ProcessLookupError):  # the system reaped it already
                os.kill(pid, SIGKILL)
        how = ""
        with suppress(ChildProcessError):  # SIGCHLD ignored: reaped, status and all
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            how = f" by signal {-code}" if code < 0 else f" with exit code {code}"
    if isinstance(last, str):
        raise ChildProcessError(last.rstrip("\n"))
    if not isinstance(last, tuple):
        raise ChildProcessError(f"its process ended{how} before its last frame")


def cmd_topk(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.output == "deltas" and args.algo != "compact":
        parser.error("--output deltas requires --algo compact (the delta-emitting variant)")
    counted = None
    try:
        if args.input == "-" and sys.stdin is None:  # started with fd 0 closed
            raise OSError("stdin is closed")
        if args.input == "-" and not hasattr(sys.stdin, "buffer"):  # a text stand-in
            r = load_input(sys.stdin, args.mode, keep=args.k)
        else:  # the bytes, decoded as open() decodes a file, and counted
            binary = open(args.input, "rb") if args.input != "-" else nullcontext(sys.stdin.buffer)
            with binary as fh:
                r = None
                # no helper forked, or a fault in either half, in their merge or in the
                # helper: the whole load below, from byte 0, gives the verdict and message
                if (split := _split(fh, args)) is not None and (
                        rest := _forked(partial(_load_rest, fh.fileno(), split, args.k))):
                    with suppress(OSError, ValueError), closing(rest):
                        first = io.TextIOWrapper(_Counted(fh.fileno(), 0, split), encoding="utf-8")
                        # the helper's one frame, read to its end, which reaps the helper
                        r = load_input(first, "int", keep=args.k, _rest=lambda: [*rest][0])
                if r is None:
                    counted = _Counted(fh)
                    r = load_input(io.TextIOWrapper(counted, encoding="utf-8"), args.mode,
                                   keep=args.k)
    except OSError as exc:
        _warn(f"error: cannot read input: {exc}")
        return 3
    except UnicodeDecodeError as exc:
        if counted is None:  # a text stand-in for stdin decodes for itself
            _warn(f"error: cannot decode input: {exc}")
            return 3
        # the offset in the input: the decoder's chunk ends at the last byte read
        at, width = counted.count - len(exc.object) + exc.start, exc.end - exc.start
        where = (f"byte 0x{exc.object[exc.start]:02x} in position {at}" if width == 1
                 else f"bytes in position {at}-{at + width - 1}")
        _warn(f"error: cannot decode input as UTF-8: '{exc.encoding}' codec can't decode "
              f"{where}: {exc.reason}")
        return 3
    except InputError as exc:
        _warn(f"error: {exc}")
        return 3

    # k <= _BATCH, or no process to fork, walks here: a fork adds 4-5 ms, 7% of a --k 1
    # run on 10**3 values
    walk = partial(_walk, r, args)
    frames = (_forked(walk) if args.k > _BATCH else None) or walk()
    if args.output == "subsets":
        # the decimal strings of the positions: the load kept no value an answer cannot use
        decimal = list(map(str, range(r.n + 1))).__getitem__
        join = ",".join
        step = _replayer() if args.algo == "compact" else None
    out, rank, metrics = sys.stdout, 1, None
    # a closed stdout raises BrokenPipeError at a write, before --metrics is written
    try:
        with closing(frames):
            for frame in frames:
                if isinstance(frame, tuple):  # the last frame
                    metrics = RunMetrics(*frame)
                    continue
                if args.output == "sums":
                    lines = [f"{q}\t{total}\n" for q, total in enumerate(frame, rank)]
                elif args.output == "deltas":  # (total, parent, removed, added), None as "-"
                    lines = [f"{q}\t" + "\t".join(["-" if v is None else str(v) for v in fields])
                             + "\n" for q, fields in enumerate(frame, rank)]
                elif step is None:  # (total, positions)
                    lines = [f"{q}\t{total}\t{join(map(decimal, positions))}\n"
                             for q, (total, positions) in enumerate(frame, rank)]
                else:  # compact's (total, parent, removed, added), replayed into positions
                    lines = [f"{q}\t{total}\t{join(map(decimal, step(parent, removed, added)))}\n"
                             for q, (total, parent, removed, added) in enumerate(frame, rank)]
                rank += len(frame)
                out.write("".join(lines))
                out.flush()
    except ChildProcessError as exc:
        _warn(f"error: the walk failed: {exc}")
        return 1

    emitted = metrics.extractions
    if args.metrics:
        text = "".join(f"{name}={value}\n" for name, value in dataclasses.asdict(metrics).items())
        if not _write_file(args.metrics, f"{text}reported_count={emitted}\n"):
            return 2
    # A cut load never gets here: it keeps m + 1 >= j + 1 values, j the bit
    # length of k, which form 2**(j+1) - 1 > k subsets, so r.n is the full n.
    if emitted < args.k:
        _warn(f"note: truncated at {emitted} subsets; only {emitted} non-empty "
              f"subsets exist for n={r.n}")
    return 0


# verify and bench import their helpers on call: statistics is not loaded for topk
def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .bench import gen_float_instance, gen_instance
    from .oracle import subset_problem, topk_oracle

    if args.n_max > 16:
        parser.error("--n-max is capped at 16 (oracle cost doubles per step)")

    def report(name: str, problem: "str | None") -> bool:
        print(f"{name:<44s} {'PASS' if problem is None else f'FAIL {problem}'}")
        return problem is not None

    make, tag = (gen_instance, "") if args.mode == "int" else (gen_float_instance, " float")
    # instance-major: each instance and its oracle answer serve every variant,
    # which keeps its first failure (a crash is as much one as a wrong answer)
    first_problem = dict.fromkeys(args.algos)
    for n, seed in product(range(1, args.n_max + 1), range(args.seeds)):
        pending = [variant for variant, problem in first_problem.items() if problem is None]
        if not pending:
            break
        k, inst = (1 << n) - 1, make(n, seed)
        want, where = [s for s, _ in topk_oracle(inst, k)], f"(n={n}, seed={seed}, k={k})"
        for variant in pending:
            try:
                records = list(topk(inst, k, variant)[0])
                got = [item.total for item in records]
                if got != want:
                    first_bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                                     min(len(got), len(want)))
                    first_problem[variant] = f"{where} rank {first_bad + 1}"
                elif (problem := subset_problem(inst, records)) is not None:
                    first_problem[variant] = f"{where} {problem}"
            except Exception as exc:
                first_problem[variant] = f"{where} raised {exc!r}"
    failed = sum(report(f"oracle-equivalence[{v.value}{tag}]", problem)
                 for v, problem in first_problem.items())

    for n in range(1, min(args.n_max, 10) + 1):
        try:
            problems = final_dag_report(n)
        except Exception as exc:
            problems = [f"walk raised {exc!r}"]
        failed += report(f"structure[final-dag n={n}]", problems[0] if problems else None)

    if failed:
        _warn(f"{failed} check(s) failed")
        return 1
    return 0


def cmd_bench(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .bench import Cell, run_matrix

    spec = ">6 >9 <10 >14 >4 >16 >9 >11".split()  # one per Cell field
    print(*map(format, [name.replace("elapsed", "median") for name in Cell._fields], spec))
    for cell in run_matrix(args.n_list, args.k_list, args.algos, args.seed, args.reps):
        print(*map(format, cell, spec))
    return 0


def cmd_dag(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.n > 10:
        parser.error("--n is capped at 10 (the DAG has 2**n - 1 nodes)")
    lines = ["digraph topk_subsets {"]
    node_count = 0
    edge_count = 0
    for node, children in walk_final_dag(args.n):
        pattern = pattern_text(node)
        lines.append(f'  "{pattern}";')
        node_count += 1
        for child, edge in children:
            lines.append(f'  "{pattern}" -> "{pattern_text(child)}" [label="{edge}"];')
            edge_count += 1
    lines.append("}")
    if not _write_file(args.dot, "\n".join(lines) + "\n"):
        return 2
    print(f"nodes={node_count} edges={edge_count} -> {args.dot}")
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if sys.stdout is None:  # started with fd 1 closed: as a pipe closed before the first line
        return 141
    try:
        code = args.func(args, parser)
        sys.stdout.flush()  # a buffered run meets a closed stdout here, if not before
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so the interpreter's
        # final flush of the unwritten buffer cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    raise SystemExit(main())
