"""Command-line surface: query, verify, benchmark, and DAG export.

Exit codes: 0 success (including a truncated answer, which adds a notice
on stderr), 2 bad flags or flag combinations, 3 unusable input data.
``topk`` exits 141 (128 + SIGPIPE, what a shell reports for a filter
killed by a closed pipe) without a traceback when its stdout is closed
before the last line, as in ``topk ... | head``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import IO, Sequence

from .bench import BenchConfig, UniformInteger, emit_csv, gen_instance, median_cells, run_matrix
from .core import InputError, expand_deltas, load_input
from .enumerators import Variant, topk
from .oracle import all_subsets_sorted
from .shifts import ShiftKind, final_dag_report, walk_final_dag

__all__ = ["main"]

_EDGE_SETS = {
    "incr": ShiftKind.INCREMENTAL,
    "mincr": ShiftKind.MANDATORY_INCREMENTAL,
    "mmincr": ShiftKind.MODIFIED_MANDATORY_INCREMENTAL,
}

_ALGOS = [v.value for v in Variant]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


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
    p.add_argument("--edge-set", choices=sorted(_EDGE_SETS), default=None,
                   help="incremental edge flavour (dedup only)")
    p.add_argument("--output", choices=["sums", "subsets", "deltas"], default="sums")
    p.add_argument("--mode", choices=["int", "float"], default="int")
    p.add_argument("--metrics", metavar="FILE", default=None,
                   help="write run counters to FILE as key=value lines")
    p.set_defaults(func=cmd_topk)

    p = sub.add_parser("verify", help="self-check against the brute-force oracle")
    p.add_argument("--n-max", type=_positive_int, default=12)
    p.add_argument("--seeds", type=_positive_int, default=25)
    p.add_argument("--algos", type=str, default=",".join(_ALGOS),
                   help="comma-separated subset of " + ",".join(_ALGOS))
    p.add_argument("--edge-set", choices=sorted(_EDGE_SETS), default="incr")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="timed metric runs over an (n, k, algo) grid")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--k-list", type=_int_list, required=True)
    p.add_argument("--algos", type=str, default="baseline,compact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=_positive_int, default=1)
    p.add_argument("--csv", metavar="FILE", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("dag", help="export the full successor DAG as DOT")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--dot", metavar="FILE", required=True)
    p.set_defaults(func=cmd_dag)

    return parser


def _parse_algos(parser: argparse.ArgumentParser, text: str) -> list[Variant]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok not in _ALGOS:
            parser.error(f"unknown algo {tok!r}, expected from {','.join(_ALGOS)}")
        out.append(Variant(tok))
    if not out:
        parser.error("no algos given")
    return out


def cmd_topk(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.edge_set is not None and args.algo != "dedup":
        parser.error("--edge-set applies to --algo dedup only")
    if args.output == "deltas" and args.algo != "compact":
        parser.error("--output deltas requires --algo compact (the delta-emitting variant)")
    try:
        if args.input == "-":
            r = load_input(sys.stdin, args.mode, keep=args.k)
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                r = load_input(fh, args.mode, keep=args.k)
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    edge_set = _EDGE_SETS[args.edge_set or "incr"]
    stream, metrics = topk(r, args.k, Variant(args.algo), edge_set=edge_set)
    out = sys.stdout
    if args.output == "subsets" and args.algo == "compact":
        stream = expand_deltas(stream)

    emitted = 0
    try:
        for item in stream:
            if args.output == "sums":
                out.write(f"{item.rank}\t{item.total}\n")
            elif args.output == "subsets":
                joined = ",".join(map(str, item.positions))
                out.write(f"{item.rank}\t{item.total}\t{joined}\n")
            else:
                d = item.delta
                parent = "-" if d.parent_rank is None else str(d.parent_rank)
                removed = "-" if d.removed is None else str(d.removed)
                added = "-" if d.added is None else str(d.added)
                out.write(f"{item.rank}\t{item.total}\t{parent}\t{removed}\t{added}\n")
            out.flush()
            emitted += 1
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so the interpreter's
        # final flush of the unwritten buffer cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return 141

    if args.metrics:
        with open(args.metrics, "w", encoding="ascii") as fh:
            fh.write(f"total_insertions={metrics.total_insertions}\n")
            fh.write(f"peak_size={metrics.peak_size}\n")
            fh.write(f"extractions={metrics.extractions}\n")
            fh.write(f"prunes={metrics.prunes}\n")
            fh.write(f"elapsed_ns={metrics.elapsed_ns}\n")
            fh.write(f"reported_count={emitted}\n")
    # A cut load (k + 1 < n) never gets here: it keeps m + 1 >= k + 1 values,
    # which form more than k subsets, so r.n in the notice is the full n.
    if emitted < args.k:
        print(
            f"note: truncated at {emitted} subsets; only {emitted} non-empty "
            f"subsets exist for n={r.n}",
            file=sys.stderr,
        )
    return 0


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.n_max > 16:
        parser.error("--n-max is capped at 16 (oracle cost doubles per step)")
    algos = _parse_algos(parser, args.algos)
    edge_set = _EDGE_SETS[args.edge_set]
    failures: list[str] = []

    def report(name: str, problem: "str | None") -> None:
        status = "PASS" if problem is None else f"FAIL {problem}"
        print(f"{name:<44s} {status}")
        if problem is not None:
            failures.append(f"{name}: {problem}")

    dist = UniformInteger(1, 10**6)
    for variant in algos:
        problem = None
        for n in range(1, args.n_max + 1):
            k = (1 << n) - 1
            for seed in range(args.seeds):
                inst = gen_instance(n, seed, dist)
                want = [s for s, _ in all_subsets_sorted(inst)[:k]]
                # a crash is as much a failed check as a wrong answer
                try:
                    stream, _ = topk(inst, k, variant, edge_set=edge_set)
                    got = [item.total for item in stream]
                except Exception as exc:
                    problem = f"(n={n}, seed={seed}, k={k}) raised {exc!r}"
                    break
                if got != want:
                    mismatch = [
                        i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]
                    ]
                    first_bad = mismatch[0] if mismatch else min(len(got), len(want))
                    problem = f"(n={n}, seed={seed}, k={k}) rank {first_bad + 1}"
                    break
            if problem:
                break
        report(f"oracle-equivalence[{variant.value}]", problem)

    for n in range(1, min(args.n_max, 10) + 1):
        try:
            problems = final_dag_report(n)
        except Exception as exc:
            problems = [f"walk raised {exc!r}"]
        report(
            f"structure[final-dag n={n}]",
            problems[0] if problems else None,
        )

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    variants = _parse_algos(parser, args.algos)
    cfg = BenchConfig(
        n_list=args.n_list,
        k_list=args.k_list,
        variants=tuple(variants),
        seed=args.seed,
        repetitions=args.reps,
    )
    rows = run_matrix(cfg)
    emit_csv(rows, args.csv)
    print(f"{len(rows)} rows -> {args.csv}")
    print(f"{'n':>6} {'k':>9} {'variant':<10} {'median_ns':>14} reps")
    for n, k, variant, med, reps in median_cells(rows):
        print(f"{n:>6} {k:>9} {variant:<10} {med:>14} {reps}")
    return 0


def cmd_dag(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.n > 10:
        parser.error("--n is capped at 10 (the DAG has 2**n - 1 nodes)")
    lines = ["digraph topk_subsets {"]
    node_count = 0
    edge_count = 0
    for node, children in walk_final_dag(args.n):
        pattern = "".join(map(str, node.bits))
        lines.append(f'  "{pattern}";')
        node_count += 1
        for child, edge in children:
            child_pattern = "".join(map(str, child.bits))
            lines.append(f'  "{pattern}" -> "{child_pattern}" [label="{edge.value}"];')
            edge_count += 1
    lines.append("}")
    with open(args.dot, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"nodes={node_count} edges={edge_count} -> {args.dot}")
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    raise SystemExit(main())
