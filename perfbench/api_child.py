"""Drain the library's ``topk()`` stream once, in a fresh interpreter.

Usage: python3 api_child.py SRC INPUT ALGO OUTPUT K TOTALS_OUT

Times only the drain: ``topk()`` plus consuming every item (and, for
``compact`` with ``subsets`` output, the ``expand_deltas`` replay the CLI
also does).  Import and ``load_input`` stay outside the clock.  The
consumer keeps each total, which the parent checks after the run; the
totals file is written after the clock stops.  Prints one JSON line.
"""

import gc
import json
import os
import sys
import time


def main(argv: list) -> int:
    src, path, algo, output, k, totals_out = argv
    sys.path.insert(0, src)
    import topk_subsets as pkg

    with open(path, encoding="utf-8") as fh:
        r = pkg.load_input(fh)
    k = int(k)
    expand = algo == "compact" and output == "subsets"

    t0 = time.perf_counter_ns()
    stream, _ = pkg.topk(r, k, algo)
    if expand:
        stream = pkg.expand_deltas(stream)
    totals = []
    keep = totals.append
    for item in stream:
        keep(item.total)
    elapsed = time.perf_counter_ns() - t0

    with open(totals_out, "w", encoding="ascii") as fh:
        fh.write("\n".join(map(str, totals)))
        fh.write("\n")
    print(json.dumps({
        "drain_ns": elapsed,
        "results": len(totals),
        "gc_enabled": gc.isenabled(),
        "module": os.path.realpath(pkg.__file__),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
