"""Three interchangeable streaming top-k enumerators on one best-first driver.

Each step of the driver extracts the smallest-sum node from a
:class:`BoundedPool`, keyed by the node's exact sum ``node[0]``, inserts
its successors and emits it as one item (a :class:`RankedSubset`, or the
fields that the ``topk`` CLI prints), so consuming q items never does the
work of q+1.  A variant picks the root, successor rule and item.  All but
``baseline`` skip the successors of the final extraction (nothing after
it can surface) and after every other step q, when the pool holds more
than the k - q answers still owed, declare that budget with
``prune_to(k - q)``; a pruned entry could never be emitted.

``baseline``
    Prior-work scheme over ``(total, positions)`` nodes.  Children of S
    are (S - {max}) + {max+1} and S + {max+1}, both existing when
    max(S) < n, so generation is duplicate-free.  It expands every
    extraction and never prunes: a completed k-run makes exactly 2k+1
    insertions and peaks at k+1 entries (when no extracted subset tops
    out at position n).

``bitvec``
    The final one-parent DAG over full bit patterns: the ``compact`` rule
    plus an O(n) pattern copy per child and an O(n) decode per emission.

``compact``
    The same walk in cursor-only form: O(1) state per node, no pattern.
    Emits (parent_rank, removed, added) deltas that
    :func:`topk_subsets.core.expand_deltas` replays into positions.

Every walk adds the input's ``exact`` ints, so float mode orders by the
exact sums; its items carry them rounded once to floats (``unscale``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .core import InputSet, RankedSubset, _new, unscale
from .pool import BoundedPool
from .shifts import (_bitvec_fields, _compact_fields, bit_root, bitvec_record, compact_children,
                     compact_root, delta_record, final_dag_children)

__all__ = ["RunMetrics", "Variant", "topk"]

Stream = Iterator[RankedSubset]


@dataclass(slots=True)
class RunMetrics:
    """Counters of one best-first walk, kept by the walk from the pool's ``len()``.

    ``total_insertions`` counts the root and every child inserted, ``peak_size``
    the largest size after a step's inserts (a pool only grows within a step),
    ``extractions`` the items emitted, ``prunes`` the live entries a budget
    dropped, and ``elapsed_ns`` the wall time from the first ``next()`` to the
    end, the consumer's time between yields included.  Under the ``topk`` CLI
    above 1,024 answers the walk runs in its own process, and its consumer is
    the batching there, waits for room in the pipe included, not the writer.
    The live size of the pool is ``total_insertions - extractions - prunes``.
    """

    total_insertions: int = 0
    peak_size: int = 0
    extractions: int = 0
    prunes: int = 0
    elapsed_ns: int = 0


class Variant(Enum):
    BASELINE = "baseline"
    ONDEMAND_BITVEC = "bitvec"
    ONDEMAND_COMPACT = "compact"


def _baseline_successors(node: tuple, r: InputSet, rank: int) -> list[tuple]:
    """Baseline children of a ``(total, positions)`` node: replace-max, then extend-max."""
    total, positions = node
    values, m = r.exact, positions[-1]
    if m >= len(values):
        return []
    return [(total - values[m - 1] + values[m], positions[:-1] + (m + 1,)),
            (total + values[m], positions + (m + 1,))]


def _positions_record(rank: int, node: tuple) -> RankedSubset:
    return _new(RankedSubset, (rank, node[0], node[1], None))


_baseline_fields = {"sums": _compact_fields["sums"], "subsets": lambda q, node: node}


def _best_first(r, k_eff, root, successors, record, expand_all=False):
    """Emit the item ``record(q, node)`` for the k_eff best nodes reachable from root.

    ``successors(node, r, q)`` gives the children of the q-th node; ``node[0]``, its
    exact sum, is its pool key and is rounded once in a float-mode item.
    ``expand_all`` (baseline) expands every extraction, never prunes.
    """
    metrics = RunMetrics()
    if r.mode == "float":
        def record(q: int, node, exact_record=record, scale=r.scale):
            return exact_record(q, (unscale(node[0], scale),) + node[1:])

    def gen() -> Stream:
        t0 = time.perf_counter_ns()
        try:
            pool = BoundedPool()
            pool.insert(root, root[0])
            metrics.total_insertions = metrics.peak_size = 1
            # bound locally: the loop body runs k_eff times
            extract, insert, prune_to = pool.extract_min, pool.insert, pool.prune_to
            for q in range(1, k_eff + 1):
                node = extract()
                metrics.extractions = q
                if q < k_eff or expand_all:
                    children = successors(node, r, q)
                    for child in children:
                        insert(child, child[0])
                    metrics.total_insertions += len(children)
                    size = len(pool)
                    if size > metrics.peak_size:
                        metrics.peak_size = size
                    if not expand_all and size > k_eff - q:
                        metrics.prunes += size - (k_eff - q)
                        prune_to(k_eff - q)
                yield record(q, node)
        finally:
            metrics.elapsed_ns = time.perf_counter_ns() - t0

    return gen(), metrics


def topk(
    r: InputSet,
    k: int,
    variant: "Variant | str" = Variant.ONDEMAND_COMPACT,
    _fields: "str | None" = None,
) -> tuple[Stream, RunMetrics]:
    """Stream the k smallest-sum subsets of r under the chosen variant.

    Returns the lazy result stream and its live metrics object; the
    metrics are final once the stream is exhausted (or closed).  k < 1
    and an unknown variant raise ``ValueError`` here; the pool is first
    touched at the first ``next()``.  When fewer than k non-empty subsets
    exist, the stream ends early and ``metrics.extractions`` reports how
    many were emitted.  Every variant's node keeps its exact int sum at
    ``node[0]``, so sums are non-decreasing in both modes; ties order
    arbitrarily but deterministically.  Float-mode totals are floats, each
    the exact sum rounded once (``inf`` past the float range).  ``_fields``, the
    ``topk`` CLI's ``--output``, makes it yield the fields printed, not records.
    """
    variant = Variant(variant)
    if k < 1:
        raise ValueError("k must be >= 1")
    # no n-bit int: at n = 10**6 building one raised the CLI's peak RSS by 4 MB
    k_eff = k if r.n >= 64 else min(k, (1 << r.n) - 1)
    if variant is Variant.BASELINE:
        return _best_first(r, k_eff, (r.exact[0], (1,)), _baseline_successors,
                           _baseline_fields.get(_fields, _positions_record), expand_all=True)
    if variant is Variant.ONDEMAND_BITVEC:
        return _best_first(r, k_eff, bit_root(r), final_dag_children,
                           _bitvec_fields.get(_fields, bitvec_record))
    return _best_first(r, k_eff, compact_root(r), compact_children,
                       _compact_fields.get(_fields, delta_record))
