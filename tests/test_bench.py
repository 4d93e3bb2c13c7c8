"""Deterministic instance generation and the interleaved timing grid."""

import hashlib
import math
import sys

import topk_subsets.bench as bench
from topk_subsets.bench import gen_instance, run_matrix, splitmix64_stream
from topk_subsets.enumerators import Variant
from topk_subsets.enumerators import RunMetrics


class TestSplitmix64:
    def test_published_vector_for_seed_zero(self):
        s = splitmix64_stream(0)
        assert [next(s) for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_deterministic_per_seed(self):
        a = splitmix64_stream(12345)
        b = splitmix64_stream(12345)
        assert [next(a) for _ in range(10)] == [next(b) for _ in range(10)]

    def test_seeds_diverge(self):
        assert next(splitmix64_stream(1)) != next(splitmix64_stream(2))

    def test_outputs_are_64_bit(self):
        s = splitmix64_stream(987654321)
        assert all(0 <= next(s) < 2**64 for _ in range(100))


class TestGenInstance:
    def test_frozen_small_instance(self):
        r = gen_instance(5, 0)
        assert r.values == (94748, 355701, 542445, 545680, 607536)
        assert r.mode == "int"
        # the acceptance gates' n = 1000 instance, pinned by digest
        digest = hashlib.sha256(repr(gen_instance(1000, 5).values).encode()).hexdigest()
        assert digest == "8e3374ab55b64a2a30d21b2e465df38327189beb20fe9d4ec3d1e6e86d98f7cd"

    def test_sorted_and_in_range(self):
        r = gen_instance(100, 5)
        assert r.values == tuple(sorted(r.values))
        assert all(1 <= v <= 10**6 for v in r.values)

    def test_seed_controls_content(self):
        assert gen_instance(8, 1) == gen_instance(8, 1)
        assert gen_instance(8, 1) != gen_instance(8, 2)


class TestRunMatrix:
    def test_grid_shape_and_counts(self):
        cells = run_matrix((4, 6), (3, 100), (Variant.BASELINE, Variant.ONDEMAND_COMPACT),
                           seed=1, reps=2)
        assert [(c.n, c.k, c.variant) for c in cells] == [
            (n, k, v) for n in (4, 6) for k in (3, 100) for v in ("baseline", "compact")
        ]
        for c in cells:
            assert c.reps == 2
            assert c.extractions == min(c.k, 2**c.n - 1)
            assert c.elapsed_ns > 0

    def test_counters_stable_across_repetitions(self):
        def counts(reps):
            cells = run_matrix((6, 9), (20,), ("baseline", "compact"), seed=7, reps=reps)
            return [(c.n, c.k, c.variant, c.total_insertions, c.peak_size, c.extractions)
                    for c in cells]

        assert counts(1) == counts(3)

    def test_repetitions_alternate_direction(self, monkeypatch):
        visits = []
        real = bench.topk

        def spy(r, k, variant):
            visits.append((r.n, k, variant.value))
            return real(r, k, variant)

        monkeypatch.setattr(bench, "topk", spy)
        run_matrix((4, 5), (3, 7), ("baseline", "compact"), seed=2, reps=3)
        grid = [(n, k, v) for n in (4, 5) for k in (3, 7) for v in ("baseline", "compact")]
        assert visits == grid + grid[::-1] + grid

    def test_repeated_entries_name_one_cell(self):
        cells = run_matrix((4, 4), (3,), ("compact", "compact"), seed=0, reps=3)
        assert [(c.n, c.k, c.variant, c.reps) for c in cells] == [(4, 3, "compact", 3)]


class TestMedianCells:
    """run_matrix reports each cell's median over its repetitions."""

    @staticmethod
    def timed(monkeypatch, elapsed):
        ticks = iter(elapsed)

        def fake(r, k, variant):
            return iter(()), RunMetrics(extractions=k, elapsed_ns=next(ticks))

        monkeypatch.setattr(bench, "topk", fake)

    def test_odd_and_even(self, monkeypatch):
        self.timed(monkeypatch, [30, 10, 20])
        assert run_matrix((4,), (3,), ("baseline",), seed=1, reps=3)[0].elapsed_ns == 20
        self.timed(monkeypatch, [30, 10])
        assert run_matrix((4,), (3,), ("baseline",), seed=1, reps=2)[0].elapsed_ns == 20


class TestGenFloatInstance:
    def test_deterministic_and_float(self):
        r = bench.gen_float_instance(8, 3)
        assert r.mode == "float" and r.values == bench.gen_float_instance(8, 3).values
        assert r.values != bench.gen_float_instance(8, 4).values
        assert list(r.values) == sorted(r.values)

    def test_bands_reach_subnormals_and_the_float_range(self):
        values = bench.gen_float_instance(8, 0).values
        assert sum(0 < v < sys.float_info.min for v in values) == 2  # subnormal
        assert sum(0.0625 <= v < 2 for v in values) == 4
        big = [v for v in values if v >= 2.0**1022]
        assert len(big) == 2 and math.isinf(big[0] + big[1])
