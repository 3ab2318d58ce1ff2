"""Tests for the report helpers: stat aggregation and zero suppression."""

from __future__ import annotations

from repro.flows.report import compact_stats, summarize_engine_stats


class TestSummarizeEngineStats:
    def test_empty_input(self):
        assert summarize_engine_stats([]) == "engine stats: none collected"

    def test_rows_without_engine_fields(self):
        rows = [{"total_time": 1.0}, {"depth1": 3}]
        assert summarize_engine_stats(rows) == "engine stats: none collected"

    def test_mixed_key_rows_aggregate(self):
        rows = [
            {"cec_sat_queries": 10, "cec_sweep_merges": 4, "cec_time_sweep": 0.5},
            # A row missing some keys and carrying non-engine noise, plus
            # the proof-cache counters of a row checkpointed before 1.5.0.
            {"cec_sat_queries": 5, "cec_cache_hits": 3, "cec_cache_misses": 1,
             "total_time": 9.0},
            # An ERROR row contributes nothing.
            {},
        ]
        text = summarize_engine_stats(rows)
        assert "sat queries 15" in text
        assert "sweep merges 4" in text
        assert "cache" not in text
        assert "sweep 0.50s" in text

    def test_cache_line_absent_without_traffic(self):
        text = summarize_engine_stats([{"cec_sat_queries": 1}])
        assert "cache hits" not in text

    def test_prefix_filtering(self):
        rows = [{"cec_sat_queries": 7, "eng_sat_queries": 100}]
        assert "sat queries 100" in summarize_engine_stats(rows, prefix="eng_")
        assert "sat queries 7" in summarize_engine_stats(rows)

    def test_phase_times_summed_across_rows(self):
        rows = [
            {"cec_time_sweep": 1.0, "cec_time_build": 0.25},
            {"cec_time_sweep": 2.0},
        ]
        text = summarize_engine_stats(rows)
        assert "sweep 3.00s" in text
        assert "build 0.25s" in text


class TestCompactStats:
    def test_zero_robustness_counters_dropped(self):
        stats = {
            "sat_queries": 10,
            "worker_failures": 0,
            "budget_exhausted": 0,
        }
        assert compact_stats(stats) == {"sat_queries": 10}

    def test_nonzero_robustness_counters_kept(self):
        stats = {"budget_exhausted": 3, "worker_failures": 1, "engine_sat": 2}
        assert compact_stats(stats) == stats

    def test_prefixed_keys_suppressed_too(self):
        stats = {"cec_budget_exhausted": 0, "cec_sat_queries": 5}
        assert compact_stats(stats) == {"cec_sat_queries": 5}

    def test_zero_ordinary_stats_survive(self):
        # Only the robustness counters are suppressed — a zero sweep count
        # or core-retirement count is information, not noise.
        stats = {"sweep_refuted": 0, "core_retired": 0}
        assert compact_stats(stats) == stats
