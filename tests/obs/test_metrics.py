"""Unit tests of the metrics registry: families, quantiles, render."""

from __future__ import annotations

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Histogram,
    JobTrace,
    MetricsRegistry,
    Span,
    STAGE_HISTOGRAM,
    observe_span_tree,
)


class TestHistogram:
    def test_observations_land_in_the_right_buckets(self):
        histogram = Histogram((0.1, 1.0))
        for value in (0.05, 0.1, 0.5, 2.0):
            histogram.observe(value)
        # <=0.1 gets 0.05 and the boundary 0.1; <=1.0 gets 0.5; +Inf gets 2.0
        assert histogram.bucket_counts == [2, 1, 1]
        assert histogram.count == 4
        assert histogram.total == pytest.approx(2.65)

    def test_quantile_interpolates_within_the_bucket(self):
        histogram = Histogram((1.0, 2.0))
        for _ in range(10):
            histogram.observe(1.5)
        p50 = histogram.quantile(0.5)
        assert 1.0 <= p50 <= 2.0

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram().quantile(0.99) == 0.0


class TestRegistry:
    def test_counter_accumulates_and_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total")
        registry.counter("jobs_total", 2.0)
        registry.gauge("depth", 5.0)
        registry.gauge("depth", 3.0)
        assert registry.counter_value("jobs_total") == 3.0
        assert registry.gauge_value("depth") == 3.0

    def test_type_conflicts_fail_loudly(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x", 1.0)

    def test_labels_key_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("hits", stage="a")
        registry.counter("hits", stage="b")
        registry.counter("hits", stage="a")
        assert registry.counter_value("hits", stage="a") == 2.0
        assert registry.counter_value("hits", stage="b") == 1.0

    def test_observe_stage_fast_path_matches_generic_observe(self):
        fast, generic = MetricsRegistry(), MetricsRegistry()
        for value in (0.001, 0.05, 3.0):
            fast.observe_stage("qz.ordered", value)
            generic.observe(STAGE_HISTOGRAM, value, stage="qz.ordered")
        def series(registry):
            return [
                line
                for line in registry.render_prometheus().splitlines()
                if not line.startswith("# HELP")
            ]

        assert series(fast) == series(generic)

    def test_stage_quantiles_shape(self):
        registry = MetricsRegistry()
        for _ in range(20):
            registry.observe_stage("riccati.solve", 0.01)
        quantiles = registry.stage_quantiles()
        entry = quantiles["riccati.solve"]
        assert entry["count"] == 20.0
        assert set(entry) == {"count", "p50", "p95", "p99"}
        assert 0.0 < entry["p50"] <= 0.025

    def test_reset_clears_everything_including_the_stage_cache(self):
        registry = MetricsRegistry()
        registry.observe_stage("stage.x", 0.1)
        registry.reset()
        assert registry.stage_quantiles() == {}
        registry.observe_stage("stage.x", 0.2)  # stale-cache write would hide
        assert registry.stage_quantiles()["stage.x"]["count"] == 1.0


class TestPrometheusRender:
    def test_render_contains_types_help_and_series(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", 3, help="jobs ever accepted")
        registry.gauge("repro_queue_depth", 2.0)
        registry.observe_stage("qz.ordered", 0.004)
        text = registry.render_prometheus()
        assert "# HELP repro_jobs_total jobs ever accepted" in text
        assert "# TYPE repro_jobs_total counter" in text
        assert "repro_jobs_total 3" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 2" in text
        assert f"# TYPE {STAGE_HISTOGRAM} histogram" in text
        assert f'{STAGE_HISTOGRAM}_bucket{{stage="qz.ordered",le="+Inf"}} 1' in text
        assert f'{STAGE_HISTOGRAM}_count{{stage="qz.ordered"}} 1' in text
        assert text.endswith("\n")

    def test_bucket_ladder_is_cumulative(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.0001, buckets=(0.001, 0.01))
        registry.observe("lat", 0.005, buckets=(0.001, 0.01))
        registry.observe("lat", 5.0, buckets=(0.001, 0.01))
        lines = registry.render_prometheus().splitlines()
        buckets = [line for line in lines if line.startswith("lat_bucket")]
        assert buckets == [
            'lat_bucket{le="0.001"} 1',
            'lat_bucket{le="0.01"} 2',
            'lat_bucket{le="+Inf"} 3',
        ]

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", stage='we"ird\\name')
        text = registry.render_prometheus()
        assert 'stage="we\\"ird\\\\name"' in text


class TestObserveSpanTree:
    def test_replays_every_span_once(self):
        registry = MetricsRegistry()
        tree = JobTrace(
            [
                Span(
                    "engine.dispatch",
                    wall=0.2,
                    children=[Span("riccati.solve", wall=0.15)],
                )
            ]
        )
        observe_span_tree(registry, tree)
        quantiles = registry.stage_quantiles()
        assert quantiles["engine.dispatch"]["count"] == 1.0
        assert quantiles["riccati.solve"]["count"] == 1.0

    def test_none_is_a_no_op(self):
        registry = MetricsRegistry()
        observe_span_tree(registry, None)
        assert registry.stage_quantiles() == {}

    def test_default_buckets_cover_the_latency_range(self):
        assert DEFAULT_BUCKETS[0] <= 1e-4
        assert DEFAULT_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
