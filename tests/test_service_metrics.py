"""MetricsRegistry: percentile math and snapshot non-mutation."""

import pytest

from repro.obs.metrics import percentile
from repro.service.metrics import BatchRecord, MetricsRegistry


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50.0) == 0.0

    def test_single_value(self):
        assert percentile([3.0], 99.0) == 3.0

    def test_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50.0) == pytest.approx(2.5)
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)

    def test_presorted_matches_unsorted(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        ordered = sorted(values)
        for q in (0.0, 25.0, 50.0, 90.0, 99.0, 100.0):
            assert percentile(values, q) == percentile(
                ordered, q, presorted=True
            )

    def test_input_never_mutated(self):
        values = [5.0, 1.0, 4.0]
        percentile(values, 50.0)
        assert values == [5.0, 1.0, 4.0]


class TestRegistrySnapshots:
    def make_registry(self):
        registry = MetricsRegistry()
        for i, latency in enumerate([5e-6, 1e-6, 9e-6, 3e-6, 7e-6]):
            registry.record_submit(queue_depth=i)
            registry.record_completion(latency, cached=(i == 0))
        registry.record_batch(
            BatchRecord(
                batch_id=0, launch_time=0.0, seconds=1e-5,
                num_requests=4, num_sources=4, batch_limit=8,
                sharing_degree=2.0,
            )
        )
        return registry

    def test_snapshot_does_not_mutate_recorded_values(self):
        # Regression: latency_percentiles() used to be fed by repeated
        # per-quantile sorts; the reservoir must stay a completion-order
        # log no matter how many snapshots are taken.
        registry = self.make_registry()
        before = list(registry.latencies)
        assert before != sorted(before)
        registry.snapshot(elapsed=1.0)
        registry.latency_percentiles()
        registry.snapshot(elapsed=2.0)
        assert registry.latencies == before

    def test_repeated_snapshots_identical(self):
        registry = self.make_registry()
        assert registry.snapshot(elapsed=1.0) == registry.snapshot(elapsed=1.0)

    def test_percentile_values(self):
        registry = self.make_registry()
        stats = registry.latency_percentiles()
        assert stats["p50"] == pytest.approx(5e-6)
        assert stats["max"] == pytest.approx(9e-6)
        assert stats["mean"] == pytest.approx(5e-6)

    def test_histogram_and_reservoir_agree(self):
        # Completions land in both the plain latency log and the obs
        # histogram; the histogram is the percentile source of truth.
        registry = self.make_registry()
        assert registry.latency_histogram.samples == registry.latencies
        assert registry.latency_histogram.count == registry.completed
        stats = registry.latency_percentiles()
        assert stats["p99"] == registry.latency_histogram.quantile(99.0)


class TestHubPublish:
    def test_publish_exports_totals_and_latency_histogram(self):
        from repro.obs.metrics import MetricsHub

        registry = TestRegistrySnapshots().make_registry()
        hub = MetricsHub()
        registry.publish(hub)
        assert hub.get("serving_requests_completed").value == 5.0
        assert hub.get("serving_cache_hits").value == 1.0
        assert hub.get("serving_latency_seconds") is registry.latency_histogram

    def test_publish_is_idempotent(self):
        from repro.obs.metrics import MetricsHub

        registry = TestRegistrySnapshots().make_registry()
        hub = MetricsHub()
        registry.publish(hub)
        registry.record_completion(2e-6, cached=False)
        registry.publish(hub)  # refresh, not re-register
        assert hub.get("serving_requests_completed").value == 6.0
