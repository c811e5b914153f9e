"""Serving metrics registry.

Records what a production BFS service would export: request counts by
outcome, latency percentiles, batch occupancy and realized sharing
degree (the paper's figure 6 metric, observed per served batch), cache
effectiveness, and queue depth.  Everything is a plain counter or a
bounded reservoir over simulated seconds, so snapshots are
deterministic and JSON-serializable.

Latency distribution math routes through
:class:`repro.obs.metrics.Histogram` — the same fixed bucket
boundaries and the same percentile implementation the executor's task
wall-clock distribution uses — so serving and exec latencies are
directly comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsHub,
    get_hub,
)

__all__ = ["BatchRecord", "MetricsRegistry"]


@dataclass
class BatchRecord:
    """One executed batch (one joint kernel launch)."""

    batch_id: int
    launch_time: float
    seconds: float
    #: Requests served by the batch (>= num_sources when coalesced).
    num_requests: int
    #: Distinct traversal sources in the batch.
    num_sources: int
    #: Configured max batch size at launch.
    batch_limit: int
    #: Realized sharing degree of the joint kernel.
    sharing_degree: float
    #: Why the batch flushed: ``"size"``, ``"deadline"``, or ``"drain"``.
    trigger: str = "size"

    @property
    def occupancy(self) -> float:
        """Fill fraction of the batch slot, in (0, 1]."""
        return self.num_sources / self.batch_limit if self.batch_limit else 0.0


@dataclass
class MetricsRegistry:
    """Accumulates serving metrics; snapshot with :meth:`snapshot`."""

    submitted: int = 0
    completed: int = 0
    cache_hits: int = 0
    shed: int = 0
    timeouts: int = 0
    failures: int = 0
    retries: int = 0
    latencies: List[float] = field(default_factory=list)
    batches: List[BatchRecord] = field(default_factory=list)
    queue_depths: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        #: Fixed-bucket latency distribution (simulated seconds); the
        #: same bucket boundaries as ``exec_task_wall_seconds``, so the
        #: two histograms diff bucket by bucket.
        self.latency_histogram = Histogram(
            "serving_latency_seconds",
            "Per-request serving latency (simulated seconds)",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_submit(self, queue_depth: int) -> None:
        self.submitted += 1
        self.queue_depths.append(queue_depth)

    def record_completion(self, latency: float, cached: bool) -> None:
        self.completed += 1
        if cached:
            self.cache_hits += 1
        self.latencies.append(latency)
        self.latency_histogram.observe(latency)

    def record_batch(self, record: BatchRecord) -> None:
        self.batches.append(record)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def latency_percentiles(self) -> Dict[str, float]:
        # One sort covers every quantile; the histogram's retained
        # reservoir keeps completion order (it is a log, not a scratch
        # buffer) and the quantile math is obs.metrics' — shared with
        # every other latency distribution in the system.
        hist = self.latency_histogram
        quantiles = hist.quantiles((50.0, 90.0, 99.0))
        return {
            "p50": quantiles[50.0],
            "p90": quantiles[90.0],
            "p99": quantiles[99.0],
            "mean": hist.mean,
            "max": hist.max,
        }

    @property
    def mean_occupancy(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.occupancy for b in self.batches) / len(self.batches)

    @property
    def mean_sharing_degree(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.sharing_degree for b in self.batches) / len(self.batches)

    @property
    def mean_queue_depth(self) -> float:
        if not self.queue_depths:
            return 0.0
        return sum(self.queue_depths) / len(self.queue_depths)

    def throughput(self, elapsed: float) -> float:
        """Completed requests per simulated second over ``elapsed``."""
        return self.completed / elapsed if elapsed > 0 else 0.0

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(
        self, elapsed: Optional[float] = None, cache_stats: Optional[dict] = None
    ) -> dict:
        """JSON-serializable summary of everything recorded so far."""
        flush_triggers: Dict[str, int] = {}
        for batch in self.batches:
            flush_triggers[batch.trigger] = flush_triggers.get(batch.trigger, 0) + 1
        payload = {
            "requests": {
                "submitted": self.submitted,
                "completed": self.completed,
                "cache_hits": self.cache_hits,
                "shed": self.shed,
                "timeouts": self.timeouts,
                "failures": self.failures,
                "retries": self.retries,
            },
            "latency_seconds": self.latency_percentiles(),
            "batches": {
                "count": len(self.batches),
                "mean_occupancy": self.mean_occupancy,
                "mean_sharing_degree": self.mean_sharing_degree,
                "flush_triggers": flush_triggers,
                "mean_requests_per_batch": (
                    sum(b.num_requests for b in self.batches) / len(self.batches)
                    if self.batches
                    else 0.0
                ),
            },
            "queue": {
                "mean_depth": self.mean_queue_depth,
                "max_depth": max(self.queue_depths) if self.queue_depths else 0,
            },
        }
        if elapsed is not None:
            payload["elapsed_seconds"] = elapsed
            payload["requests_per_second"] = self.throughput(elapsed)
        if cache_stats is not None:
            payload["cache"] = dict(cache_stats)
        return payload

    def publish(self, hub: Optional[MetricsHub] = None) -> None:
        """Register this registry's state into the process-wide hub so
        one exporter (Prometheus text, trace JSONL) covers serving.

        Counts are exported as gauges (they are totals-so-far, not
        increments, so republishing after more traffic just refreshes
        them); the latency histogram is adopted wholesale.
        """
        # Explicit None test: an empty MetricsHub is falsy (len 0).
        hub = hub if hub is not None else get_hub()
        totals = (
            ("serving_requests_submitted", "Requests admitted", self.submitted),
            ("serving_requests_completed", "Requests completed", self.completed),
            ("serving_cache_hits", "Requests answered from cache",
             self.cache_hits),
            ("serving_requests_shed", "Requests shed by backpressure",
             self.shed),
            ("serving_requests_timeout", "Requests timed out", self.timeouts),
            ("serving_requests_failed", "Requests failed", self.failures),
            ("serving_retries", "Request retries", self.retries),
            ("serving_batches", "Batches executed", len(self.batches)),
            ("serving_mean_occupancy", "Mean batch occupancy",
             self.mean_occupancy),
            ("serving_mean_sharing_degree",
             "Mean realized sharing degree per batch",
             self.mean_sharing_degree),
            ("serving_mean_queue_depth", "Mean pending-queue depth",
             self.mean_queue_depth),
        )
        for name, help_text, value in totals:
            hub.gauge(name, help_text).set(float(value))
        if hub.get(self.latency_histogram.name) is None:
            hub.register(self.latency_histogram)

    def to_json(self, elapsed: Optional[float] = None,
                cache_stats: Optional[dict] = None, indent: int = 2) -> str:
        return json.dumps(
            self.snapshot(elapsed=elapsed, cache_stats=cache_stats),
            indent=indent,
        )
