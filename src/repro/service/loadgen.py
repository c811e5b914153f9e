"""Closed-loop load generation for the serving layer.

Models the workload an online graph service actually sees: a fixed
fleet of clients, each keeping one request in flight (closed loop —
issue, wait, think, reissue), with sources drawn from a Zipf
distribution over vertices ranked by outdegree.  The rank-by-degree
choice makes the popularity skew line up with the structural skew of
power-law graphs: hot queries hit hub vertices, which is both where
the cache earns its keep and where GroupBy finds shared frontiers.

The generator co-simulates with :class:`~repro.service.server.BFSServer`
in simulated time, so a (graph, workload, config) triple is fully
deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import QueueFullError, ServiceError
from repro.graph.csr import CSRGraph
from repro.service.request import Request, Response
from repro.service.server import BFSServer, ServingConfig


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the generated request stream."""

    #: Total requests the clients issue.
    num_requests: int = 512
    #: Concurrent closed-loop clients.
    num_clients: int = 32
    #: Zipf exponent of source popularity (higher = more skew; the
    #: classic web-trace value is ~1).
    zipf_exponent: float = 1.1
    #: Request kind issued by every client.
    kind: str = "bfs"
    #: Depth limit carried by every request.
    max_depth: Optional[int] = None
    #: Simulated seconds a client waits between completion and reissue.
    think_time: float = 0.0
    #: Client backoff after a shed (queue-full) submission.
    shed_backoff: float = 5e-5
    #: Seed for source sampling.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ServiceError("num_requests must be positive")
        if self.num_clients <= 0:
            raise ServiceError("num_clients must be positive")
        if self.zipf_exponent < 0:
            raise ServiceError("zipf_exponent must be non-negative")
        if self.think_time < 0:
            raise ServiceError("think_time must be non-negative")
        if self.shed_backoff <= 0:
            raise ServiceError("shed_backoff must be positive")


@dataclass
class LoadResult:
    """Outcome of one closed-loop run against one server."""

    #: Requests successfully answered (ok status, incl. cache hits).
    completed: int
    #: Requests shed by admission control.
    shed: int
    #: Requests that timed out or failed.
    errored: int
    #: Simulated seconds from first arrival to last completion.
    elapsed: float
    #: Completed requests per simulated second.
    throughput: float
    #: Full metrics snapshot (includes cache stats).
    metrics: dict
    #: Every terminal response, in completion order.
    responses: List[Response] = field(default_factory=list)


def sample_sources(
    graph: CSRGraph, count: int, zipf_exponent: float, seed: int = 0
) -> List[int]:
    """Draw ``count`` sources Zipf-distributed over degree rank.

    Vertex popularity follows ``(rank + 1) ** -s`` with vertices ranked
    by descending outdegree, so the hottest sources are the hubs.
    ``s = 0`` degenerates to uniform.
    """
    degrees = graph.out_degrees()
    ranked = np.argsort(-degrees, kind="stable")
    weights = (np.arange(1, graph.num_vertices + 1, dtype=np.float64)
               ** -float(zipf_exponent))
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    picks = rng.choice(graph.num_vertices, size=count, p=weights)
    return [int(ranked[i]) for i in picks]


def run_closed_loop(server: BFSServer, workload: WorkloadConfig) -> LoadResult:
    """Drive ``server`` with closed-loop clients; returns aggregates.

    Each client keeps exactly one request outstanding.  The simulation
    interleaves client issue events with the server's internal flush
    events, so batch formation sees exactly the concurrency a real
    deployment would.
    """
    return _closed_loop(server, workload)


def _closed_loop(
    server: BFSServer,
    workload: WorkloadConfig,
    after_batch: Optional[Callable[[List[Response]], None]] = None,
) -> LoadResult:
    """The issue/collect loop behind :func:`run_closed_loop` and
    :func:`repro.stream.loadgen.run_churn_loop`.

    ``after_batch`` runs after every batch of collected responses (empty
    batches included); the churn driver fires its mutations from it.
    """
    sources = sample_sources(
        server.graph,
        workload.num_requests,
        workload.zipf_exponent,
        workload.seed,
    )
    tiebreak = itertools.count()
    issue_events: List[tuple] = []
    for client in range(min(workload.num_clients, workload.num_requests)):
        heapq.heappush(issue_events, (0.0, next(tiebreak), client))

    owners: Dict[int, int] = {}
    responses: List[Response] = []
    issued = 0
    shed = 0
    start_clock = server.clock

    def absorb(done: List[Response]) -> None:
        for response in done:
            responses.append(response)
            client = owners.pop(response.request_id)
            if issued < workload.num_requests or owners or issue_events:
                heapq.heappush(
                    issue_events,
                    (
                        response.completion_time + workload.think_time,
                        next(tiebreak),
                        client,
                    ),
                )
        if after_batch is not None:
            after_batch(done)

    def collect() -> None:
        absorb(server.take_completed())

    while issued < workload.num_requests or owners:
        if issue_events and issued < workload.num_requests:
            at, _, client = heapq.heappop(issue_events)
            at = max(at, server.clock)
            request = Request(
                source=sources[issued],
                kind=workload.kind,
                max_depth=workload.max_depth,
            )
            try:
                request_id = server.submit(request, arrival_time=at)
            except QueueFullError:
                shed += 1
                issued += 1
                heapq.heappush(
                    issue_events,
                    (at + workload.shed_backoff, next(tiebreak), client),
                )
                collect()
                continue
            owners[request_id] = client
            issued += 1
            collect()
        elif owners:
            # All clients are waiting: let the server reach its next
            # flush (deadline or freed device).  A mutation barrier in
            # ``after_batch`` may have flushed responses already, so
            # drain()'s returns go through the same bookkeeping.
            if not server.step():
                absorb(server.drain())
            collect()
        else:
            break

    absorb(server.drain())
    collect()

    elapsed = server.clock - start_clock
    completed = sum(1 for r in responses if r.ok)
    errored = sum(1 for r in responses if not r.ok)
    return LoadResult(
        completed=completed,
        shed=shed,
        errored=errored,
        elapsed=elapsed,
        throughput=completed / elapsed if elapsed > 0 else 0.0,
        metrics=server.metrics_snapshot(elapsed=elapsed),
        responses=responses,
    )


def naive_config(serving: ServingConfig) -> ServingConfig:
    """The one-request-one-traversal baseline: no batching, no cache,
    no grouping — every request is its own kernel launch."""
    return replace(
        serving,
        batch_size=1,
        cache_capacity=0,
        groupby=False,
    )


def compare_serving(
    graph: CSRGraph,
    workload: WorkloadConfig,
    serving: Optional[ServingConfig] = None,
    planner=None,
) -> dict:
    """Run the same workload through micro-batched and naive serving.

    Returns ``{"batched": LoadResult, "naive": LoadResult,
    "speedup": float}`` where speedup is the throughput ratio.
    ``planner`` is an optional :class:`~repro.plan.policy.Policy` both
    servers traverse under.
    """
    serving = serving or ServingConfig()
    batched = run_closed_loop(
        BFSServer(graph, serving, planner=planner), workload
    )
    naive = run_closed_loop(
        BFSServer(graph, naive_config(serving), planner=planner), workload
    )
    speedup = (
        batched.throughput / naive.throughput if naive.throughput > 0 else 0.0
    )
    return {"batched": batched, "naive": naive, "speedup": speedup}
