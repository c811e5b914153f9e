"""Churn-capable load generation: queries interleaved with mutations.

Extends the closed-loop client model of :mod:`repro.service.loadgen`
with a mutation stream: every ``mutate_every`` completed queries, one
random edge batch (inserts and/or deletes, drawn from a seeded RNG)
hits the :class:`~repro.stream.service.DynamicBFSServer`, publishing a
new epoch mid-workload.  The run stays fully deterministic — same
(graph, churn config, serving config) triple, same depths, same epoch
history — because mutations fire at simulated-time barriers decided by
the request stream, not by wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ServiceError
from repro.graph.csr import CSRGraph, VERTEX_DTYPE
from repro.service.loadgen import LoadResult, WorkloadConfig, _closed_loop
from repro.service.request import Response
from repro.stream.service import DynamicBFSServer, EpochRecord


@dataclass(frozen=True)
class ChurnConfig:
    """Shape of the mutation stream riding along a workload."""

    #: One mutation batch per this many completed queries (0 = never).
    mutate_every: int = 64
    #: Edge inserts per batch.
    inserts_per_batch: int = 8
    #: Edge deletes per batch (deletes force full cache recomputation,
    #: so insert-only churn is the repair-path benchmark).
    deletes_per_batch: int = 0
    #: Seed for edge sampling (independent of the query-source seed).
    seed: int = 1

    def __post_init__(self) -> None:
        if self.mutate_every < 0:
            raise ServiceError("mutate_every must be non-negative")
        if self.inserts_per_batch < 0:
            raise ServiceError("inserts_per_batch must be non-negative")
        if self.deletes_per_batch < 0:
            raise ServiceError("deletes_per_batch must be non-negative")
        if self.inserts_per_batch == 0 and self.deletes_per_batch == 0:
            raise ServiceError(
                "churn needs inserts_per_batch or deletes_per_batch > 0"
            )


def random_insert_batch(
    num_vertices: int, count: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` random directed edges over ``[0, num_vertices)``."""
    src = rng.integers(0, num_vertices, size=count, dtype=VERTEX_DTYPE)
    dst = rng.integers(0, num_vertices, size=count, dtype=VERTEX_DTYPE)
    return src, dst


def random_delete_batch(
    graph: CSRGraph, count: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` existing edges sampled uniformly from ``graph``
    (fewer when the graph has fewer edges)."""
    m = graph.num_edges
    if m == 0 or count == 0:
        empty = np.empty(0, dtype=VERTEX_DTYPE)
        return empty, empty
    picks = rng.choice(m, size=min(count, m), replace=False)
    # Edge ``e`` belongs to the row whose offset range holds it; empty
    # rows share their offset with the next row, so side="right" skips
    # them.
    src = np.searchsorted(graph.row_offsets, picks, side="right") - 1
    return src.astype(VERTEX_DTYPE), graph.col_indices[picks]


def run_churn_loop(
    server: DynamicBFSServer,
    workload: WorkloadConfig,
    churn: ChurnConfig,
) -> Tuple[LoadResult, List[EpochRecord]]:
    """Drive a dynamic server with closed-loop clients plus churn.

    Runs the loop of :func:`repro.service.loadgen.run_closed_loop`,
    firing one mutation batch through :meth:`DynamicBFSServer.mutate`
    after every ``churn.mutate_every`` completions.  Returns the usual
    :class:`LoadResult` plus the epoch records the churn produced.
    """
    rng = np.random.default_rng(churn.seed)
    n = server.graph.num_vertices
    records: List[EpochRecord] = []
    since_mutation = 0

    def mutate_step(done: List[Response]) -> None:
        nonlocal since_mutation
        since_mutation += len(done)
        if churn.mutate_every == 0 or since_mutation < churn.mutate_every:
            return
        since_mutation = 0
        inserts = (
            random_insert_batch(n, churn.inserts_per_batch, rng)
            if churn.inserts_per_batch
            else None
        )
        deletes = (
            random_delete_batch(server.graph, churn.deletes_per_batch, rng)
            if churn.deletes_per_batch
            else None
        )
        records.append(server.mutate(inserts=inserts, deletes=deletes))

    return _closed_loop(server, workload, after_batch=mutate_step), records
