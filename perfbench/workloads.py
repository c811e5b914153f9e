"""The benchmark's four workloads.

Each workload makes its inputs from the seed, sets itself up, runs one
*episode* (a fixed, seeded unit of work that is timed on the host) as
often as the run allows, and checks a sample of its answers outside the
timed region.  Every episode of a run replays the same inputs, so its
deterministic counts (simulated time, GPU counters, cache hits, bytes
exchanged) repeat exactly and only host times vary.

All workloads run in this one process and thread on the native provider
chosen by ``run.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.native as native
from repro import IBFS, IBFSConfig
from repro.bfs.reference import reference_bfs
from repro.bfs.validate import validate_depths
from repro.dist.engine import DistConfig, PartitionedEngine
from repro.errors import QueueFullError, ReproError
from repro.graph import benchmarks
from repro.gpusim.counters import ProfilerCounters
from repro.plan.types import Direction
from repro.service.request import Request
from repro.service.server import BFSServer, ServingConfig
from repro.stream.repair import RECOMPUTE
from repro.stream.service import DynamicBFSServer

from layers import ROOT, Recorder

#: The simulated GPU counters reported as ``gpusim.*``.
GPUSIM_COUNTERS = {
    "load_transactions": "global_load_transactions",
    "store_transactions": "global_store_transactions",
    "inspections": "inspections",
    "bottom_up_inspections": "bottom_up_inspections",
    "early_terminations": "early_terminations",
    "edges_traversed": "edges_traversed",
}


@dataclass
class Episode:
    """One timed pass over a workload's inputs."""

    #: Host seconds of the timed region.
    wall: float
    #: Operations attempted and answered (sources traversed or requests
    #: answered ok).
    attempted: int
    ops: int
    #: Shed, timed out, failed or raised operations.
    failed: int
    #: Deterministic per-episode figures (identical across episodes).
    det: Dict[str, float]
    #: Everything the answers say, compared across episodes.
    answers: object
    #: Host seconds of each ``mutate`` call.
    mutate_walls: List[float] = field(default_factory=list)
    #: Kept from the first episode only: what the correctness gate needs.
    keep: Optional[dict] = None


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _group_figures(groups, counters: ProfilerCounters) -> Dict[str, float]:
    """Counters, sharing and planner shares over executed groups."""
    det: Dict[str, float] = {
        f"gpusim.{k}": int(getattr(counters, attr))
        for k, attr in GPUSIM_COUNTERS.items()
    }
    det["core.levels"] = int(counters.levels)
    width = sum(len(g.sources) for g in groups)
    det["core.sharing_degree"] = _ratio(
        sum(g.sharing_degree * len(g.sources) for g in groups), width
    )
    lanes_total = bottom_up = levels = native_levels = 0
    for g in groups:
        plan = g.plan
        if plan is None:
            continue
        lanes = (len(g.sources) + 63) // 64
        for decision in plan.decisions:
            levels += 1
            lanes_total += len(decision.directions)
            bottom_up += sum(
                1 for d in decision.directions if d is Direction.BOTTOM_UP
            )
            if native.resolve_kernel(decision.kernel, lanes) == "native":
                native_levels += 1
    det["plan.bottom_up_share"] = _ratio(bottom_up, lanes_total)
    det["plan.native_share"] = _ratio(native_levels, levels)
    return det


# ----------------------------------------------------------------------
# Batch workloads: back-to-back multi-source runs, one caller
# ----------------------------------------------------------------------
class BatchWorkload:
    """Closed loop: each episode is one ``run`` over the seeded sources."""

    name = ""
    graph_name = ""
    scale_delta = 0
    num_sources = 0
    min_mutations = 0

    def make_engine(self, graph):
        raise NotImplementedError

    def setup(self) -> dict:
        benchmarks.clear_cache()
        began = time.perf_counter()
        graph = benchmarks.benchmark_graph(self.graph_name, self.scale_delta)
        build_s = time.perf_counter() - began
        engine = self.make_engine(graph)
        native.warmup()
        return {"graph": graph, "engine": engine, "build_s": build_s}

    def inputs(self, state: dict, seed: int) -> dict:
        # Graph500 draws its search keys among vertices with an edge; an
        # isolated source is a zero-work traversal.
        rng = np.random.default_rng([seed, 0])
        candidates = np.flatnonzero(state["graph"].out_degrees() > 0)
        sources = rng.choice(candidates, size=self.num_sources, replace=False)
        return {"seed": seed, "sources": [int(s) for s in sources]}

    def episode(self, state: dict, inputs: dict, index: int,
                rec: Optional[Recorder] = None, keep: bool = False) -> Episode:
        engine = state["engine"]
        if rec is not None:
            rec.request_id = index
            root = rec.begin(ROOT)
        began = time.perf_counter()
        result = engine.run(inputs["sources"])
        wall = time.perf_counter() - began
        if rec is not None:
            rec.end(root)
        det = self.figures(engine, result)
        return Episode(
            wall=wall,
            attempted=len(inputs["sources"]),
            ops=len(inputs["sources"]),
            failed=0,
            det=det,
            answers=result.depths,
            keep={"depths": result.depths} if keep else None,
        )

    def figures(self, engine, result) -> Dict[str, float]:
        det = _group_figures(result.groups, result.counters)
        det["sim_teps"] = _ratio(result.counters.edges_traversed,
                                 result.seconds)
        # Simulated completion of each source's row: groups run back to
        # back on one simulated device.
        done = np.cumsum([g.seconds for g in result.groups])
        per_source = np.repeat(done, [len(g.sources) for g in result.groups])
        det["sim_p50_s"] = percentile(per_source, 50)
        det["sim_p99_s"] = percentile(per_source, 99)
        det["sim_samples"] = int(per_source.size)
        return det

    @staticmethod
    def same_answers(a, b) -> bool:
        return np.array_equal(a, b)


class BatchKron(BatchWorkload):
    name = "batch-kron"
    graph_name = "KG2"
    scale_delta = 4
    num_sources = 512
    #: Rows passed through ``validate_depths`` (0.2 s each on this
    #: graph) and compared with the pure-Python ``reference_bfs``
    #: (2.5 s each).
    validate_rows = 16
    reference_rows = 1

    def make_engine(self, graph):
        return IBFS(graph, IBFSConfig(group_size=128))

    def check(self, state: dict, inputs: dict, first: Episode):
        graph = state["graph"]
        depths = first.keep["depths"]
        sources = inputs["sources"]
        rng = np.random.default_rng([inputs["seed"], 3])
        rows = rng.choice(len(sources), size=self.validate_rows, replace=False)
        wrong = 0
        for row in rows:
            try:
                validate_depths(graph, sources[row], depths[row])
            except ReproError:
                wrong += 1
        for row in rows[: self.reference_rows]:
            ref = reference_bfs(graph, sources[row])
            wrong += int(not np.array_equal(ref, depths[row]))
        return len(rows) + self.reference_rows, wrong


class BatchPart(BatchWorkload):
    name = "batch-part"
    graph_name = "RD"
    scale_delta = 3
    num_sources = 256
    group_size = 64

    def make_engine(self, graph):
        return PartitionedEngine(graph, DistConfig(
            num_partitions=4, layout="2d", backend="inline",
            group_size=self.group_size,
        ))

    def figures(self, engine, result) -> Dict[str, float]:
        det = super().figures(engine, result)
        stats = engine.last_stats
        det["dist.bytes"] = int(stats.bytes_total)
        det["dist.messages"] = int(stats.messages_total)
        det["dist.dense_level_share"] = _ratio(
            stats.formats().get("dense", 0), len(stats.levels)
        )
        # The partitioned level loop ignores LevelDecision.kernel: no
        # level of this engine reaches the native provider.
        det["plan.native_share"] = 0.0
        return det

    def serial_engine(self, state: dict) -> IBFS:
        if "serial" not in state:
            state["serial"] = IBFS(
                state["graph"], IBFSConfig(group_size=self.group_size)
            )
        return state["serial"]

    def vs_serial(self, state: dict, inputs: dict, untraced) -> float:
        """Median untraced episode time over serial ``IBFS.run`` time on
        the same sources (and so the same groups)."""
        serial = self.serial_engine(state)
        walls = []
        for _ in range(3):
            began = time.perf_counter()
            serial.run(inputs["sources"])
            walls.append(time.perf_counter() - began)
        return float(np.median([e.wall for e in untraced]) / np.median(walls))

    def check(self, state: dict, inputs: dict, first: Episode):
        serial = self.serial_engine(state).run(inputs["sources"])
        same = np.array_equal(serial.depths, first.keep["depths"])
        return len(inputs["sources"]), 0 if same else len(inputs["sources"])


# ----------------------------------------------------------------------
# Served workloads: open loop in simulated time
# ----------------------------------------------------------------------
class ServeZipf:
    """Poisson arrivals of single-source ``bfs`` requests, Zipf over
    degree rank, through one :class:`BFSServer`."""

    name = "serve-zipf"
    graph_name = "TW"
    scale_delta = 2
    rate = 2e5
    zipf = 1.1
    #: Requests per episode: enough that the traversed (cache-missing)
    #: requests put ten or more samples beyond the p99.
    num_requests = 4096
    mutate_every = 0
    min_mutations = 0
    #: Requests whose responses the correctness gate compares with
    #: ``reference_bfs`` (drawn before the run, so only their epochs'
    #: graphs are kept).
    check_requests = 24

    def serving(self) -> ServingConfig:
        return ServingConfig(batch_size=64, return_depths=True)

    def make_server(self, graph):
        return BFSServer(graph, self.serving())

    def setup(self) -> dict:
        benchmarks.clear_cache()
        began = time.perf_counter()
        graph = benchmarks.benchmark_graph(self.graph_name, self.scale_delta)
        build_s = time.perf_counter() - began
        server = self.make_server(graph)
        native.warmup()
        return {"graph": graph, "server": server, "build_s": build_s}

    def inputs(self, state: dict, seed: int) -> dict:
        graph = state["graph"]
        n = graph.num_vertices
        rng = np.random.default_rng([seed, 0])
        degrees = graph.out_degrees()
        by_rank = np.lexsort((np.arange(n), -degrees))
        weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** self.zipf
        weights /= weights.sum()
        # Drawn for the serve-zipf length so churn-mixed replays a prefix
        # of the very same stream.
        count = ServeZipf.num_requests
        sources = by_rank[rng.choice(n, size=count, p=weights)]
        due = np.cumsum(rng.exponential(1.0 / self.rate, size=count))
        count = self.num_requests
        checked = np.random.default_rng([seed, 3]).choice(
            count, size=self.check_requests, replace=False)
        return {
            "seed": seed,
            "requests": [Request(source=int(s)) for s in sources[:count]],
            "due": [float(t) for t in due[:count]],
            "check_ids": {int(i) for i in checked},
        }

    def episode(self, state: dict, inputs: dict, index: int,
                rec: Optional[Recorder] = None, keep: bool = False) -> Episode:
        # Fresh server per episode (untimed): every episode starts cold
        # and replays the same stream, so its figures repeat exactly.
        server = state.pop("server", None) or self.make_server(state["graph"])
        batches: list = []
        dispatch = server.substrate.run_group

        def counted(group, max_depth=None, plan=None):
            result = dispatch(group, max_depth=max_depth, plan=plan)
            batches.append((result.seconds, result.counters, result.groups[0]))
            return result

        server.substrate.run_group = counted
        loop = self._drive(server, inputs, rec, keep)
        server.close()
        return self._summarize(server, inputs, batches, loop, keep)

    def _drive(self, server, inputs: dict, rec, keep: bool) -> dict:
        requests, due = inputs["requests"], inputs["due"]
        check_ids = inputs["check_ids"] if keep else ()
        responses: list = []
        sampled: list = []

        def collect(done, graph):
            responses.extend(done)
            sampled.extend((r, graph) for r in done if r.request_id in check_ids)

        mutate_walls: List[float] = []
        mrng = np.random.default_rng([inputs["seed"], 2])
        shed = raised = late = 0
        if rec is not None:
            rec.request_id = None
            root = rec.begin(ROOT)
        began = time.perf_counter()
        for i, request in enumerate(requests):
            if self.mutate_every and i and i % self.mutate_every == 0:
                inserts, deletes = self._mutation(
                    server, inputs, mrng, len(mutate_walls)
                )
                if rec is not None:
                    rec.request_id = None
                graph = server.graph
                t0 = time.perf_counter()
                server.mutate(inserts=inserts, deletes=deletes,
                              arrival_time=max(due[i], server.clock))
                mutate_walls.append(time.perf_counter() - t0)
                # Everything completed so far, the barrier's drain
                # included, was answered on the epoch before the swap.
                collect(server.take_completed(), graph)
            if rec is not None:
                rec.request_id = i
            at = due[i]
            if at < server.clock:
                # A mutation barrier ran the clock past this arrival; it
                # is submitted late and timed from when it was due.
                late += 1
                at = server.clock
            try:
                server.submit(request, arrival_time=at)
            except QueueFullError:
                shed += 1
            except ReproError:
                raised += 1
        if rec is not None:
            rec.request_id = None
        done = server.drain()
        wall = time.perf_counter() - began
        if rec is not None:
            rec.end(root)
        collect(done, server.graph)
        return {
            "wall": wall, "responses": responses, "sampled": sampled,
            "mutate_walls": mutate_walls,
            "shed": shed, "raised": raised, "late": late,
        }

    def _summarize(self, server, inputs, batches, loop, keep) -> Episode:
        due = inputs["due"]
        responses = loop["responses"]
        ok = [r for r in responses if r.ok]
        missed = [r.completion_time - due[r.request_id]
                  for r in ok if not r.cached]
        counters = ProfilerCounters()
        for _, c, _ in batches:
            counters.merge(c)
        groups = [g for _, _, g in batches]
        det = _group_figures(groups, counters)
        det["sim_teps"] = _ratio(counters.edges_traversed,
                                 sum(s for s, _, _ in batches))
        det["sim_p50_s"] = percentile(missed, 50)
        det["sim_p99_s"] = percentile(missed, 99)
        det["sim_samples"] = len(missed)
        det["requests"] = len(inputs["requests"])
        det["late_submits"] = loop["late"]
        cache, plans, metrics = server.cache, server.plan_cache, server.metrics
        det["service.cache_hit_ratio"] = _ratio(
            cache.hits, cache.hits + cache.misses)
        det["service.plan_cache_hit_ratio"] = _ratio(
            plans.hits, plans.hits + plans.misses)
        det["service.batches"] = len(metrics.batches)
        det["service.batch_occupancy"] = metrics.mean_occupancy
        det["service.mean_queue_depth"] = metrics.mean_queue_depth
        det["service.shed"] = loop["shed"]
        records = getattr(server, "epoch_records", [])
        repaired = sum(r.rows_repaired for r in records)
        dropped = sum(r.rows_dropped for r in records)
        det["stream.mutations"] = len(records)
        det["stream.rows_repaired_ratio"] = _ratio(repaired, repaired + dropped)
        det["stream.recompute_share"] = _ratio(
            sum(1 for r in records if r.decision == RECOMPUTE), len(records))
        answers = sorted(
            (r.request_id, r.status, r.value, r.completion_time, r.cached)
            for r in responses
        )
        return Episode(
            wall=loop["wall"],
            attempted=len(inputs["requests"]),
            ops=len(ok),
            failed=(len(responses) - len(ok)) + loop["shed"] + loop["raised"],
            det=det,
            answers=answers,
            mutate_walls=loop["mutate_walls"],
            keep={"sampled": loop["sampled"]} if keep else None,
        )

    @staticmethod
    def same_answers(a, b) -> bool:
        return a == b

    def check(self, state: dict, inputs: dict, first: Episode):
        """Compare the sampled responses with ``reference_bfs`` on the
        graph of the epoch that answered them."""
        wrong = 0
        sampled = first.keep["sampled"]
        for response, graph in sampled:
            if not response.ok:
                continue  # already counted as failed by the episode
            ref = reference_bfs(graph, response.request.source)
            good = (
                response.depths is not None
                and np.array_equal(ref, response.depths)
                and response.value == float(np.count_nonzero(ref >= 0))
            )
            wrong += int(not good)
        return len(sampled), wrong


class ChurnMixed(ServeZipf):
    """The serve-zipf stream with a mutation batch every 64 arrivals."""

    name = "churn-mixed"
    #: 32 mutations per episode (after arrivals 64, 128, ..., 2048);
    #: a run measures at least 100.
    num_requests = 2112
    mutate_every = 64
    min_mutations = 100
    inserts = 32
    deletes = 8

    def make_server(self, graph):
        return DynamicBFSServer(graph, self.serving())

    def inputs(self, state: dict, seed: int) -> dict:
        inputs = super().inputs(state, seed)
        rng = np.random.default_rng([seed, 1])
        n = state["graph"].num_vertices
        count = (self.num_requests - 1) // self.mutate_every
        inputs["inserts"] = [
            (rng.integers(0, n, self.inserts), rng.integers(0, n, self.inserts))
            for _ in range(count)
        ]
        return inputs

    def _mutation(self, server, inputs: dict, mrng, k: int):
        # Deletes are sampled from the current epoch's edges.
        graph = server.graph
        picks = mrng.choice(graph.num_edges, size=self.deletes, replace=False)
        dst = graph.col_indices[picks]
        src = np.searchsorted(graph.row_offsets, picks, side="right") - 1
        return inputs["inserts"][k], (src, dst)


WORKLOADS = {w.name: w for w in (BatchKron, ServeZipf, ChurnMixed, BatchPart)}
