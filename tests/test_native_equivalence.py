"""Engine-matrix bit-identity of the native backend.

The acceptance bar for :mod:`repro.native`: simulated counters and
depth matrices identical between the numpy kernels and every loadable
provider across engines (bitwise/joint/single), vector widths, and
snapshot strategies — plus plans recording ``kernel="native"``
replaying bit-identically through the exec task protocol and the
service-layer :class:`~repro.service.cache.PlanCache`.
"""

import numpy as np
import pytest

import repro.native as native
from repro.bfs.single import SingleBFS
from repro.core.engine import IBFS, IBFSConfig
from repro.graph.generators import rmat, uniform_random
from repro.plan import HeuristicPolicy, make_policy
from repro.service.cache import PlanCache, graph_cache_id
from tests.conftest import loadable_native_providers

RNG = np.random.default_rng(23)


PROVIDERS = loadable_native_providers()


@pytest.fixture(scope="module")
def graphs():
    return {
        "rmat9": rmat(9, edge_factor=8, seed=1),
        "uni350": uniform_random(350, 4, seed=4),
    }


def _run(graph, mode, group_size, vector_width, snapshot, sources):
    planner = HeuristicPolicy(
        vector_width=vector_width, snapshot=snapshot
    )
    engine = IBFS(
        graph,
        IBFSConfig(group_size=group_size, mode=mode, groupby=False),
        planner=planner,
    )
    return engine.run(sources)


def _assert_identical(a, b, label):
    assert np.array_equal(a.depths, b.depths), f"{label}: depths"
    assert a.counters.__dict__ == b.counters.__dict__, (
        f"{label}: counters\n{a.counters.__dict__}\n{b.counters.__dict__}"
    )
    for ga, gb in zip(a.groups, b.groups):
        assert ga.plan.decisions == gb.plan.decisions or (
            # Auto resolves differently per host; the executed
            # decisions legitimately differ only in the kernel field.
            [d.to_dict() | {"kernel": "x"} for d in ga.plan]
            == [d.to_dict() | {"kernel": "x"} for d in gb.plan]
        ), f"{label}: plans"


# ----------------------------------------------------------------------
# Engines x vector widths x snapshots x providers
# ----------------------------------------------------------------------
class TestEngineMatrix:
    @pytest.mark.parametrize("provider", PROVIDERS)
    @pytest.mark.parametrize("mode", ["bitwise", "joint"])
    @pytest.mark.parametrize(
        "group_size,vector_width", [(32, 1), (70, 2), (130, 4)]
    )
    @pytest.mark.parametrize("snapshot", ["dirty", "full"])
    def test_group_engines(
        self, graphs, provider, mode, group_size, vector_width, snapshot
    ):
        graph = graphs["rmat9"]
        sources = RNG.choice(
            graph.num_vertices, size=group_size, replace=False
        ).tolist()
        with native.force_backend("off"):
            baseline = _run(
                graph, mode, group_size, vector_width, snapshot, sources
            )
        with native.force_backend(provider):
            got = _run(
                graph, mode, group_size, vector_width, snapshot, sources
            )
        _assert_identical(
            baseline, got,
            f"{mode}/gs{group_size}/vw{vector_width}/{snapshot}/{provider}",
        )

    @pytest.mark.parametrize("provider", PROVIDERS)
    @pytest.mark.parametrize("name", ["rmat9", "uni350"])
    def test_single_source(self, graphs, provider, name):
        graph = graphs[name]
        source = int(RNG.integers(0, graph.num_vertices))
        with native.force_backend("off"):
            baseline = SingleBFS(graph).run(source)
        with native.force_backend(provider):
            got = SingleBFS(graph).run(source)
        assert np.array_equal(baseline.depths, got.depths)
        assert (
            baseline.record.counters.__dict__
            == got.record.counters.__dict__
        )

    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_msbfs_configuration(self, graphs, provider):
        # No early termination + per-level reset rides the same engine;
        # the native scan must honor early_termination=False exactly.
        graph = graphs["rmat9"]
        sources = RNG.choice(graph.num_vertices, size=64, replace=False).tolist()
        planner = HeuristicPolicy(early_termination=False)
        config = IBFSConfig(group_size=64, mode="bitwise", groupby=False)
        with native.force_backend("off"):
            baseline = IBFS(graph, config, planner=planner).run(sources)
        with native.force_backend(provider):
            got = IBFS(graph, config, planner=planner).run(sources)
        _assert_identical(baseline, got, f"msbfs/{provider}")


# ----------------------------------------------------------------------
# Recorded kernel="native" plans: replay, exec protocol, PlanCache
# ----------------------------------------------------------------------
class TestNativePlanReplay:
    def _native_plan(self, graph, sources, group_size):
        planner = HeuristicPolicy(kernel="native")
        engine = IBFS(
            graph,
            IBFSConfig(group_size=group_size, mode="bitwise", groupby=False),
            planner=planner,
        )
        result = engine.run_group(sources)
        plan = result.groups[0].plan
        assert all(d.kernel == "native" for d in plan)
        return result, plan

    def test_replay_identical_with_and_without_backend(self, graphs):
        graph = graphs["rmat9"]
        sources = RNG.choice(graph.num_vertices, size=48, replace=False).tolist()
        recorded, plan = self._native_plan(graph, sources, 48)
        config = IBFSConfig(group_size=48, mode="bitwise", groupby=False)
        replayed = IBFS(graph, config).run_group(sources, plan=plan)
        assert np.array_equal(recorded.depths, replayed.depths)
        assert recorded.counters.__dict__ == replayed.counters.__dict__
        with native.force_backend("off"):
            # Re-arm the one-shot fallback warning: with no backend on
            # the host (e.g. the REPRO_NATIVE=0 CI lane) the recorded
            # run above already consumed it.
            native.refresh()
            with pytest.warns(RuntimeWarning, match="falling back"):
                fallback = IBFS(graph, config).run_group(
                    sources, plan=plan
                )
        assert np.array_equal(recorded.depths, fallback.depths)
        assert recorded.counters.__dict__ == fallback.counters.__dict__

    def test_plan_survives_plan_cache(self, graphs):
        graph = graphs["rmat9"]
        sources = RNG.choice(graph.num_vertices, size=32, replace=False).tolist()
        recorded, plan = self._native_plan(graph, sources, 32)
        cache = PlanCache(capacity=4)
        key = PlanCache.key(
            graph_cache_id(graph), sources, "bitwise/gs32", None
        )
        cache.put(key, plan)
        cached = cache.get(key)
        assert cached == plan
        config = IBFSConfig(group_size=32, mode="bitwise", groupby=False)
        replayed = IBFS(graph, config).run_group(sources, plan=cached)
        assert np.array_equal(recorded.depths, replayed.depths)
        assert recorded.counters.__dict__ == replayed.counters.__dict__

    def test_exec_protocol_replays_native_plan(self, graphs):
        # The full worker path: plan pickles over the task queue, the
        # worker warms the backend on spawn and replays bit-identically.
        from repro.exec import ExecConfig, GroupExecutor

        graph = graphs["rmat9"]
        sources = RNG.choice(graph.num_vertices, size=32, replace=False).tolist()
        recorded, plan = self._native_plan(graph, sources, 32)
        config = IBFSConfig(group_size=32, mode="bitwise", groupby=False)
        with GroupExecutor(
            graph, config, exec_config=ExecConfig(num_workers=2)
        ) as executor:
            via_exec = executor.run_group(sources, plan=plan)
        assert np.array_equal(recorded.depths, via_exec.depths)
        assert recorded.counters.__dict__ == via_exec.counters.__dict__


# ----------------------------------------------------------------------
# Adaptive policy resolution through a full run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("provider", PROVIDERS)
def test_adaptive_policy_identical_across_backends(graphs, provider):
    graph = graphs["rmat9"]
    sources = RNG.choice(graph.num_vertices, size=64, replace=False).tolist()
    config = IBFSConfig(group_size=64, mode="bitwise", groupby=False)
    with native.force_backend("off"):
        baseline = IBFS(
            graph, config, planner=make_policy("adaptive")
        ).run(sources)
        kernels_off = {
            d.kernel for g in baseline.groups for d in g.plan
        }
    with native.force_backend(provider):
        got = IBFS(
            graph, config, planner=make_policy("adaptive")
        ).run(sources)
        kernels_on = {d.kernel for g in got.groups for d in g.plan}
    assert kernels_off <= {"flat", "generic"}
    assert kernels_on == {"native"}
    assert np.array_equal(baseline.depths, got.depths)
    assert baseline.counters.__dict__ == got.counters.__dict__
