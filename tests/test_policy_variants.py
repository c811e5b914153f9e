"""Engines under non-default direction policies stay exact.

The engines' monotone-visited semantics must be direction-agnostic:
never switching, always switching at the first opportunity, and
switching back and forth (non-sticky) all have to yield oracle depths.
"""

import numpy as np
import pytest

from repro.graph.generators import grid_2d, kronecker, uniform_random
from repro.plan import DirectionPolicy
from repro.bfs.reference import reference_bfs_multi
from repro.bfs.single import SingleBFS
from repro.core.bitwise import BitwiseTraversal
from repro.core.joint import JointTraversal

POLICIES = {
    "default": DirectionPolicy(),
    "td-only": DirectionPolicy(allow_bottom_up=False),
    "eager-bu": DirectionPolicy(alpha=1e9),
    # alpha must be positive (planner validation); a tiny alpha keeps
    # the switch rule unsatisfiable on any finite graph.
    "reluctant-bu": DirectionPolicy(alpha=1e-12),
    "non-sticky": DirectionPolicy(sticky=False),
    "non-sticky-eager": DirectionPolicy(alpha=1e9, sticky=False, beta=2.0),
}

GRAPHS = {
    "kron": kronecker(scale=7, edge_factor=8, seed=141),
    "uniform": uniform_random(200, 4, seed=142),
    "grid": grid_2d(9, 9),
}


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("graph_name", GRAPHS)
def test_single_bfs_exact_under_policy(policy_name, graph_name):
    graph = GRAPHS[graph_name]
    policy = POLICIES[policy_name]
    engine = SingleBFS(graph, policy=policy)
    sources = [0, graph.num_vertices // 2]
    got = np.stack([engine.run(s).depths for s in sources])
    assert np.array_equal(got, reference_bfs_multi(graph, sources))


@pytest.mark.parametrize("policy_name", POLICIES)
def test_bitwise_exact_under_policy(policy_name):
    graph = GRAPHS["kron"]
    policy = POLICIES[policy_name]
    sources = list(range(0, 24, 3))
    depths, _, _ = BitwiseTraversal(graph, policy=policy).run_group(sources)
    assert np.array_equal(depths, reference_bfs_multi(graph, sources))


@pytest.mark.parametrize("policy_name", POLICIES)
def test_joint_exact_under_policy(policy_name):
    graph = GRAPHS["kron"]
    policy = POLICIES[policy_name]
    sources = list(range(0, 24, 3))
    depths, _, _ = JointTraversal(graph, policy=policy).run_group(sources)
    assert np.array_equal(depths, reference_bfs_multi(graph, sources))


def test_eager_switch_actually_goes_bottom_up():
    graph = GRAPHS["kron"]
    source = int(graph.out_degrees().argmax())  # non-isolated source
    result = SingleBFS(graph, policy=DirectionPolicy(alpha=1e9)).run(source)
    directions = [lv.direction for lv in result.record.levels]
    assert directions[0] == "td"
    assert directions[1] == "bu"  # switched right after level 0


def test_reluctant_switch_defers_bottom_up():
    graph = GRAPHS["kron"]
    source = int(graph.out_degrees().argmax())
    result = SingleBFS(graph, policy=DirectionPolicy(alpha=1e-12)).run(source)
    directions = [lv.direction for lv in result.record.levels]
    # A tiny alpha defers the switch until the unexplored edge mass is
    # exhausted: every level that still has edges to explore runs
    # top-down, so a switch (if any) comes strictly later than the
    # eager policy's level-1 switch and is final (sticky).
    assert directions[0] == "td"
    first_bu = next((i for i, d in enumerate(directions) if d == "bu"), None)
    if first_bu is not None:
        assert first_bu >= 2
        assert all(d == "bu" for d in directions[first_bu:])


def test_grid_runs_many_more_levels_than_kron():
    """High-diameter grids produce long level chains — the regime
    contrast section 9 draws against road-network systems."""
    grid_levels = len(SingleBFS(GRAPHS["grid"]).run(0).record.levels)
    kron_source = int(GRAPHS["kron"].out_degrees().argmax())
    kron_levels = len(SingleBFS(GRAPHS["kron"]).run(kron_source).record.levels)
    assert grid_levels > 2 * kron_levels
