"""Single-source engine: correctness, counters, and direction behavior."""

import numpy as np
import pytest

from repro.errors import TraversalError
from repro.graph.builders import from_edges
from repro.graph.generators import kronecker, path, star
from repro.gpusim.device import Device
from repro.plan import DirectionPolicy
from repro.bfs.reference import reference_bfs
from repro.bfs.single import SingleBFS


@pytest.fixture(scope="module")
def kron():
    return kronecker(scale=8, edge_factor=8, seed=4)


class TestCorrectness:
    def test_matches_reference_on_kron(self, kron):
        engine = SingleBFS(kron)
        for source in (0, 7, 100, 255):
            result = engine.run(source)
            assert np.array_equal(result.depths, reference_bfs(kron, source))

    def test_matches_reference_top_down_only(self, kron):
        engine = SingleBFS(kron, policy=DirectionPolicy(allow_bottom_up=False))
        result = engine.run(3)
        assert np.array_equal(result.depths, reference_bfs(kron, 3))

    def test_disconnected(self):
        g = from_edges([(0, 1), (3, 4)], num_vertices=6, undirected=True)
        result = SingleBFS(g).run(0)
        assert result.depths.tolist() == [0, 1, -1, -1, -1, -1]
        assert result.reached == 2

    def test_isolated_source(self):
        g = from_edges([(1, 2)], num_vertices=3)
        result = SingleBFS(g).run(0)
        assert result.depths.tolist() == [0, -1, -1]

    def test_source_out_of_range(self, kron):
        with pytest.raises(TraversalError):
            SingleBFS(kron).run(kron.num_vertices)


class TestMaxDepth:
    def test_depth_limit_truncates(self):
        g = path(10)
        result = SingleBFS(g).run(0, max_depth=3)
        depths = result.depths
        assert depths[3] == 3
        assert (depths[4:] == -1).all()

    def test_depth_limit_zero(self):
        g = path(4)
        result = SingleBFS(g).run(0, max_depth=0)
        assert result.depths.tolist() == [0, -1, -1, -1]


class TestCountersAndTiming:
    def test_time_positive_and_teps_consistent(self, kron):
        result = SingleBFS(kron).run(0)
        assert result.seconds > 0
        assert result.teps == pytest.approx(
            result.edges_traversed / result.seconds
        )

    def test_edges_traversed_bounded_by_total(self, kron):
        result = SingleBFS(kron).run(0)
        # Direction optimization plus early termination should inspect
        # fewer edges than the full |E| twice over.
        assert 0 < result.edges_traversed <= 2 * kron.num_edges

    def test_level_records_match_levels_counter(self, kron):
        result = SingleBFS(kron).run(0)
        assert len(result.record.levels) == result.record.counters.levels

    def test_kernel_launch_counted_once(self, kron):
        result = SingleBFS(kron).run(0)
        assert result.record.counters.kernel_launches == 1

    def test_star_from_hub_takes_one_level(self):
        result = SingleBFS(star(16)).run(0)
        directions = [lvl.direction for lvl in result.record.levels]
        assert directions[0] == "td"
        assert result.depths.max() == 1


class TestDirectionSwitching:
    def test_power_law_run_uses_bottom_up(self, kron):
        result = SingleBFS(kron).run(0)
        directions = {lvl.direction for lvl in result.record.levels}
        assert "bu" in directions

    def test_bottom_up_early_termination_counted(self, kron):
        result = SingleBFS(kron).run(0)
        assert result.record.counters.early_terminations > 0

    def test_bottom_up_saves_inspections_on_dense_graphs(self, kron):
        optimized = SingleBFS(kron).run(0)
        plain = SingleBFS(
            kron, policy=DirectionPolicy(allow_bottom_up=False)
        ).run(0)
        assert (
            optimized.record.counters.inspections
            < plain.record.counters.inspections
        )

    def test_device_override(self, kron):
        from repro.gpusim.config import XEON_CPU

        gpu = SingleBFS(kron).run(0)
        cpu = SingleBFS(kron, device=Device(XEON_CPU)).run(0)
        assert np.array_equal(gpu.depths, cpu.depths)
        assert cpu.seconds > gpu.seconds  # CPU model is slower
