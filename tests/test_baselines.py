"""Comparator systems: MS-BFS, B40C, SpMM-BC, CPU-iBFS."""

import numpy as np
import pytest

from repro.baselines import B40C, CPUiBFS, MSBFS, SpMMBC
from repro import NaiveConcurrentBFS, SequentialConcurrentBFS
from repro.errors import TraversalError
from repro.graph.generators import kronecker
from repro.bfs.reference import reference_bfs_multi
from repro.core.engine import IBFS, IBFSConfig


@pytest.fixture(scope="module")
def kron():
    return kronecker(scale=8, edge_factor=8, seed=13)


@pytest.fixture(scope="module")
def sources():
    return list(range(0, 48, 3))


class TestCorrectness:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda g: MSBFS(g, group_size=8),
            lambda g: B40C(g),
            lambda g: SpMMBC(g, group_size=8),
            lambda g: CPUiBFS(g),
        ],
        ids=["ms-bfs", "b40c", "spmm-bc", "cpu-ibfs"],
    )
    def test_all_baselines_match_reference(self, kron, sources, factory):
        result = factory(kron).run(sources)
        assert np.array_equal(result.depths, reference_bfs_multi(kron, sources))

    @pytest.mark.parametrize(
        "factory",
        [
            lambda g: MSBFS(g, group_size=8),
            lambda g: SpMMBC(g, group_size=8),
            lambda g: CPUiBFS(g),
            lambda g: B40C(g),
            lambda g: SequentialConcurrentBFS(g),
            lambda g: NaiveConcurrentBFS(g),
        ],
        ids=["ms-bfs", "spmm-bc", "cpu-ibfs", "b40c", "sequential", "naive"],
    )
    def test_grouped_baselines_reject_empty_sources(self, kron, factory):
        with pytest.raises(
            TraversalError, match="at least one source is required"
        ):
            factory(kron).run([])


class TestMSBFS:
    def test_no_early_termination(self, kron, sources):
        result = MSBFS(kron).run(sources, store_depths=False)
        assert result.counters.early_terminations == 0

    def test_engine_name(self, kron, sources):
        assert MSBFS(kron).run(sources[:2]).engine == "ms-bfs"

    def test_slower_than_gpu_ibfs(self, kron, sources):
        """Figure 22: GPU iBFS beats MS-BFS across all graphs."""
        msbfs = MSBFS(kron, group_size=16).run(sources, store_depths=False)
        ibfs = IBFS(kron, IBFSConfig(group_size=16)).run(
            sources, store_depths=False
        )
        assert ibfs.seconds < msbfs.seconds


class TestB40C:
    def test_top_down_only(self, kron, sources):
        result = B40C(kron).run(sources, store_depths=False)
        assert result.counters.early_terminations == 0
        assert result.counters.bottom_up_inspections == 0

    def test_one_kernel_per_source(self, kron, sources):
        result = B40C(kron).run(sources, store_depths=False)
        assert result.counters.kernel_launches == len(sources)

    def test_slowest_gpu_system(self, kron, sources):
        """Figure 22 ordering: B40C trails concurrent GPU engines."""
        b40c = B40C(kron).run(sources, store_depths=False)
        spmm = SpMMBC(kron, group_size=16).run(sources, store_depths=False)
        ibfs = IBFS(kron, IBFSConfig(group_size=16)).run(
            sources, store_depths=False
        )
        assert ibfs.seconds < b40c.seconds
        assert spmm.seconds < b40c.seconds


class TestSpMMBC:
    def test_no_bottom_up(self, kron, sources):
        result = SpMMBC(kron).run(sources, store_depths=False)
        assert result.counters.bottom_up_inspections == 0

    def test_slower_than_ibfs(self, kron, sources):
        spmm = SpMMBC(kron, group_size=16).run(sources, store_depths=False)
        ibfs = IBFS(kron, IBFSConfig(group_size=16)).run(
            sources, store_depths=False
        )
        assert ibfs.seconds < spmm.seconds


class TestCPUiBFS:
    def test_gpu_beats_cpu(self, kron, sources):
        """Section 7: GPU-based iBFS runs ~2x faster than the CPU port."""
        cpu = CPUiBFS(kron).run(sources, store_depths=False)
        gpu = IBFS(kron, IBFSConfig(group_size=64)).run(
            sources, store_depths=False
        )
        assert gpu.seconds < cpu.seconds

    def test_cpu_ibfs_beats_msbfs(self, kron, sources):
        """Figure 22: CPU iBFS outperforms MS-BFS (early termination +
        GroupBy)."""
        cpu = CPUiBFS(kron).run(sources, store_depths=False)
        msbfs = MSBFS(kron, group_size=64).run(sources, store_depths=False)
        assert cpu.seconds < msbfs.seconds
