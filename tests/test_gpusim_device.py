"""Device wrapper: capacity rule and thread accounting."""

import pytest

from repro.errors import CapacityError
from repro.graph.generators import kronecker
from repro.gpusim.config import KEPLER_K40
from repro.gpusim.device import Device


@pytest.fixture
def device():
    return Device()


@pytest.fixture
def graph():
    return kronecker(scale=8, edge_factor=4, seed=1)


def test_default_device_is_k40(device):
    assert device.config is KEPLER_K40
    assert "K40" in repr(device)


class TestMaxGroupSize:
    def test_large_memory_allows_many_instances(self, device, graph):
        assert device.max_group_size(graph) > 1024

    def test_bitwise_statuses_allow_8x_more(self, device, graph):
        jsa = device.max_group_size(graph, status_bytes_per_instance=1.0)
        bsa = device.max_group_size(graph, status_bytes_per_instance=0.125)
        assert bsa == pytest.approx(8 * jsa, rel=0.01)

    def test_requested_within_limit_is_returned(self, device, graph):
        assert device.max_group_size(graph, requested=128) == 128

    def test_requested_beyond_limit_raises(self, graph):
        # Leave room for the graph plus a handful of instances only.
        budget = graph.memory_bytes() + graph.num_vertices * 12
        small = Device(KEPLER_K40.with_memory(budget))
        with pytest.raises(CapacityError):
            small.max_group_size(graph, requested=1024)

    def test_no_room_at_all(self, graph):
        tiny = Device(KEPLER_K40.with_memory(graph.memory_bytes()))
        assert tiny.max_group_size(graph) == 0


class TestThreadAccounting:
    def test_warps_for(self, device):
        assert device.warps_for(1) == 1
        assert device.warps_for(32) == 1
        assert device.warps_for(33) == 2

    def test_ctas_for(self, device):
        assert device.ctas_for(256) == 1
        assert device.ctas_for(257) == 2
