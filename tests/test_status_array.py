"""Bitwise status array lane layout: lane counts and instance masks."""

import numpy as np
import pytest

from repro.errors import TraversalError
from repro.core.status_array import (
    instance_masks,
    lanes_for,
)


class TestLanes:
    @pytest.mark.parametrize(
        "group,expected", [(1, 1), (64, 1), (65, 2), (128, 2), (129, 3)]
    )
    def test_lanes_for(self, group, expected):
        assert lanes_for(group) == expected

    def test_non_positive_rejected(self):
        with pytest.raises(TraversalError):
            lanes_for(0)


class TestMasks:
    def test_instance_masks_single_lane(self):
        masks = instance_masks(4)
        assert masks.shape == (4, 1)
        assert masks[:, 0].tolist() == [1, 2, 4, 8]

    def test_instance_masks_multi_lane(self):
        masks = instance_masks(70)
        assert masks.shape == (70, 2)
        assert masks[63, 0] == np.uint64(1) << np.uint64(63)
        assert masks[64, 0] == 0
        assert masks[64, 1] == 1
