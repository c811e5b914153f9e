"""Direction-optimizing policy state machine."""

from repro.plan import Direction, DirectionPolicy


def test_initial_is_top_down():
    assert DirectionPolicy().initial() is Direction.TOP_DOWN


def test_switch_to_bottom_up_when_frontier_heavy():
    policy = DirectionPolicy(alpha=14)
    nxt = policy.next_direction(
        Direction.TOP_DOWN,
        frontier_edges=100,
        unexplored_edges=100,  # 100 * 14 > 100
        frontier_vertices=10,
        num_vertices=1000,
    )
    assert nxt is Direction.BOTTOM_UP


def test_stay_top_down_when_frontier_light():
    policy = DirectionPolicy(alpha=14)
    nxt = policy.next_direction(
        Direction.TOP_DOWN,
        frontier_edges=1,
        unexplored_edges=10_000,
        frontier_vertices=1,
        num_vertices=1000,
    )
    assert nxt is Direction.TOP_DOWN


def test_empty_frontier_never_switches():
    policy = DirectionPolicy()
    nxt = policy.next_direction(Direction.TOP_DOWN, 0, 0, 0, 10)
    assert nxt is Direction.TOP_DOWN


def test_sticky_bottom_up_never_returns():
    policy = DirectionPolicy(sticky=True)
    nxt = policy.next_direction(Direction.BOTTOM_UP, 1, 10**9, 1, 10**6)
    assert nxt is Direction.BOTTOM_UP


def test_non_sticky_returns_when_frontier_small():
    policy = DirectionPolicy(sticky=False, beta=24)
    nxt = policy.next_direction(
        Direction.BOTTOM_UP,
        frontier_edges=1,
        unexplored_edges=1,
        frontier_vertices=1,
        num_vertices=1000,  # 1 * 24 < 1000
    )
    assert nxt is Direction.TOP_DOWN


def test_non_sticky_stays_when_frontier_large():
    policy = DirectionPolicy(sticky=False, beta=24)
    nxt = policy.next_direction(Direction.BOTTOM_UP, 500, 1, 500, 1000)
    assert nxt is Direction.BOTTOM_UP


def test_bottom_up_disabled():
    policy = DirectionPolicy(allow_bottom_up=False)
    nxt = policy.next_direction(Direction.TOP_DOWN, 10**9, 1, 10**6, 10**6)
    assert nxt is Direction.TOP_DOWN
