"""Single-instance BFS engines and the sequential/naive concurrent baselines.

These implement the paper's substrate: direction-optimizing BFS in the
style of Enterprise [33] (the system iBFS extends), executed on the
simulated device, plus the two straw-man concurrent schemes the paper
measures first — running all instances *sequentially* and running them
*naively in parallel* as independent kernels under Hyper-Q.
"""

from repro.bfs.reference import reference_bfs, reference_bfs_multi
# The direction machinery lives in repro.plan; re-exported here for the
# single-instance engines' callers.
from repro.plan.policy import DirectionPolicy
from repro.plan.types import Direction
from repro.bfs.single import SingleBFS, SingleResult
from repro.bfs.sequential import SequentialConcurrentBFS
from repro.bfs.naive import NaiveConcurrentBFS
from repro.bfs.validate import validate_depths, is_valid_bfs
from repro.bfs.sssp import (
    dijkstra,
    bellman_ford,
    DeltaStepping,
    SSSPResult,
    concurrent_dijkstra,
)
from repro.bfs.paths import (
    extract_path,
    path_length,
    all_shortest_path_counts,
)
from repro.bfs.bidirectional import bidirectional_distance, MeetResult

__all__ = [
    "reference_bfs",
    "reference_bfs_multi",
    "DirectionPolicy",
    "Direction",
    "SingleBFS",
    "SingleResult",
    "SequentialConcurrentBFS",
    "NaiveConcurrentBFS",
    "validate_depths",
    "is_valid_bfs",
    "dijkstra",
    "bellman_ford",
    "DeltaStepping",
    "SSSPResult",
    "concurrent_dijkstra",
    "extract_path",
    "path_length",
    "all_shortest_path_counts",
    "bidirectional_distance",
    "MeetResult",
]
