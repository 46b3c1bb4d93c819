"""Fleet monitoring: densify a whole fleet's sparse pings for analytics.

Run with::

    python examples/fleet_monitoring.py

The intro's motivating scenario: a fleet reports GPS only every couple of
minutes (to save bandwidth/battery), but downstream analytics — travel-time
estimation, congestion mapping — want 15-second positions on road segments.

The example trains the TRMMA pipeline once, then streams the test fleet
through it and aggregates a per-segment visit histogram, comparing the
histogram computed from recovered trajectories against the ground truth.
"""

from collections import Counter

import numpy as np

from repro import build_dataset
from repro.config import MMAConfig, TRMMAConfig
from repro.matching import MMAMatcher, attach_planner_statistics
from repro.network.node2vec import Node2VecConfig
from repro.recovery import TRMMARecoverer


def segment_histogram(trajectories) -> Counter:
    counts = Counter()
    for traj in trajectories:
        for point in traj:
            counts[point.edge_id] += 1
    return counts


def main() -> None:
    dataset = build_dataset("PT", n_trips=100, gamma=0.1, seed=99)
    print("fleet:", len(dataset.test), "vehicles reporting every",
          f"{dataset.epsilon / dataset.gamma:.0f}s",
          f"(target rate {dataset.epsilon:.0f}s)")

    matcher = MMAMatcher(
        dataset.network,
        MMAConfig(
            d0=32,
            d2=32,
            node2vec=Node2VecConfig(dimensions=32, walks_per_node=2, epochs=1),
        ),
        seed=1,
    )
    attach_planner_statistics(matcher, dataset.transition_statistics())
    recoverer = TRMMARecoverer(
        dataset.network, matcher, TRMMAConfig(d_h=32, ffn_hidden=128), seed=1
    )
    recoverer.fit(dataset, epochs=5, matcher_epochs=10)

    recovered = [
        recoverer.recover(s.sparse, dataset.epsilon) for s in dataset.test
    ]
    got = segment_histogram(recovered)
    want = segment_histogram(s.dense for s in dataset.test)

    # Rank correlation of segment popularity: the analytics signal.
    segments = sorted(set(got) | set(want))
    got_counts = np.array([got.get(e, 0) for e in segments], dtype=float)
    want_counts = np.array([want.get(e, 0) for e in segments], dtype=float)
    correlation = np.corrcoef(got_counts, want_counts)[0, 1]
    print(f"\nsegments visited (recovered): {len(got)}")
    print(f"segments visited (ground truth): {len(want)}")
    print(f"per-segment traffic-count correlation: {correlation:.3f}")

    top = sorted(want, key=want.get, reverse=True)[:5]
    print("\nbusiest segments (truth vs recovered counts):")
    for e in top:
        print(f"  segment {e:4d}: {want[e]:4d} vs {got.get(e, 0):4d}")


if __name__ == "__main__":
    main()
