"""Quickstart: generate a city, train MMA + TRMMA, recover a trajectory.

Run with::

    python examples/quickstart.py

Walks the full pipeline of the paper on a small synthetic dataset:

1. build a road network + simulated taxi trips (the ``PT`` dataset config),
2. train the MMA map matcher (Section IV),
3. train the TRMMA recovery model on top (Section V),
4. map-match and recover one sparse test trajectory and score it.
"""

from repro import build_dataset
from repro.config import MMAConfig, TRMMAConfig
from repro.eval import evaluate_matching, evaluate_recovery
from repro.matching import MMAMatcher, attach_planner_statistics
from repro.network.node2vec import Node2VecConfig
from repro.recovery import TRMMARecoverer
from repro.utils.ascii_map import render_network


def main() -> None:
    # 1. Data: 80 simulated trips on a Porto-like synthetic city.
    dataset = build_dataset("PT", n_trips=80, gamma=0.1, seed=42)
    print("dataset:", dataset.statistics())

    # 2. Map matching: MMA classifies each GPS point over its 10 nearest
    #    candidate segments; the DA planner stitches the route.
    matcher = MMAMatcher(
        dataset.network,
        MMAConfig(
            d0=32,
            d2=32,
            node2vec=Node2VecConfig(dimensions=32, walks_per_node=2, epochs=1),
        ),
        seed=0,
    )
    attach_planner_statistics(matcher, dataset.transition_statistics())
    for epoch in range(6):
        loss = matcher.fit_epoch(dataset)
        print(f"MMA epoch {epoch}: loss={loss:.4f} "
              f"val-acc={matcher.validation_point_accuracy(dataset):.3f}")
    print("MMA matching quality:", evaluate_matching(matcher, dataset))

    # 3. Recovery: TRMMA decodes missing points over the MMA route.
    recoverer = TRMMARecoverer(
        dataset.network, matcher, TRMMAConfig(d_h=32, ffn_hidden=128), seed=0
    )
    for epoch in range(4):
        loss = recoverer.fit_epoch(dataset)
        print(f"TRMMA epoch {epoch}: loss={loss:.4f}")
    print("TRMMA recovery quality:", evaluate_recovery(recoverer, dataset))

    # 4. One trajectory end to end.
    sample = dataset.test[0]
    print(f"\nsparse input: {len(sample.sparse)} points over "
          f"{sample.sparse.duration:.0f}s")
    route = matcher.match(sample.sparse)
    print(f"matched route: {len(route)} segments "
          f"(ground truth {len(sample.route)})")
    recovered = recoverer.recover(sample.sparse, dataset.epsilon)
    print(f"recovered ε-sampling trajectory: {len(recovered)} points "
          f"(ground truth {len(sample.dense)})")
    hits = sum(
        a.edge_id == b.edge_id for a, b in zip(recovered, sample.dense)
    )
    print(f"segment accuracy on this trip: {hits}/{len(recovered)}")

    print("\nmap ('=' route, 'o' GPS points, '#' recovered points):")
    print(render_network(
        dataset.network, route=route, trajectory=sample.sparse,
        recovered=recovered,
    ))


if __name__ == "__main__":
    main()
