"""Compare all map-matching methods on one city (a miniature Table V).

Run with::

    python examples/compare_map_matchers.py [dataset]

Trains every matcher in the library (Nearest and FMM need no training) on a
synthetic Xi'an-like dataset and prints the paper's four route metrics plus
inference time per 1000 trajectories.
"""

import sys

from repro import build_dataset
from repro.eval import evaluate_matching, inference_time
from repro.experiments.common import BENCH, build_matchers, fit_matcher
from repro.utils.tables import render_metric_table


def main(dataset_name: str = "XA") -> None:
    dataset = build_dataset(dataset_name, n_trips=100, seed=2024)
    print(f"{dataset_name}: {dataset.network.n_segments} segments, "
          f"{len(dataset.train)} training trajectories")

    matchers = build_matchers(dataset, BENCH)
    table = {}
    for name, matcher in matchers.items():
        fit_matcher(matcher, dataset, epochs=8)
        metrics = evaluate_matching(matcher, dataset)
        metrics["s/1000"] = inference_time(
            lambda ts: [matcher.match(t) for t in ts], dataset.test
        )
        table[name] = metrics
        print(f"trained {name}: F1={metrics['f1']:.2f}")

    print()
    print(render_metric_table(
        table,
        ("precision", "recall", "f1", "jaccard", "s/1000"),
        title=f"Map matching on {dataset_name} (cf. paper Table V / Fig. 9)",
    ))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "XA")
