"""Decoder cost vs road-network size — the paper's efficiency claim, isolated.

Figs. 5/9 report wall-clock on fixed datasets; the *mechanism* behind
TRMMA/MMA's order-of-magnitude gaps is asymptotic: whole-network decoders
pay ``O(|E|)`` per emitted point (an |E|-way output projection plus
|E|-sized constraint masks) while TRMMA pays ``O(l_R)`` with
``l_R << |E|``.  On this repo's laptop-scale networks (|E| ~ 3x10^2) that
term is too small to dominate Python overhead, so the figure-level gaps
compress (see EXPERIMENTS.md).

This experiment exposes the mechanism directly: it grows synthetic networks
over an order of magnitude of |E| while holding trajectories fixed-length,
and times untrained forward decodes of TRMMA vs MTrajRec (the canonical
|E|-way decoder).  The MTrajRec curve must grow with |E|; TRMMA's must stay
flat — which is exactly why the paper's gaps appear at |E| = 10^4-10^5.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..config import TRMMAConfig
from ..data.simulate import SimulationConfig, simulate_trips
from ..data.sparsify import sparsify_trips
from ..matching import NearestMatcher
from ..network.generators import CityConfig, generate_city
from ..recovery import MTrajRecRecoverer
from ..recovery.trmma import TRMMARecoverer
from ..utils.tables import render_series
from ..utils.timing import time_call

GRID_SIDES = (8, 16, 32)


def _network_and_samples(side: int, seed: int = 3):
    network = generate_city(
        CityConfig(rows=side, cols=side, spacing=180.0, jitter=15.0,
                   p_missing=0.05, p_oneway=0.15, n_arterials=0),
        seed=seed,
    )
    config = SimulationConfig(
        min_trip_distance=700.0, max_trip_distance=1_800.0, min_dense_points=8
    )
    trips = simulate_trips(network, config, 6, seed=seed + 1)
    samples = sparsify_trips(trips, gamma=0.1, seed=seed + 2)
    return network, samples


def run(grid_sides: Sequence[int] = GRID_SIDES, d_h: int = 32) -> Dict[str, Dict[int, float]]:
    """{method: {|E|: milliseconds per recovery (untrained forward)}}."""
    results: Dict[str, Dict[int, float]] = {"TRMMA": {}, "MTrajRec": {}}
    for side in grid_sides:
        network, samples = _network_and_samples(side)
        n_segments = network.n_segments

        trmma = TRMMARecoverer(
            network, NearestMatcher(network),
            TRMMAConfig(d_h=d_h, ffn_hidden=4 * d_h), seed=0,
        )
        mtraj = MTrajRecRecoverer(network, d_h=d_h, seed=0)

        for name, recoverer in (("TRMMA", trmma), ("MTrajRec", mtraj)):
            epsilon = 15.0
            recoverer.recover(samples[0].sparse, epsilon)  # warm-up

            def run_all() -> None:
                for sample in samples:
                    recoverer.recover(sample.sparse, epsilon)

            elapsed = time_call(run_all)
            results[name][n_segments] = elapsed / len(samples) * 1000.0
    return results


def run_training(
    grid_sides: Sequence[int] = GRID_SIDES, d_h: int = 32
) -> Dict[str, Dict[int, float]]:
    """{method: {|E|: milliseconds per training step (loss + backward)}}."""
    from ..nn import Adam
    from ..recovery.trmma.model import build_example

    results: Dict[str, Dict[int, float]] = {"TRMMA": {}, "MTrajRec": {}}
    for side in grid_sides:
        network, samples = _network_and_samples(side)
        n_segments = network.n_segments

        trmma = TRMMARecoverer(
            network, NearestMatcher(network),
            TRMMAConfig(d_h=d_h, ffn_hidden=4 * d_h), seed=0,
        )
        mtraj = MTrajRecRecoverer(network, d_h=d_h, seed=0)

        def trmma_steps() -> None:
            for sample in samples:
                example = build_example(network, sample)
                loss = trmma.model.training_loss(example)
                trmma.optimizer.zero_grad()
                loss.backward()
                trmma.optimizer.step()

        def mtraj_steps() -> None:
            optimizer = mtraj.optimizer()
            for sample in samples:
                loss = mtraj._training_loss(sample)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()

        trmma_steps()  # warm-up (and optimiser state init)
        mtraj_steps()
        results["TRMMA"][n_segments] = time_call(trmma_steps) / len(samples) * 1000
        results["MTrajRec"][n_segments] = time_call(mtraj_steps) / len(samples) * 1000
    return results


def report(results: Dict[str, Dict[int, float]]) -> str:
    sizes = sorted(next(iter(results.values())))
    series = {
        name: [curve[s] for s in sizes] for name, curve in results.items()
    }
    return render_series(
        "|E|", sizes, series,
        title="Extra — per-recovery decode cost (ms) vs network size",
        precision=2,
    )


def growth_factors(results: Dict[str, Dict[int, float]]) -> Tuple[float, float]:
    """(TRMMA growth, MTrajRec growth) from smallest to largest |E|."""
    def factor(curve: Dict[int, float]) -> float:
        sizes = sorted(curve)
        return curve[sizes[-1]] / max(curve[sizes[0]], 1e-9)

    return factor(results["TRMMA"]), factor(results["MTrajRec"])
