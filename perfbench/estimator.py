"""The per-request-median estimator behind every end-to-end timing.

A run replays the same stream of requests in K interleaved passes, so each
request is timed K times, seconds apart.  The host this benchmark targets
alternates between fast and slow phases that last from seconds to many
minutes, so a run of under a minute can sit in one phase.  Two steps make
the timings repeat:

* every request time is scaled to a reference host speed, using the
  host-speed probe (a fixed pure-Python loop owned by the benchmark) taken
  just before and just after the request;
* each request's time is the median of its K scaled times, and throughput
  and latency are built from those per-request medians.  The per-request
  *minimum* is deliberately not used: it tracks the host's fastest phase
  rather than the program.

Set-up is timed the same way by :class:`HostClock`: its phases are cut into
laps of a few seconds at most, and each lap is scaled by the probes at its
two ends.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple


def bracketing_probes(
    probes: Sequence[Tuple[int, float]], n_requests: int
) -> List[float]:
    """The host probe of each request of a pass.

    ``probes`` holds ``(next request index, probe ms)`` pairs in the order
    they were taken, the first at index 0 and the last at ``n_requests``.
    A request's probe is the mean of the last probe taken before it and
    the first taken after it.
    """
    out: List[float] = []
    j = 0
    for i in range(n_requests):
        while j + 1 < len(probes) and probes[j + 1][0] <= i:
            j += 1
        out.append(0.5 * (probes[j][1] + probes[j + 1][1]))
    return out


def host_scaled(
    times: Sequence[float], probes: Sequence[float], reference_ms: float
) -> List[float]:
    """Request times as they would be on a host whose probe takes
    ``reference_ms``."""
    return [t * reference_ms / p for t, p in zip(times, probes)]


class HostClock:
    """Lap times, raw and scaled to a reference host speed.

    Every lap ends with a host-speed probe.  A lap's raw time runs from the
    end of the previous probe to the start of this one, so the probes' own
    time is left out; its scaled time divides by the mean of those two
    probes, as :func:`host_scaled` does for a request.
    """

    def __init__(
        self,
        probe: Callable[[], float],
        reference_ms: float,
        now: Callable[[], float] = perf_counter,
    ) -> None:
        self._probe = probe
        self._reference_ms = reference_ms
        self._now = now
        self._last_probe = probe()
        self._last_end = now()

    def lap(self) -> Tuple[float, float]:
        """(raw s, scaled s) since the previous lap, or since the clock began."""
        start = self._now()
        probe = self._probe()
        raw = start - self._last_end
        scaled = raw * self._reference_ms / (0.5 * (self._last_probe + probe))
        self._last_probe, self._last_end = probe, self._now()
        return raw, scaled


def per_request_medians(pass_times: Sequence[Sequence[float]]) -> List[float]:
    """Median over passes of each request's time.

    ``pass_times[k][i]`` is the time of request ``i`` in pass ``k``; every
    pass must time the same requests in the same order.
    """
    if not pass_times:
        raise ValueError("need at least one pass")
    n = len(pass_times[0])
    if n == 0 or any(len(times) != n for times in pass_times):
        raise ValueError("every pass must time the same non-empty request list")
    return [statistics.median(times[i] for times in pass_times) for i in range(n)]


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``.

    With 1000 values, ``q = 0.99`` returns the 990th smallest, leaving ten
    values beyond it.
    """
    if not values:
        raise ValueError("no values")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def summarize(
    pass_times: Sequence[Sequence[float]], trajectories_per_pass: int
) -> Dict[str, float]:
    """Throughput and latency of one replay, from per-request medians.

    ``traj_per_s`` is the stream's trajectory count over the sum of the
    per-request medians; latencies are percentiles of those medians, so a
    request is the whole batch a client submitted.
    """
    medians = per_request_medians(pass_times)
    return {
        "traj_per_s": trajectories_per_pass / sum(medians),
        "latency_p50_ms": 1e3 * statistics.median(medians),
        "latency_p99_ms": 1e3 * nearest_rank(medians, 0.99),
        "requests": len(medians),
        "passes": len(pass_times),
    }
