"""Multi-process execution engine.

:class:`ParallelEngine` splits each request into at most ``W`` contiguous
shares, one per live worker, and sends every share to its worker up front.
A share holds ``max(chunk_size, ceil(n / W))`` trajectories, so every
worker decodes one large lock-step batch (as the serial engine does for the
whole request) and ``chunk_size`` is only the smallest unit worth a
round trip.  Every worker runs the parent's own
:class:`~repro.engine.serial.SerialEngine`: under ``fork`` it inherits the
engine, under ``spawn`` the engine is pickled once per worker.  Only the
per-share trajectory arrays cross the pickle boundary per request.

Share results are reassembled in submission order, and workers run the very
same engine as the parent, so outputs are **bit-exact** with the serial
path: same-length bucketing is per share, and the batching invariants (see
``tests/test_batched_parity.py``) guarantee per-trajectory results do not
depend on share composition.

Fault handling: a worker that dies or exceeds ``task_timeout_s`` is removed
from the pool and its share runs inline in the parent.  Every survivor
already holds a share of its own, so a retry there would queue behind it
while the parent sits idle.  A pool that no worker is left in runs whole
requests inline, and the next request is split over the survivors only.
Each share result carries the worker's stage self times, which the parent
adds to its own (:func:`repro.telemetry.add_totals`).
"""

from __future__ import annotations

import math
import multiprocessing as mp
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..config import EngineConfig
from ..data.trajectory import MatchedTrajectory, Trajectory
from ..matching.base import MapMatcher
from ..recovery.trmma.recoverer import TRMMARecoverer
from ..telemetry import log as telemetry_log
from .payload import pack_trajectories, unpack_matched
from .serial import SerialEngine
from .worker import worker_main

#: Poll interval of the parent dispatch loop (seconds).
_POLL_S = 0.02
#: How long to wait for worker ready handshakes before degrading (seconds).
_STARTUP_TIMEOUT_S = 120.0


@dataclass
class _Worker:
    worker_id: int
    process: Any
    inbox: Any


def _unpack_result(kind: str, payload: Any) -> Any:
    """A worker's share result (see :func:`~repro.engine.worker.execute_task`)
    in the shape the same-named :class:`SerialEngine` method returns."""
    if kind == "recover":
        return unpack_matched(payload)
    if kind == "match_and_recover":
        routes, packed = payload
        return routes, unpack_matched(packed)
    return payload


def _concat(shares: List[List[Any]]) -> List[Any]:
    """The per-share result lists of one request as one list."""
    return [item for share in shares for item in share]


class ParallelEngine:
    """Worker-pool engine; drop-in replacement for :class:`SerialEngine`."""

    def __init__(
        self,
        matcher: MapMatcher,
        recoverer: Optional[TRMMARecoverer] = None,
        config: Optional[EngineConfig] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.matcher = matcher
        self.recoverer = recoverer
        self.config = config or EngineConfig()
        resolved = self.config.resolve_workers() if workers is None else workers
        self.workers = max(int(resolved), 1)
        self._serial = SerialEngine(matcher, recoverer, self.config)
        self._workers: Dict[int, _Worker] = {}
        self._outbox: Any = None
        self._started = False
        self._closed = False
        self._task_counter = 0  # absolute share ids, unique per engine

    # -------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Spin up the pool (lazy; the first inference call triggers it)."""
        if self._started or self._closed:
            return
        self._started = True
        method = self.config.start_method or (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        ctx = mp.get_context(method)
        self._outbox = ctx.Queue()
        for worker_id in range(self.workers):
            inbox = ctx.Queue()
            process = ctx.Process(
                target=worker_main,
                args=(worker_id, self._serial, inbox, self._outbox),
                daemon=True,
                name=f"repro-engine-{worker_id}",
            )
            process.start()
            self._workers[worker_id] = _Worker(worker_id, process, inbox)
        self._await_ready()

    def _await_ready(self) -> None:
        waiting = set(self._workers)
        deadline = time.monotonic() + _STARTUP_TIMEOUT_S
        while waiting and time.monotonic() < deadline:
            try:
                message = self._outbox.get(timeout=_POLL_S)
            except queue_module.Empty:
                message = None
            if message is not None and message[0] == "ready":
                waiting.discard(message[1])
            for worker_id in list(waiting):
                if not self._workers[worker_id].process.is_alive():
                    waiting.discard(worker_id)
                    self._discard_worker(worker_id)
        for worker_id in waiting:
            self._discard_worker(worker_id)
        if not self._workers:
            telemetry_log.warning(
                "parallel engine: no worker came up; degrading to serial"
            )

    def warm_up(self) -> None:
        """Start the pool now so later calls measure steady-state latency."""
        self.start()

    def close(self) -> None:
        """Shut down the worker processes."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            try:
                worker.inbox.put(None)
            except (OSError, ValueError):
                pass
        for worker in self._workers.values():
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        self._workers.clear()

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort worker shutdown
        try:
            self.close()
        except Exception:
            pass

    # -------------------------------------------------------------- inference

    def match_points(
        self, trajectories: Sequence[Trajectory]
    ) -> List[List[int]]:
        """Per-point segment matches for every trajectory."""
        return _concat(self._run("match_points", trajectories))

    def match(self, trajectories: Sequence[Trajectory]) -> List[List[int]]:
        """Stitched routes (Definition 4) for every trajectory."""
        return _concat(self._run("match", trajectories))

    def recover(
        self, trajectories: Sequence[Trajectory], epsilon: float
    ) -> List[MatchedTrajectory]:
        """Recovered ``epsilon``-dense trajectories (Algorithm 2)."""
        self._serial._require_recoverer()
        return _concat(self._run("recover", trajectories, epsilon))

    def match_and_recover(
        self, trajectories: Sequence[Trajectory], epsilon: float
    ) -> Tuple[List[List[int]], List[MatchedTrajectory]]:
        """Routes and recovered trajectories with one matcher pass."""
        self._serial._require_recoverer()
        shares = self._run("match_and_recover", trajectories, epsilon)
        return (
            _concat([routes for routes, _ in shares]),
            _concat([recovered for _, recovered in shares]),
        )

    # --------------------------------------------------------------- dispatch

    def _run(
        self, kind: str, trajectories: Sequence[Trajectory], *args: float
    ) -> List[Any]:
        """``SerialEngine.<kind>(share, *args)`` of every share of
        ``trajectories``, one share per live worker, in submission order."""
        if self._closed:
            raise RuntimeError("engine is closed")
        trajectories = list(trajectories)
        if not trajectories:
            return []
        self.start()
        self._reap_dead_workers()
        if not self._workers:
            return [getattr(self._serial, kind)(trajectories, *args)]
        size = max(
            self.config.chunk_size,
            math.ceil(len(trajectories) / len(self._workers)),
        )
        shares = [
            trajectories[start : start + size]
            for start in range(0, len(trajectories), size)
        ]
        # Absolute share ids stay unique across the engine's lifetime, so a
        # stale reply from an aborted earlier dispatch can never be taken
        # for a result of this one.
        base = self._task_counter
        self._task_counter += len(shares)
        record_telemetry = telemetry.enabled()
        outstanding: Dict[int, int] = {}  # worker id -> share index
        for index, (share, worker) in enumerate(
            zip(shares, self._workers.values())
        ):
            payload = {
                "trajectories": pack_trajectories(share),
                "args": args,
                "telemetry": record_telemetry,
            }
            worker.inbox.put((base + index, kind, payload))
            outstanding[worker.worker_id] = index
        deadline = time.monotonic() + self.config.task_timeout_s
        results: Dict[int, Any] = {}
        while outstanding:
            try:
                status, worker_id, share_id, payload, totals = self._outbox.get(
                    timeout=_POLL_S
                )
            except queue_module.Empty:
                # Only a quiet outbox shows a lost worker: a reply already
                # queued is taken first.
                timed_out = time.monotonic() > deadline
                for worker_id, index in list(outstanding.items()):
                    if timed_out or not self._workers[worker_id].process.is_alive():
                        telemetry_log.warning(
                            f"parallel engine: worker {worker_id} "
                            f"{'timed out' if timed_out else 'died'} on share "
                            f"{base + index}; running it inline"
                        )
                        self._discard_worker(worker_id)
                        del outstanding[worker_id]
                        results[index] = getattr(self._serial, kind)(
                            shares[index], *args
                        )
                continue
            if share_id is None or outstanding.get(worker_id) != share_id - base:
                continue  # a late handshake or an aborted dispatch's reply
            del outstanding[worker_id]
            if status == "error":
                raise RuntimeError(
                    f"engine worker {worker_id} failed on share {share_id}:\n"
                    f"{payload}"
                )
            results[share_id - base] = _unpack_result(kind, payload)
            telemetry.add_totals(totals)
        return [results[index] for index in range(len(shares))]

    def _reap_dead_workers(self) -> None:
        """Drop workers that died between requests, so shares go to the
        survivors only."""
        for worker_id in list(self._workers):
            if not self._workers[worker_id].process.is_alive():
                telemetry_log.warning(
                    f"parallel engine: worker {worker_id} died"
                )
                self._discard_worker(worker_id)

    def _discard_worker(self, worker_id: int) -> None:
        worker = self._workers.pop(worker_id, None)
        if worker is None:
            return
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=1.0)
