"""Multi-process execution engine.

:class:`ParallelEngine` splits each request into at most ``W`` contiguous
shares, one per live worker, and farms them out to the worker processes.
A share holds ``max(chunk_size, ceil(n / W))`` trajectories, so every
worker decodes one large lock-step batch (as the serial engine does for the
whole request) and ``chunk_size`` is only the smallest unit worth a
round trip.  Workers get the road network, the transition statistics and
the trained weights as plain objects in their :class:`WorkerSpec`: under
``fork`` they inherit them from the parent, under ``spawn`` the spec is
pickled once per worker.  Only the per-share trajectory arrays cross the
pickle boundary per request.

Share results are reassembled in submission order, and workers run the very
same batched inference code as :class:`~repro.engine.serial.SerialEngine`,
so outputs are **bit-exact** with the serial path: same-length bucketing is
per share, and the batching invariants (see ``tests/test_batched_parity.py``)
guarantee per-trajectory results do not depend on share composition.

Fault handling: a worker that crashes or exceeds the per-share timeout is
removed from the pool and its in-flight share is re-dispatched to the
survivors (up to ``max_retries`` times, then run inline in the parent);
if every worker is gone, all remaining shares fall back to the in-process
serial engine.  The next request is split over the survivors only.
Each share result carries the worker's stage self times, which the parent
adds to its own (:func:`repro.telemetry.add_totals`).
"""

from __future__ import annotations

import math
import multiprocessing as mp
import queue as queue_module
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..config import EngineConfig
from ..data.trajectory import MatchedTrajectory, Trajectory
from ..matching.mma.matcher import MMAMatcher
from ..recovery.trmma.recoverer import TRMMARecoverer
from ..telemetry import log as telemetry_log
from .payload import pack_trajectories, unpack_matched
from .serial import SerialEngine
from .spec import build_worker_spec
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
    ready: bool = False


class ParallelEngine:
    """Worker-pool engine; drop-in replacement for :class:`SerialEngine`."""

    def __init__(
        self,
        matcher: MMAMatcher,
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
        self._task_counter = 0  # absolute chunk ids, unique per engine

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
        spec = build_worker_spec(
            self.matcher, self.recoverer, engine_config=self.config
        )
        self._outbox = ctx.Queue()
        for worker_id in range(self.workers):
            inbox = ctx.Queue()
            process = ctx.Process(
                target=worker_main,
                args=(worker_id, spec, inbox, self._outbox),
                daemon=True,
                name=f"repro-engine-{worker_id}",
            )
            process.start()
            self._workers[worker_id] = _Worker(worker_id, process, inbox)
        self._await_ready()

    def _await_ready(self) -> None:
        deadline = time.monotonic() + _STARTUP_TIMEOUT_S
        while (
            any(not w.ready for w in self._workers.values())
            and time.monotonic() < deadline
        ):
            try:
                message = self._outbox.get(timeout=_POLL_S)
            except queue_module.Empty:
                message = None
            if message is not None:
                kind, worker_id = message[0], message[1]
                if kind == "ready":
                    self._workers[worker_id].ready = True
                elif kind == "init_error":
                    self._discard_worker(worker_id)
                    raise RuntimeError(
                        f"engine worker {worker_id} failed to initialise:\n"
                        f"{message[3]}"
                    )
            for worker_id in list(self._workers):
                worker = self._workers[worker_id]
                if not worker.ready and not worker.process.is_alive():
                    self._discard_worker(worker_id)
        for worker_id in list(self._workers):
            if not self._workers[worker_id].ready:
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
        return self._run("match_points", trajectories)

    def match(self, trajectories: Sequence[Trajectory]) -> List[List[int]]:
        """Stitched routes (Definition 4) for every trajectory."""
        return self._run("match", trajectories)

    def recover(
        self, trajectories: Sequence[Trajectory], epsilon: float
    ) -> List[MatchedTrajectory]:
        """Recovered ``epsilon``-dense trajectories (Algorithm 2)."""
        self._serial._require_recoverer()
        return self._run("recover", trajectories, epsilon)

    def match_and_recover(
        self, trajectories: Sequence[Trajectory], epsilon: float
    ) -> Tuple[List[List[int]], List[MatchedTrajectory]]:
        """Routes and recovered trajectories with one matcher pass."""
        self._serial._require_recoverer()
        chunk_results = self._run(
            "match_and_recover", trajectories, epsilon, concatenate=False
        )
        routes: List[List[int]] = []
        recovered: List[MatchedTrajectory] = []
        for chunk_routes, chunk_recovered in chunk_results:
            routes.extend(chunk_routes)
            recovered.extend(chunk_recovered)
        return routes, recovered

    # --------------------------------------------------------------- dispatch

    def _run(
        self,
        kind: str,
        trajectories: Sequence[Trajectory],
        *args: float,
        concatenate: bool = True,
    ) -> Any:
        """Run ``SerialEngine.<kind>(share, *args)`` on every share of
        ``trajectories`` in the workers; results in submission order."""
        if self._closed:
            raise RuntimeError("engine is closed")
        trajectories = list(trajectories)
        if not trajectories:
            return []
        self.start()
        self._reap_dead_workers()
        size = max(
            self.config.chunk_size,
            math.ceil(len(trajectories) / max(len(self._workers), 1)),
        )
        chunks = [
            trajectories[start : start + size]
            for start in range(0, len(trajectories), size)
        ]
        # Absolute chunk ids stay unique across the engine's lifetime, so a
        # stale message from an aborted earlier dispatch can never be
        # mistaken for a result of this one.
        base = self._task_counter
        self._task_counter += len(chunks)
        results = self._dispatch(kind, chunks, args, base)
        ordered = [results[base + index] for index in range(len(chunks))]
        if concatenate:
            return [item for chunk in ordered for item in chunk]
        return ordered

    def _dispatch(
        self,
        kind: str,
        chunks: List[List[Trajectory]],
        args: Tuple[float, ...],
        base: int,
    ) -> Dict[int, Any]:
        record_telemetry = telemetry.enabled()
        payloads = {
            base + index: {
                "trajectories": pack_trajectories(chunk),
                "args": args,
                "telemetry": record_telemetry,
            }
            for index, chunk in enumerate(chunks)
        }
        results: Dict[int, Any] = {}
        pending = deque(payloads)
        attempts = {chunk_id: 0 for chunk_id in payloads}
        idle = deque(
            worker_id
            for worker_id, worker in self._workers.items()
            if worker.ready
        )
        assigned: Dict[int, Tuple[int, float]] = {}  # wid -> (cid, deadline)

        def run_inline(chunk_id: int) -> None:
            # The parent's own models run the share.
            results[chunk_id] = getattr(self._serial, kind)(
                chunks[chunk_id - base], *args
            )

        def requeue(chunk_id: int) -> None:
            if chunk_id in results:
                return
            attempts[chunk_id] += 1
            if attempts[chunk_id] > self.config.max_retries or not self._workers:
                run_inline(chunk_id)
            else:
                pending.appendleft(chunk_id)

        while len(results) < len(chunks):
            if not self._workers:
                for chunk_id in payloads:
                    if chunk_id not in results:
                        run_inline(chunk_id)
                break
            while idle and pending:
                worker_id = idle.popleft()
                if worker_id not in self._workers:
                    continue
                chunk_id = pending.popleft()
                if chunk_id in results:
                    continue
                self._workers[worker_id].inbox.put(
                    (chunk_id, kind, payloads[chunk_id])
                )
                assigned[worker_id] = (
                    chunk_id,
                    time.monotonic() + self.config.task_timeout_s,
                )
            try:
                message = self._outbox.get(timeout=_POLL_S)
            except queue_module.Empty:
                message = None
            if message is not None:
                self._handle_message(
                    message, kind, payloads, results, assigned, idle
                )
            now = time.monotonic()
            for worker_id in list(self._workers):
                worker = self._workers[worker_id]
                in_flight = assigned.get(worker_id)
                if not worker.process.is_alive():
                    telemetry_log.warning(
                        f"parallel engine: worker {worker_id} died"
                        + (f" on chunk {in_flight[0]}" if in_flight else "")
                    )
                    self._discard_worker(worker_id)
                    assigned.pop(worker_id, None)
                    if worker_id in idle:
                        idle.remove(worker_id)
                    if in_flight is not None:
                        requeue(in_flight[0])
                elif in_flight is not None and now > in_flight[1]:
                    telemetry_log.warning(
                        f"parallel engine: worker {worker_id} timed out on "
                        f"chunk {in_flight[0]}; killing it"
                    )
                    worker.process.terminate()
                    worker.process.join(timeout=1.0)
                    self._discard_worker(worker_id)
                    assigned.pop(worker_id, None)
                    requeue(in_flight[0])
        return results

    def _handle_message(
        self,
        message: Tuple,
        task_kind: str,
        payloads: Dict[int, Dict],
        results: Dict[int, Any],
        assigned: Dict[int, Tuple[int, float]],
        idle: "deque[int]",
    ) -> None:
        kind, worker_id, chunk_id, payload, totals = message
        if kind == "ready":
            if worker_id in self._workers:
                self._workers[worker_id].ready = True
                idle.append(worker_id)
            return
        if kind == "init_error":
            self._discard_worker(worker_id)
            return
        if assigned.get(worker_id, (None,))[0] == chunk_id:
            assigned.pop(worker_id, None)
            if worker_id in self._workers:
                idle.append(worker_id)
        if chunk_id not in payloads:
            return  # stale message from an aborted earlier dispatch
        if kind == "error":
            raise RuntimeError(
                f"engine worker {worker_id} failed on chunk {chunk_id}:\n"
                f"{payload}"
            )
        if kind == "ok" and chunk_id not in results:
            results[chunk_id] = self._normalize_result(task_kind, payload)
            telemetry.add_totals(totals)

    @staticmethod
    def _normalize_result(task_kind: str, payload: Any) -> Any:
        """Unpack worker result payloads to the public result shapes."""
        if task_kind == "recover":
            return unpack_matched(payload)
        if task_kind == "match_and_recover":
            routes, packed = payload
            return routes, unpack_matched(packed)
        return payload

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
