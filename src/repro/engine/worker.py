"""Worker process entry point of the parallel engine.

Each worker rebuilds the inference runtime from its :class:`WorkerSpec`
(loading the trained weights into fresh models over the spec's road
network), then serves ``(chunk_id, kind, payload)`` tasks from its inbox
queue until it receives the ``None`` shutdown sentinel.  A chunk is one
contiguous share of a request (see :class:`ParallelEngine`).

Message protocol (all tuples ``(type, worker_id, chunk_id, payload,
telemetry_state)`` on the shared outbox):

* ``("ready", wid, None, None, None)`` — runtime built, accepting tasks.
* ``("init_error", wid, None, traceback_str, None)`` — rebuild failed.
* ``("ok", wid, chunk_id, result, state_or_None)`` — task finished; when
  the task asked for telemetry, ``state`` is the worker registry's
  ``export_state()`` for exactly this chunk (the registry is reset after
  every task, failed or not, so chunks never double-report).
* ``("error", wid, chunk_id, traceback_str, None)`` — task raised; the
  spans it recorded are dropped.

Worker *crashes* (the process dying mid-task) intentionally send nothing —
the parent detects them by liveness polling and re-dispatches the chunk.
"""

from __future__ import annotations

import os
import traceback
from typing import Any, Dict, Tuple

from ..telemetry import state as telemetry_state
from .payload import pack_matched, unpack_trajectories
from .spec import WorkerRuntime, WorkerSpec, build_worker_runtime

#: Exit code of an injected fault crash (distinguishable in tests).
FAULT_EXIT_CODE = 17


def execute_task(runtime: WorkerRuntime, kind: str, payload: Dict) -> Any:
    """Run one task kind against the rebuilt runtime.

    Results use compact picklable shapes: plain int lists for routes and
    point matches, packed arrays (:func:`pack_matched`) for recovered
    trajectories.
    """
    trajectories = unpack_trajectories(payload["trajectories"])
    batch_size = payload["batch_size"]
    if kind == "match_points":
        return runtime.matcher.match_points_many(
            trajectories, batch_size=batch_size
        )
    if kind == "match":
        return runtime.matcher.match_many(trajectories, batch_size=batch_size)
    if runtime.recoverer is None:
        raise ValueError(f"worker has no recoverer for task kind {kind!r}")
    if kind == "recover":
        return pack_matched(
            runtime.recoverer.recover_many(
                trajectories, payload["epsilon"], batch_size=batch_size
            )
        )
    if kind == "match_recover":
        all_segments = runtime.recoverer.matcher.match_points_many(
            trajectories, batch_size=batch_size
        )
        routes, recovered = runtime.recoverer.recover_from_point_matches(
            trajectories, all_segments, payload["epsilon"]
        )
        return routes, pack_matched(recovered)
    raise ValueError(f"unknown task kind {kind!r}")


def worker_main(worker_id: int, spec: WorkerSpec, inbox: Any, outbox: Any) -> None:
    """Blocking serve loop; one call per worker process lifetime."""
    try:
        # Build with telemetry off so one-time construction spans don't
        # pollute per-chunk exports; each task then opts in explicitly.
        telemetry_state.disable()
        telemetry_state.reset()
        runtime = build_worker_runtime(spec)
    except BaseException:
        outbox.put(("init_error", worker_id, None, traceback.format_exc(), None))
        return
    outbox.put(("ready", worker_id, None, None, None))

    faults: Tuple[Tuple[int, int], ...] = spec.fault_crashes
    while True:
        message = inbox.get()
        if message is None:
            break
        chunk_id, kind, payload = message
        if (worker_id, chunk_id) in faults:
            os._exit(FAULT_EXIT_CODE)  # simulated crash: no reply, no cleanup
        record = payload.get("telemetry", spec.telemetry_enabled)
        registry = telemetry_state.get_registry()
        try:
            with telemetry_state.enabled_scope(record):
                result = execute_task(runtime, kind, payload)
            exported = registry.export_state() if record else None
            outbox.put(("ok", worker_id, chunk_id, result, exported))
        except BaseException:
            outbox.put(("error", worker_id, chunk_id, traceback.format_exc(), None))
        finally:
            # A failed task's spans must not ship with the next chunk.
            registry.reset()
