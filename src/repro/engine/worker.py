"""Worker process entry point of the parallel engine.

Each worker rebuilds the inference runtime from its :class:`WorkerSpec`
(loading the trained weights into fresh models over the spec's road
network, behind a :class:`~repro.engine.serial.SerialEngine`), then serves
``(chunk_id, kind, payload)`` tasks from its inbox queue until it receives
the ``None`` shutdown sentinel.  A chunk is one contiguous share of a
request (see :class:`ParallelEngine`); its ``kind`` is the name of the
:class:`SerialEngine` method that runs it.

Message protocol (all tuples ``(type, worker_id, chunk_id, payload,
stage_totals)`` on the shared outbox):

* ``("ready", wid, None, None, None)`` — runtime built, accepting tasks.
* ``("init_error", wid, None, traceback_str, None)`` — rebuild failed.
* ``("ok", wid, chunk_id, result, totals)`` — task finished; ``totals`` is
  :func:`~repro.telemetry.take_totals` for exactly this share (empty unless
  the task asked for telemetry).
* ``("error", wid, chunk_id, traceback_str, None)`` — task raised; the
  stage times it recorded are dropped.

Worker *crashes* (the process dying mid-task) intentionally send nothing —
the parent detects them by liveness polling and re-dispatches the chunk.
"""

from __future__ import annotations

import traceback
from typing import Any, Dict

from .. import telemetry
from .payload import pack_matched, unpack_trajectories
from .serial import SerialEngine
from .spec import WorkerSpec, build_worker_runtime

#: Task kinds: the :class:`SerialEngine` methods a share can run.
TASK_KINDS = ("match_points", "match", "recover", "match_and_recover")


def execute_task(engine: SerialEngine, kind: str, payload: Dict) -> Any:
    """Run ``engine.<kind>(trajectories, *payload["args"])`` on one share.

    Results use compact picklable shapes: plain int lists for routes and
    point matches, packed arrays (:func:`pack_matched`) for recovered
    trajectories.
    """
    if kind not in TASK_KINDS:
        raise ValueError(f"unknown task kind {kind!r}")
    trajectories = unpack_trajectories(payload["trajectories"])
    result = getattr(engine, kind)(trajectories, *payload["args"])
    if kind == "recover":
        return pack_matched(result)
    if kind == "match_and_recover":
        routes, recovered = result
        return routes, pack_matched(recovered)
    return result


def worker_main(worker_id: int, spec: WorkerSpec, inbox: Any, outbox: Any) -> None:
    """Blocking serve loop; one call per worker process lifetime."""
    try:
        # Build with telemetry off so one-time construction spans don't
        # ship with the first share; each task then opts in explicitly.
        telemetry.disable()
        engine = build_worker_runtime(spec)
    except BaseException:
        outbox.put(("init_error", worker_id, None, traceback.format_exc(), None))
        return
    outbox.put(("ready", worker_id, None, None, None))

    while True:
        message = inbox.get()
        if message is None:
            break
        chunk_id, kind, payload = message
        if payload["telemetry"]:
            telemetry.enable()
        else:
            telemetry.disable()
        try:
            result = execute_task(engine, kind, payload)
            outbox.put(("ok", worker_id, chunk_id, result, telemetry.take_totals()))
        except BaseException:
            telemetry.take_totals()  # a failed share's stage times are dropped
            outbox.put(("error", worker_id, chunk_id, traceback.format_exc(), None))
