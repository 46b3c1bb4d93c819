"""Worker process entry point of the parallel engine.

Each worker runs the parent's own :class:`~repro.engine.serial.SerialEngine`:
under ``fork`` it inherits that engine, under ``spawn`` it unpickles it once
as its process argument.  It reports ``ready``, then serves
``(share_id, kind, payload)`` tasks from its inbox queue until it receives
the ``None`` shutdown sentinel.  A share is one contiguous part of a request
(see :class:`ParallelEngine`); its ``kind`` is the name of the
:class:`SerialEngine` method that runs it.

Message protocol (all tuples ``(type, worker_id, share_id, payload,
stage_totals)`` on the shared outbox):

* ``("ready", wid, None, None, None)`` — accepting tasks.
* ``("ok", wid, share_id, result, totals)`` — task finished; ``totals`` is
  :func:`~repro.telemetry.take_totals` for exactly this share (empty unless
  the task asked for telemetry).
* ``("error", wid, share_id, traceback_str, None)`` — task raised; the
  stage times it recorded are dropped.

A worker that dies (mid-task, or under ``spawn`` because its arguments
failed to unpickle) intentionally sends nothing — the parent detects it by
liveness polling and runs its share inline.
"""

from __future__ import annotations

import traceback
from typing import Any, Dict

from .. import telemetry
from .payload import pack_matched, unpack_trajectories
from .serial import SerialEngine

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


def worker_main(
    worker_id: int, engine: SerialEngine, inbox: Any, outbox: Any
) -> None:
    """Blocking serve loop; one call per worker process lifetime."""
    outbox.put(("ready", worker_id, None, None, None))
    while True:
        message = inbox.get()
        if message is None:
            break
        share_id, kind, payload = message
        if payload["telemetry"]:
            telemetry.enable()
        else:
            telemetry.disable()
        try:
            result = execute_task(engine, kind, payload)
            outbox.put(("ok", worker_id, share_id, result, telemetry.take_totals()))
        except BaseException:
            telemetry.take_totals()  # a failed share's stage times are dropped
            outbox.put(("error", worker_id, share_id, traceback.format_exc(), None))
