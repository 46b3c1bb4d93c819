"""Benchmark-side spans around the public entry points of each layer.

The traced run measures layers from outside the program: :func:`instrument`
replaces a layer's public function or method with a wrapper that records a
span (name, start, end, parent span, request id) and restores the original
afterwards.  Spans stay in memory until the run ends.  A span's self time
is its duration minus the time its child spans cover; every span nests
inside a benchmark ``request`` span, so the self times of all spans add up
to request wall time, and the ``request`` span's own self time is the
unattributed glue (API facade, engine dispatch, list building).
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Span name -> layer whose self time it counts toward.
SPAN_LAYER = {
    "request": "unattributed",
    "candidates": "candidates",
    "features": "features",
    "model": "model",
    "routing.stitch": "routing",
    "routing.plan": "routing",
    "reproject": "reproject",
    "decode": "decode",
    "decode.encoder": "decode",
    "decode.scores": "decode",
    "decode.ratio": "decode",
    "decode.advance": "decode",
    "engine.pack": "engine",
    "engine.unpack": "engine",
    "engine.wait": "engine",
}

# Span record fields (lists, so the closing wrapper can fill them in).
NAME, START, END, PARENT, REQUEST, NOTE = range(6)

_MISSING = object()


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.tensors = 0
        self.request_id = -1
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ----------------------------------------------------------- recording

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.request_id, None])
        self._stack.append(index)
        return index

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable[[tuple], Any]] = None,
        after: Optional[Callable[[tuple, Any, Any], Any]] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``.

        ``before(args)`` runs ahead of the call and its result goes to
        ``after(args, result, token)``, whose return value is stored as the
        span's note (e.g. whether a route plan hit the cache).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            token = before(args) if before is not None else None
            index = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                record = tracer.spans[index]
                record[START] = start
                record[END] = end
            if after is not None:
                record[NOTE] = after(args, result, token)
            return result

        return traced

    @contextmanager
    def request(self, request_id: int) -> Iterator[None]:
        """Root span of one benchmark request."""
        self.request_id = request_id
        index = self._open("request")
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index][START] = start
            self.spans[index][END] = end
            self.request_id = -1

    # ------------------------------------------------------------- patching

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` until :meth:`unpatch` restores it."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def patch_span(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name, **hooks))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def durations(self, name: str) -> List[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def self_times(self) -> Dict[str, float]:
        """Total self time (s) per span name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        totals: Dict[str, float] = defaultdict(float)
        for span, children in zip(self.spans, covered):
            totals[span[NAME]] += span[END] - span[START] - children
        return dict(totals)

    def counts(self) -> Counter:
        return Counter(span[NAME] for span in self.spans)

    def to_json(self) -> Dict[str, Any]:
        spans = [
            span[:NOTE] + [len(span[NOTE]) if isinstance(span[NOTE], list) else span[NOTE]]
            for span in self.spans
        ]
        return {
            "fields": ["name", "start", "end", "parent", "request", "note"],
            "spans": spans,
        }


def instrument(tracer: Tracer, engine: Any = None) -> None:
    """Wrap the public entry point of every layer in a span.

    ``engine`` is the running :class:`~repro.engine.ParallelEngine`, whose
    result queue is wrapped so the parent's waiting time shows; its workers
    run untraced copies of the serial layers.
    """
    import repro.engine.parallel as parallel
    import repro.matching.base as matching_base
    from repro.matching.base import MapMatcher
    from repro.matching.mma.features import MMAFeatureEncoder
    from repro.matching.mma.model import MMAModel
    from repro.network.road_network import RoadNetwork
    from repro.network.routing import DARoutePlanner
    from repro.nn.tensor import Tensor
    from repro.recovery.trmma.decoder import RecoveryDecoder
    from repro.recovery.trmma.encoder import DualFormerEncoder
    from repro.recovery.trmma.model import TRMMAModel

    # The candidate lists stay on the span so the hit rate can be scored
    # against the request's ground truth after the run.
    tracer.patch_span(
        RoadNetwork, "nearest_segments_batch", "candidates",
        after=lambda args, result, token: result,
    )
    tracer.patch_span(MMAFeatureEncoder, "encode_batch", "features")
    tracer.patch_span(
        MMAModel, "predict_segments_batch", "model",
        after=lambda args, result, token: len(result),
    )
    tracer.patch_span(MapMatcher, "stitch", "routing.stitch")

    def plan_before(args: tuple) -> tuple:
        info = args[0].cache_info()
        return info.misses, args[0].fallbacks

    def plan_after(args: tuple, result: Any, token: tuple) -> tuple:
        misses, fallbacks = token
        return (
            args[0].cache_info().misses > misses,
            args[0].fallbacks - fallbacks,
        )

    tracer.patch_span(
        DARoutePlanner, "plan", "routing.plan", before=plan_before, after=plan_after
    )
    tracer.patch_span(matching_base, "reproject_onto_route", "reproject")
    tracer.patch_span(TRMMAModel, "decode", "decode")
    tracer.patch_span(DualFormerEncoder, "forward", "decode.encoder")
    tracer.patch_span(RecoveryDecoder, "scores", "decode.scores")
    tracer.patch_span(RecoveryDecoder, "ratio", "decode.ratio")
    tracer.patch_span(RecoveryDecoder, "advance", "decode.advance")

    tensor_init = Tensor.__init__

    def counted_init(self: Any, *args: Any, **kwargs: Any) -> None:
        tracer.tensors += 1
        tensor_init(self, *args, **kwargs)

    tracer.patch(Tensor, "__init__", counted_init)

    if engine is not None:
        tracer.patch_span(parallel, "pack_trajectories", "engine.pack")
        tracer.patch_span(parallel, "unpack_matched", "engine.unpack")
        outbox = engine._outbox
        tracer.patch_span(outbox, "get", "engine.wait")
