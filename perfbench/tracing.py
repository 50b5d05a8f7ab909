"""Span tracing of the broker stack from outside it, and self-time attribution.

The traced run patches each layer's public functions with wrappers that
record a span — name, start, end, parent span and the id of the user call it
belongs to — while a user call (a *request*) is open.  Nothing in the program
changes; :func:`install` returns the function that puts every original back.

Spans are held in memory and attributed when the run ends.  Each instant of a
request's wall time goes to the span that started most recently among those
open at that instant, on any thread.  On one thread that is the innermost
span, so a layer's time is its spans' duration minus the time their child
spans cover.  A span opened on the networked transport's loop thread (which
has its own span stack) takes the time from the control-thread span it
overlaps.  Time no span covers is reported as the unattributed remainder, so
the layer times plus the remainder add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import heapq
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Tracer",
    "Patch",
    "layer_patches",
    "install",
    "attribute",
    "write_spans",
]


class Span:
    """One timed call: ``parent`` is the enclosing span on the same thread."""

    __slots__ = ("name", "start", "end", "parent", "request", "thread")

    def __init__(
        self,
        name: str,
        start: float,
        parent: Optional["Span"],
        request: int,
        thread: int,
        end: float = 0.0,
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.thread = thread


class Tracer:
    """In-memory span recorder with one span stack per thread.

    Spans are recorded only while a request is open (:meth:`request`), so
    set-up work and the benchmark's own checks never enter the attribution.
    ``counts`` holds the counters the wrappers derive from call arguments and
    results (calls, cubes, bytes); ``seen`` is scratch state for them.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.requests: List[Tuple[int, float, float]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.seen: set = set()
        self.request_id: Optional[int] = None
        self.lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Optional[Span]:
        """Open a span (``None`` outside a request)."""
        request = self.request_id
        if request is None:
            return None
        stack = self._stack()
        span = Span(
            name,
            0.0,
            stack[-1] if stack else None,
            request,
            threading.get_ident(),
        )
        self.spans.append(span)
        stack.append(span)
        span.start = self.clock()
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span = self.begin(name)
        try:
            yield
        finally:
            if span is not None:
                self.end(span)

    @contextmanager
    def request(self) -> Iterator[None]:
        """One user call: every span recorded inside shares its id."""
        if self.request_id is not None:
            raise RuntimeError("requests do not nest")
        request = len(self.requests)
        self.request_id = request
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self.request_id = None
            self.requests.append((request, start, end))


# ------------------------------------------------------------------ wrappers
#: Counter hook: called as ``hook(tracer, args, result)`` after a traced call.
CountHook = Callable[[Tracer, Tuple[Any, ...], Any], None]


def _wrap_call(tracer: Tracer, name: str, fn: Callable, hook: Optional[CountHook]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        if span is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Generator functions do their work while resumed: time each resume."""

    def resumes(generator):
        while True:
            span = tracer.begin(name)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                if span is not None:
                    tracer.end(span)
            yield item

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        generator = fn(*args, **kwargs)
        if tracer.request_id is None:
            return generator
        return resumes(generator)

    return traced


@dataclass(frozen=True)
class Patch:
    """One wrapped attribute: ``owner.attr`` records spans named ``span``."""

    owner: Any
    attr: str
    span: str
    hook: Optional[CountHook] = None
    generator: bool = False


def _count(name: str) -> CountHook:
    def hook(tracer: Tracer, args, result) -> None:
        tracer.counts[name] += 1

    return hook


def _count_decomposition(tracer: Tracer, args, result) -> None:
    universe, rect = args[0], args[1]
    counts = tracer.counts
    counts["core.decomposition.calls"] += 1
    counts["core.decomposition.cubes"] += len(result)
    signature = ("decomposition", universe.dims, universe.order, rect.low, rect.high)
    if signature in tracer.seen:
        counts["core.decomposition.repeats"] += 1
    else:
        tracer.seen.add(signature)


def _count_store_add(tracer: Tracer, args, result) -> None:
    tracer.counts["index.sfc_array.adds"] += 1
    tracer.counts["index.sfc_array.runs_added"] += len(args[2])


def _count_frame(tracer: Tracer, args, result) -> None:
    # The transport's loop thread encodes link handshakes too.
    with tracer.lock:
        tracer.counts["net.frames_encoded"] += 1
        tracer.counts["net.frame_bytes"] += len(result)


def layer_patches(curve_kind: str) -> List[Patch]:
    """The wrapped public calls of every layer, named ``<layer>[.<part>]``.

    ``decompose_rectangle`` and the wire-codec functions are patched in the
    modules that imported them by name, because that is where they are looked
    up at call time.  Per-item calls such as ``Subscription.matches`` are not
    wrapped: the wrapper would cost more than the call.
    """
    from repro.net import net_transport
    from repro.net.net_transport import NetTransport
    from repro.net.protocol import FrameDecoder
    from repro.index.sfc_array import FlatSegmentStore
    from repro.pubsub import match_index
    from repro.pubsub.broker import Broker
    from repro.pubsub.match_index import MatchIndex
    from repro.pubsub.network import BrokerNetwork
    from repro.pubsub.routing_table import ApproximateCoveringStrategy, InterfaceTable
    from repro.pubsub.subscription_store import ProfileCache
    from repro.sfc.factory import curve_class
    from repro.sim.transport import SyncTransport

    curve = curve_class(curve_kind)
    return [
        Patch(BrokerNetwork, "subscribe", "pubsub.network"),
        Patch(BrokerNetwork, "unsubscribe", "pubsub.network"),
        Patch(BrokerNetwork, "publish", "pubsub.network"),
        Patch(BrokerNetwork, "flush", "pubsub.network"),
        Patch(Broker, "receive_subscription", "pubsub.broker.subscription"),
        Patch(Broker, "receive_unsubscription", "pubsub.broker.subscription"),
        Patch(Broker, "receive_event", "pubsub.broker.event"),
        Patch(ProfileCache, "covering_profile", "pubsub.subscription_store"),
        Patch(ApproximateCoveringStrategy, "find_covering_profile", "pubsub.routing_table.covering"),
        Patch(ApproximateCoveringStrategy, "add_profile", "pubsub.routing_table.covering"),
        Patch(ApproximateCoveringStrategy, "remove", "pubsub.routing_table.covering"),
        Patch(InterfaceTable, "add", "pubsub.routing_table.table"),
        Patch(InterfaceTable, "remove", "pubsub.routing_table.table"),
        Patch(MatchIndex, "add", "pubsub.match_index.insert"),
        Patch(MatchIndex, "remove", "pubsub.match_index.remove"),
        Patch(MatchIndex, "any_match", "pubsub.match_index.probe"),
        Patch(MatchIndex, "matching_ids", "pubsub.match_index.probe"),
        Patch(match_index, "decompose_rectangle", "core.decomposition", _count_decomposition),
        Patch(curve, "cube_key_ranges", "sfc.cube_keys"),
        Patch(curve, "key", "sfc.event_key"),
        Patch(curve, "keys", "sfc.event_key"),
        Patch(FlatSegmentStore, "add", "index.sfc_array.add", _count_store_add),
        Patch(FlatSegmentStore, "remove", "index.sfc_array.remove"),
        Patch(FlatSegmentStore, "rebuild", "index.sfc_array.rebuild", _count("index.sfc_array.rebuilds")),
        Patch(FlatSegmentStore, "stab", "index.sfc_array.stab", generator=True),
        Patch(SyncTransport, "send", "sim.transport"),
        Patch(NetTransport, "send", "net.send"),
        Patch(NetTransport, "flush", "net.flush_wait"),
        Patch(net_transport, "message_frame", "net.codec"),
        Patch(net_transport, "encode_payload", "net.codec"),
        Patch(net_transport, "encode_frame", "net.codec", _count_frame),
        Patch(net_transport, "decode_payload", "net.codec"),
        Patch(FrameDecoder, "feed", "net.codec"),
    ]


def install(tracer: Tracer, patches: Sequence[Patch]) -> Callable[[], None]:
    """Wrap every patched attribute; return the function that restores them."""
    undo: List[Tuple[Any, str, bool, Any]] = []
    try:
        for patch in patches:
            own = vars(patch.owner)
            undo.append((patch.owner, patch.attr, patch.attr in own, own.get(patch.attr)))
            original = getattr(patch.owner, patch.attr)
            if patch.generator:
                wrapped = _wrap_generator(tracer, patch.span, original)
            else:
                wrapped = _wrap_call(tracer, patch.span, original, patch.hook)
            setattr(patch.owner, patch.attr, wrapped)
    except BaseException:
        _restore(undo)
        raise
    return lambda: _restore(undo)


def _restore(undo: List[Tuple[Any, str, bool, Any]]) -> None:
    for owner, attr, had, original in reversed(undo):
        if had:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
    undo.clear()


# --------------------------------------------------------------- attribution
def attribute(
    spans: Sequence[Span], requests: Sequence[Tuple[int, float, float]]
) -> Tuple[Dict[str, float], float, float]:
    """Split each request's wall time among span names.

    Returns ``(seconds by span name, unattributed seconds, wall seconds)``.
    At every instant the most recently started open span of the request takes
    the time (ties go to the span recorded later, which on one thread is the
    child).  Spans are clipped to their request's interval.
    """
    by_request: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_request[span.request].append(span)
    totals: Dict[str, float] = defaultdict(float)
    unattributed = 0.0
    wall = 0.0
    for request, start, end in requests:
        wall += end - start
        edges: List[Tuple[float, int, int]] = []
        members = by_request.get(request, ())
        for order, span in enumerate(members):
            lo = max(span.start, start)
            hi = min(span.end, end)
            if hi > lo:
                edges.append((lo, 1, order))
                edges.append((hi, 0, order))
        # Ends sort before starts at the same instant.
        edges.sort()
        open_spans: List[Tuple[float, int]] = []
        closed: set = set()
        cursor = start
        for instant, is_start, order in edges:
            if instant > cursor:
                while open_spans and -open_spans[0][1] in closed:
                    heapq.heappop(open_spans)
                if open_spans:
                    totals[members[-open_spans[0][1]].name] += instant - cursor
                else:
                    unattributed += instant - cursor
                cursor = instant
            if is_start:
                heapq.heappush(open_spans, (-members[order].start, -order))
            else:
                closed.add(order)
        unattributed += end - cursor
    return dict(totals), unattributed, wall


def write_spans(path: str, tracer: Tracer) -> None:
    """Write every span as one JSON object per line (ids are list positions)."""
    ids = {id(span): position for position, span in enumerate(tracer.spans)}
    with open(path, "w", encoding="utf-8") as handle:
        for position, span in enumerate(tracer.spans):
            handle.write(
                json.dumps(
                    {
                        "id": position,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": ids.get(id(span.parent)) if span.parent is not None else None,
                        "request": span.request,
                        "thread": span.thread,
                    }
                )
                + "\n"
            )
