"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

Everything is measured from ``bench_e2e`` code around public entry points:
a timing :class:`~repro.runtime.wire.WireCodec` passed as ``codec=``,
per-instance wrappers on each node's ``server.start_round`` /
``handle_message`` / ``notify_failure`` and on its deliver callbacks, a
``ReplicatedKVStore`` subclass timing ``apply``, ``gc.callbacks`` for
collector pauses, and spans opened by the step loop around ``submit``,
``flush``, ``fail`` and ``run_rounds``.  ``src/`` is not edited.

The in-process runtime is one thread and every wrapped call is synchronous,
so spans nest like a call stack and never overlap: a span's parent is the
innermost span open when it started, self time is duration minus children,
and the self times of all spans sum to the wall time of the root spans.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

from stats import percentile

#: one span = one list in this field order (also the JSONL row layout)
SPAN_FIELDS = ("name", "t0", "t1", "parent", "round", "n", "nbytes")
NAME, T0, T1, PARENT, ROUND, N, NBYTES = range(7)


class Tracer:
    """In-memory span recorder.  Disabled (the default) it records nothing;
    the step loop enables it for the timed window only."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.enabled = False
        #: timed-round index stamped on every span
        self.round = -1
        self._open = -1
        self._gc_open = -1
        #: ``apply`` is called once per request per replica — too often for
        #: a span each, so calls accumulate here and the enclosing deliver
        #: span emits one aggregated child (see ``_wrap_deliver``)
        self.apply_n = 0
        self.apply_s = 0.0

    def begin(self, name: str, n: int = 1, nbytes: int = 0) -> int:
        # The list is built before t0 is read: a collection triggered by
        # this very allocation then lands in the parent, not in this span
        # and the parent both.
        span = [name, 0.0, 0.0, self._open, self.round, n, nbytes]
        idx = len(self.spans)
        self.spans.append(span)
        self._open = idx
        span[T0] = perf_counter()
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[T1] = perf_counter()
        self._open = span[PARENT]

    @contextmanager
    def span(self, name: str, n: int = 1) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        idx = self.begin(name, n)
        try:
            yield
        finally:
            self.end(idx)

    def add_child(self, name: str, parent: int, seconds: float,
                  n: int) -> None:
        """An aggregated child of the open span *parent*: *n* calls that
        together took *seconds* (placed at the parent's start)."""
        t0 = self.spans[parent][T0]
        self.spans.append([name, t0, t0 + seconds, parent, self.round, n, 0])

    def gc_callback(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            if self.enabled:
                self._gc_open = self.begin(f"py.gc{info['generation']}")
        elif self._gc_open >= 0:
            self.end(self._gc_open)
            self._gc_open = -1

    def write_jsonl(self, path: str, header: dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({**header, "fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _timed(tracer: Tracer, name: str,
           fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


def _wrap_handle_message(tracer: Tracer,
                         fn: Callable[..., Any]) -> Callable[..., Any]:
    names: dict[type, str] = {}

    def wrapper(src: int, message: Any) -> Any:
        if not tracer.enabled:
            return fn(src, message)
        kind = type(message)
        name = names.get(kind)
        if name is None:
            name = names[kind] = f"core.handle_message:{kind.__name__}"
        idx = tracer.begin(name)
        try:
            return fn(src, message)
        finally:
            tracer.end(idx)
    return wrapper


def _wrap_deliver(tracer: Tracer,
                  callback: Callable[[Any], None]) -> Callable[[Any], None]:
    def wrapper(record: Any) -> None:
        if not tracer.enabled:
            callback(record)
            return
        idx = tracer.begin("api.deliver")
        tracer.apply_n = 0
        tracer.apply_s = 0.0
        try:
            callback(record)
        finally:
            if tracer.apply_n:
                tracer.add_child("api.rsm.apply", idx, tracer.apply_s,
                                 tracer.apply_n)
            tracer.end(idx)
    return wrapper


def timing_codec(tracer: Tracer) -> Any:
    """A :class:`WireCodec` that delegates to the binary codec and records
    one span per ``encode_message`` and per ``decoder().feed``."""
    from repro.runtime.wire import WireCodec, get_codec

    inner = get_codec("binary")

    class TimingDecoder:
        def __init__(self, decoder: Any) -> None:
            self._decoder = decoder

        def feed(self, data: bytes) -> list[Any]:
            if not tracer.enabled:
                return self._decoder.feed(data)
            idx = tracer.begin("runtime.wire.decode", 0, len(data))
            try:
                items = self._decoder.feed(data)
                tracer.spans[idx][N] = len(items)
                return items
            finally:
                tracer.end(idx)

        @property
        def pending_bytes(self) -> int:
            return self._decoder.pending_bytes

    class TimingCodec(WireCodec):
        name = inner.name

        def encode_message(self, sender: int, message: Any) -> bytes:
            if not tracer.enabled:
                return inner.encode_message(sender, message)
            idx = tracer.begin("runtime.wire.encode")
            try:
                frame = inner.encode_message(sender, message)
                tracer.spans[idx][NBYTES] = len(frame)
                return frame
            finally:
                tracer.end(idx)

        def encode_control(self, obj: dict[str, Any]) -> bytes:
            return inner.encode_control(obj)

        def decoder(self, **kwargs: Any) -> TimingDecoder:
            return TimingDecoder(inner.decoder(**kwargs))

    return TimingCodec()


def timed_kv_factory(tracer: Tracer) -> Callable[[], Any]:
    """``StateMachine`` factory: a ``ReplicatedKVStore`` whose ``apply``
    adds its duration to the tracer's per-deliver accumulator."""
    from repro.api import ReplicatedKVStore

    class TimedKVStore(ReplicatedKVStore):
        def apply(self, round_no: int, origin: int, request: Any) -> Any:
            t0 = perf_counter()
            output = ReplicatedKVStore.apply(self, round_no, origin, request)
            tracer.apply_s += perf_counter() - t0
            tracer.apply_n += 1
            return output

    return TimedKVStore


def instrument_nodes(tracer: Tracer, deployment: Any) -> None:
    """Wrap the core entry points and deliver callbacks of every node of a
    started in-process deployment (instance attributes; the classes stay
    untouched)."""
    for node in deployment.cluster.nodes.values():
        server = node.server
        server.start_round = _timed(
            tracer, "core.start_round", server.start_round)
        server.notify_failure = _timed(
            tracer, "core.notify_failure", server.notify_failure)
        server.handle_message = _wrap_handle_message(
            tracer, server.handle_message)
        node.deliver_callbacks[:] = [
            _wrap_deliver(tracer, cb) for cb in node.deliver_callbacks]


@contextmanager
def gc_spans(tracer: Tracer) -> Iterator[None]:
    gc.callbacks.append(tracer.gc_callback)
    try:
        yield
    finally:
        gc.callbacks.remove(tracer.gc_callback)


# --------------------------------------------------------------------- #
# Derivation
# --------------------------------------------------------------------- #

def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    result = [span[T1] - span[T0] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            result[span[PARENT]] -= span[T1] - span[T0]
    return result


def layer_metrics(spans: Sequence[Sequence[Any]], *, rounds: int,
                  agreed: int, window_s: float,
                  step_walls: Sequence[float],
                  crash_rounds: Sequence[int], arrivals_useful: int,
                  counters: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced repeat.

    ``*_per_round`` values are totals over the window divided by *rounds*;
    self times exclude collector pauses (those are ``py.gc*`` spans of
    their own), so the layers' budgets add up to the round with the
    collector as one more layer.
    """
    selfs = self_times(spans)
    self_by: dict[str, float] = {}
    dur_by: dict[str, float] = {}
    n_by: dict[str, int] = {}
    nbytes_by: dict[str, int] = {}
    calls_by: dict[str, int] = {}
    for span, self_s in zip(spans, selfs):
        name = span[NAME]
        self_by[name] = self_by.get(name, 0.0) + self_s
        dur_by[name] = dur_by.get(name, 0.0) + span[T1] - span[T0]
        n_by[name] = n_by.get(name, 0) + span[N]
        nbytes_by[name] = nbytes_by.get(name, 0) + span[NBYTES]
        calls_by[name] = calls_by.get(name, 0) + 1

    def prefixed(table: dict[str, Any], prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def per_round_ms(seconds: float) -> float:
        return seconds * 1e3 / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    handle_s = prefixed(self_by, "core.handle_message")
    handle_calls = prefixed(calls_by, "core.handle_message")
    bcast_arrivals = calls_by.get("core.handle_message:Broadcast", 0)
    notices = calls_by.get("core.handle_message:FailureNotice", 0)
    encodes = calls_by.get("runtime.wire.encode", 0)
    decoded_frames = n_by.get("runtime.wire.decode", 0)
    frame_sizes = sorted(s[NBYTES] for s in spans
                         if s[NAME] == "runtime.wire.encode")
    wire_bytes = nbytes_by.get("runtime.wire.decode", 0)
    applies = n_by.get("api.rsm.apply", 0)
    gc_pauses = [s[T1] - s[T0] for s in spans if s[NAME].startswith("py.gc")]

    # run_rounds return minus the end of the round's last deliver callback
    last_deliver: dict[int, float] = {}
    returned: dict[int, float] = {}
    for span in spans:
        if span[NAME] == "api.deliver":
            last_deliver[span[ROUND]] = span[T1]
        elif span[NAME] == "runtime.run_rounds":
            returned[span[ROUND]] = span[T1]
    lags = sorted(returned[r] - t for r, t in last_deliver.items()
                  if r in returned)

    walls = sorted(step_walls)
    median_wall = percentile(walls, 50)
    gen2_rounds = {s[ROUND] for s in spans if s[NAME] == "py.gc2"}
    stalled = [r for r, wall in enumerate(step_walls)
               if wall > 3 * median_wall]

    return {
        "loadgen.submit_us_per_req":
            ratio(self_by.get("loadgen.submit", 0.0) * 1e6,
                  n_by.get("loadgen.submit", 0)),
        "api.client.flush_ms_per_round":
            per_round_ms(self_by.get("api.client.flush", 0.0)),
        "api.client.batches_per_round":
            counters["batches_flushed"] / rounds,
        "api.client.reqs_per_batch":
            ratio(counters["requests_flushed"], counters["batches_flushed"]),
        "api.client.resubmitted": counters["resubmitted"],
        "api.deliver_self_ms_per_round":
            per_round_ms(self_by.get("api.deliver", 0.0)),
        "api.rsm.apply_us_per_req":
            ratio(dur_by.get("api.rsm.apply", 0.0) * 1e6, applies),
        "api.rsm.applies_per_agreed_req": ratio(applies, agreed),
        "api.rsm.duplicates_skipped": counters["duplicates_skipped"],
        "api.rsm.dedup_state_size": counters["dedup_state_size"],
        "core.start_round_ms_per_round":
            per_round_ms(self_by.get("core.start_round", 0.0)),
        "core.handle_message_ms_per_round": per_round_ms(handle_s),
        "core.handle_message_us_per_msg":
            ratio(handle_s * 1e6, handle_calls),
        "core.msgs_per_round": handle_calls / rounds,
        "core.bcast_first_share": ratio(arrivals_useful, bcast_arrivals),
        "core.failure_notices_per_crash":
            ratio(notices, len(crash_rounds)),
        "core.recovery_ms_p50":
            percentile(sorted(step_walls[r] for r in crash_rounds), 50) * 1e3
            if crash_rounds else 0.0,
        "runtime.wire.encode_ms_per_round":
            per_round_ms(self_by.get("runtime.wire.encode", 0.0)),
        "runtime.wire.encode_us_per_frame":
            ratio(self_by.get("runtime.wire.encode", 0.0) * 1e6, encodes),
        "runtime.wire.decode_ms_per_round":
            per_round_ms(self_by.get("runtime.wire.decode", 0.0)),
        "runtime.wire.decode_us_per_frame":
            ratio(self_by.get("runtime.wire.decode", 0.0) * 1e6,
                  decoded_frames),
        "runtime.wire.decode_per_encode": ratio(decoded_frames, encodes),
        "runtime.wire.bytes_per_agreed_req": ratio(wire_bytes, agreed),
        "runtime.wire.frame_bytes_p50":
            percentile(frame_sizes, 50) if frame_sizes else 0.0,
        "runtime.run_rounds_self_ms_per_round":
            per_round_ms(self_by.get("runtime.run_rounds", 0.0)),
        "runtime.driver.return_lag_ms_p50":
            percentile(lags, 50) * 1e3 if lags else 0.0,
        "py.gc_pause_ms_per_round": per_round_ms(sum(gc_pauses)),
        "py.gc_pause_ms_max": max(gc_pauses, default=0.0) * 1e3,
        "py.gc_gen2_collections": calls_by.get("py.gc2", 0),
        "tail.round_ms_p99": percentile(walls, 99) * 1e3,
        "tail.round_ms_max": walls[-1] * 1e3,
        "tail.stalled_rounds": len(stalled),
        "tail.gc_overlap_share":
            ratio(sum(1 for r in stalled if r in gen2_rounds), len(stalled)),
        "trace.self_sum_over_wall": sum(selfs) / window_s,
        "trace.nongc_self_over_round_p50":
            (sum(selfs) - sum(gc_pauses)) / (median_wall * rounds),
    }
