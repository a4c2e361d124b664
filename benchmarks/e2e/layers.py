"""Per-layer tracing from outside ``src/``: span wrappers and what they add up to.

:func:`install` replaces public entry points of each layer (module
names are the layer names) with wrappers that record a span — id, name,
start, end, parent, call id, and one integer of layer-specific detail —
into an in-memory array; nothing is written until the run ends.  A
layer's self time is its span minus the part of that interval its child
spans cover.

How a span finds its parent:

- inside one thread or one asyncio task, from a context variable;
- across the transport (caller thread -> dispatch thread or event
  loop), from the identity of the ``Request`` object, which every
  in-process transport hands over unchanged — also inside a batch;
- back across it, from the identity of the marshalled reply payload.

A ``@blocking`` handler runs on the loop's offload executor, where
neither reaches; its span has no parent and is charged against
``rmi.remote`` by name instead.

The wrappers are installed only in the traced run, in a process of its
own; the untraced run never imports this module.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import statistics
import time
from array import array
from typing import Any, Callable

ns = time.perf_counter_ns

ROOT = "call"
FIELDS = 7  # id, name, start_ns, end_ns, parent, call, aux
ZERO_COPY = -1  # aux of a marshal span whose payload rode by reference
KINDS = {"result": 0, "error": 1, "redirect": 2, "drained": 3, "unresolved": 4}


class Tracer:
    """In-memory span recorder.  ``on`` gates recording, so set-up,
    preload and warm-up leave no spans."""

    def __init__(self) -> None:
        self.on = False
        self.buf = array("q")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._cur: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_span", default=None
        )
        # id(Request) or id(reply payload) -> frame of the span that sent it
        self.links: dict[int, tuple[int, int]] = {}
        self._ids = itertools.count(1)
        self.dispatches = 0
        self.queued_hwm = 0
        self.span_cost_ns = 0.0  # see calibrate()
        # [start, end) positions in ``buf`` recorded inside the windows;
        # what lies between them belongs to the grow probe.
        self.regions: list[tuple[int, int]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def resume(self) -> None:
        self.on = True
        self._region_start = len(self.buf)

    def pause(self) -> None:
        self.regions.append((self._region_start, len(self.buf)))

    # -- roots: one per call, owned by the load generator ------------------

    def begin_root(self) -> tuple[int, int] | None:
        if not self.on:
            return None
        sid = next(self._ids)
        frame = (sid, sid)
        self._cur.set(frame)
        return frame

    def leave_root(self) -> None:
        self._cur.set(None)

    def enter_root(self, frame: tuple[int, int]) -> None:
        self._cur.set(frame)

    def end_root(self, frame: tuple[int, int], t0: float, t1: float) -> None:
        self.buf.extend(
            (frame[0], self.name_id(ROOT), int(t0 * 1e9), int(t1 * 1e9), 0, frame[1], 0)
        )

    # -- spans ---------------------------------------------------------------

    def traced(
        self, name: str, fn: Callable,
        parent_of: Callable[[tuple], tuple | None] | None = None,
        aux_of: Callable[[Any, tuple], int] | None = None,
    ) -> Callable:
        """``fn`` inside a span.  The parent is ``parent_of(args)`` when
        that finds one (a link), else the context's current span; the
        span's ``aux`` is ``aux_of(result, args)``.  A coroutine function
        gets a coroutine wrapper."""
        nid = self.name_id(name)
        cur, ids, extend = self._cur, self._ids, self.buf.extend

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not self.on:
                    return await fn(*args, **kwargs)
                parent = (parent_of and parent_of(args)) or cur.get()
                sid = next(ids)
                pid, call = parent or (0, 0)
                token = cur.set((sid, call))
                aux = 0
                t0 = ns()
                try:
                    out = await fn(*args, **kwargs)
                    if aux_of is not None:
                        aux = aux_of(out, args)
                    return out
                finally:
                    t1 = ns()
                    cur.reset(token)
                    extend((sid, nid, t0, t1, pid, call, aux))

        else:

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not self.on:
                    return fn(*args, **kwargs)
                parent = (parent_of and parent_of(args)) or cur.get()
                sid = next(ids)
                pid, call = parent or (0, 0)
                token = cur.set((sid, call))
                aux = 0
                t0 = ns()
                try:
                    out = fn(*args, **kwargs)
                    if aux_of is not None:
                        aux = aux_of(out, args)
                    return out
                finally:
                    t1 = ns()
                    cur.reset(token)
                    extend((sid, nid, t0, t1, pid, call, aux))

        return wrapper

    def calibrate(self, rounds: int = 20_000) -> None:
        """Measure what one span costs its parent (``span_cost_ns``): an
        empty function, traced and plain.  A parent's self time is later
        reduced by this much per child, so the wrappers' own time is not
        booked as the layer's."""
        def nothing() -> None:
            return None

        spanned = self.traced("calibrate", nothing)
        was_on, self.on = self.on, True
        costs = []
        for fn in (nothing, spanned):
            t0 = ns()
            for _ in range(rounds):
                fn()
            costs.append((ns() - t0) / rounds)
        self.on = was_on
        del self.buf[:]
        self.span_cost_ns = max(0.0, costs[1] - costs[0])

    def wrap(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        setattr(owner, attr, self.traced(name, getattr(owner, attr), **hooks))

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> int:
        """One JSON object per span; times in ns since the first span."""
        buf, names = self.buf, self.names
        base = min(buf[2::FIELDS], default=0)
        with open(path, "w") as out:
            for i in range(0, len(buf), FIELDS):
                sid, nid, t0, t1, parent, call, aux = buf[i : i + FIELDS]
                out.write(
                    f'{{"id":{sid},"name":"{names[nid]}","t0":{t0 - base},'
                    f'"t1":{t1 - base},"parent":{parent},"call":{call},"aux":{aux}}}\n'
                )
        return len(buf) // FIELDS


# ----------------------------------------------------------------------
# installing the wrappers
# ----------------------------------------------------------------------


def install(tracer: Tracer, service: type, methods: tuple[str, ...]) -> None:
    """Wrap the public entry points of every layer, and the workload's
    handler methods."""
    from repro.cluster.master import MesosMaster
    from repro.core import balancer
    from repro.core.fields import elastic_field
    from repro.core.pool import ElasticObjectPool
    from repro.core.sentinel import SentinelAgent
    from repro.groupcomm.channel import Channel
    from repro.kvstore.cache import WatchCache
    from repro.kvstore.locks import LockManager
    from repro.kvstore.store import HyperStore
    from repro.rmi import fastpath, remote
    from repro.rmi.aio import AsyncioTransport
    from repro.rmi.batching import RequestBatcher
    from repro.rmi.future import RmiFuture
    from repro.rmi.transport import ThreadedTransport

    wrap = tracer.wrap
    for method in methods:
        wrap(service, method, "handler")
    wrap(balancer.ElasticStub, "invoke_async", "core.balancer")
    _wrap_proxy(tracer, balancer.ElasticStub)
    _wrap_fastpath(tracer, fastpath, (balancer, remote))
    _wrap_request_senders(tracer, RequestBatcher, ThreadedTransport, AsyncioTransport)
    _wrap_skeleton(tracer, remote.Skeleton)
    wrap(RmiFuture, "result", "rmi.future")
    for op in ("get", "get_versioned", "read_versioned", "exists"):
        wrap(HyperStore, op, "kvstore.store.read")
    for op in ("put", "put_many", "cas", "incr", "delete", "update"):
        wrap(HyperStore, op, "kvstore.store.write")
    wrap(WatchCache, "get", "kvstore.cache.get")
    wrap(WatchCache, "put", "kvstore.cache.write")
    wrap(WatchCache, "update", "kvstore.cache.write")
    wrap(LockManager, "lock", "kvstore.locks.lock")
    wrap(LockManager, "try_lock", "kvstore.locks.lock")
    wrap(LockManager, "unlock", "kvstore.locks.unlock")
    _wrap_fields(tracer, elastic_field)
    wrap(MesosMaster, "request_slices", "cluster.master.request")
    wrap(MesosMaster, "release_slice", "cluster.master.release")
    wrap(ElasticObjectPool, "grow", "core.pool.grow")
    wrap(ElasticObjectPool, "shrink", "core.pool.shrink")
    wrap(Channel, "join", "groupcomm.channel.join")
    wrap(Channel, "leave", "groupcomm.channel.leave")
    wrap(Channel, "broadcast", "groupcomm.channel.broadcast")
    wrap(SentinelAgent, "tick", "core.sentinel")


def _wrap_proxy(tracer: Tracer, stub_cls: type) -> None:
    """``stub.method(...)``: the invoker ``__getattr__`` hands out."""
    plain = stub_cls.__getattr__
    invokers: dict[tuple[int, str], Callable] = {}

    def traced_getattr(stub: Any, method: str) -> Callable:
        if not tracer.on:
            return plain(stub, method)
        key = (id(stub), method)
        if key not in invokers:
            invokers[key] = tracer.traced("core.balancer", plain(stub, method))
        return invokers[key]

    stub_cls.__getattr__ = traced_getattr


def _wrap_fastpath(tracer: Tracer, fastpath: Any, importers: tuple) -> None:
    """The four marshal functions, at every site that imported them by
    name.  ``aux`` is the pickled size, or ``ZERO_COPY``.  A reply
    payload links the span that marshalled it to the one that
    unmarshals it on the caller's side."""
    fast_payload = fastpath.FastPayload
    links, cur = tracer.links, tracer._cur

    def size_of(payload: Any) -> int:
        return ZERO_COPY if type(payload) is fast_payload else len(payload)

    def reply_size(out: Any, args: tuple) -> int:
        links[id(out)] = cur.get()
        return size_of(out)

    hooks = {
        "marshal_call": {"aux_of": lambda out, args: size_of(out)},
        "unmarshal_call": {"aux_of": lambda out, args: size_of(args[0])},
        "marshal_result": {"aux_of": reply_size},
        "unmarshal_result": {
            "parent_of": lambda args: links.pop(id(args[0]), None),
            "aux_of": lambda out, args: size_of(args[0]),
        },
    }
    for name, hook in hooks.items():
        wrapper = tracer.traced(f"rmi.fastpath.{name}", getattr(fastpath, name), **hook)
        for module in (fastpath, *importers):
            if hasattr(module, name):
                setattr(module, name, wrapper)


def _wrap_request_senders(
    tracer: Tracer, batcher_cls: type, threaded_cls: type, aio_cls: type
) -> None:
    """Transport entry points: they link each ``Request`` to the span
    that carries it, so the skeleton's span on the far side finds its
    parent.  A batch gets one transport span per entry."""
    nid = tracer.name_id("rmi.transport")
    links, cur, ids, extend = tracer.links, tracer._cur, tracer._ids, tracer.buf.extend

    def entry_frames(requests: tuple) -> list[tuple]:
        frames = []
        for request in requests:
            parent = links.get(id(request)) or cur.get() or (0, 0)
            frame = (next(ids), parent[1])
            links[id(request)] = frame
            frames.append((request, frame, parent[0]))
        return frames

    def close_entries(frames: list[tuple], t0: int) -> None:
        t1 = ns()
        for request, (sid, call), pid in frames:
            links.pop(id(request), None)
            extend((sid, nid, t0, t1, pid, call, 0))

    def blocking_send(fn: Callable, requests_of: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(transport: Any, endpoint_id: str, message: Any) -> Any:
            if not tracer.on:
                return fn(transport, endpoint_id, message)
            frames = entry_frames(requests_of(message))
            t0 = ns()
            try:
                return fn(transport, endpoint_id, message)
            finally:
                close_entries(frames, t0)

        return wrapper

    def callback_send(fn: Callable, requests_of: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(
            transport: Any, endpoint_id: str, message: Any, on_done: Callable
        ) -> None:
            if not tracer.on:
                return fn(transport, endpoint_id, message, on_done)
            frames = entry_frames(requests_of(message))
            t0 = ns()

            def done(result: Any, error: BaseException | None) -> None:
                close_entries(frames, t0)
                on_done(result, error)

            fn(transport, endpoint_id, message, done)

        return wrapper

    one = lambda request: (request,)  # noqa: E731
    many = lambda batch: batch.entries  # noqa: E731
    threaded_cls.invoke = blocking_send(threaded_cls.invoke, one)
    threaded_cls.invoke_batch = blocking_send(threaded_cls.invoke_batch, many)
    aio_cls.submit = callback_send(aio_cls.submit, one)
    aio_cls.submit_batch = callback_send(aio_cls.submit_batch, many)

    # The batcher queues a Request long before a transport sees it: link
    # it inside the batching span, so that span is the transport span's
    # parent and the gap between the two is the time the entry queued.
    for name in ("submit", "dispatch"):
        fn = getattr(batcher_cls, name)

        @functools.wraps(fn)
        def linking(batcher: Any, endpoint_id: str, request: Any, *rest: Any, fn=fn) -> Any:
            if tracer.on:
                links[id(request)] = cur.get()
            return fn(batcher, endpoint_id, request, *rest)

        setattr(batcher_cls, name, tracer.traced("rmi.batching", linking))


def _wrap_skeleton(tracer: Tracer, skeleton_cls: type) -> None:
    """``Skeleton.handle`` / ``handle_async``: parent from the Request's
    identity; ``aux`` is the reply kind.  One dispatch in eight samples
    the endpoint's dispatch queue on the way out."""
    links = tracer.links

    def sender(args: tuple) -> tuple | None:
        return links.get(id(args[1]))

    def reply_kind(response: Any, args: tuple) -> int:
        skeleton = args[0]
        stats = getattr(skeleton.transport, "dispatch_stats", None)
        tracer.dispatches += 1
        if stats is not None and tracer.dispatches & 7 == 0:
            queued = stats(skeleton.endpoint_id)["queued"]
            if queued > tracer.queued_hwm:
                tracer.queued_hwm = queued
        return KINDS.get(response.kind, -1)

    for name in ("handle", "handle_async"):
        tracer.wrap(skeleton_cls, name, "rmi.remote", parent_of=sender, aux_of=reply_kind)


def _wrap_fields(tracer: Tracer, field_cls: type) -> None:
    """Elastic-field reads and writes; class-level access (``obj is
    None``) only fetches the descriptor and is not an operation."""
    get = field_cls.__get__
    traced_get = tracer.traced("core.fields", get)

    def get_or_descriptor(field: Any, obj: Any, objtype: type | None = None) -> Any:
        if obj is None:
            return field
        return traced_get(field, obj, objtype)

    field_cls.__get__ = get_or_descriptor
    tracer.wrap(field_cls, "__set__", "core.fields")
    tracer.wrap(field_cls, "update", "core.fields")


# ----------------------------------------------------------------------
# from spans to per-layer metrics
# ----------------------------------------------------------------------


class Totals:
    """Per span name: durations, ``aux`` values and self time, over the
    spans of ``regions`` (all spans by default).

    Self time is the span minus what its children cover of it, minus
    ``span_cost_ns`` per child (the wrappers' own time).  A root's self
    time is taken against everything recorded under its call id instead,
    because an asynchronous call's layers outlive the span that started
    them: it is the part of the call no layer was busy with — the
    caller's own time before the first layer and after the last."""

    def __init__(self, tracer: Tracer, regions: list | None = None) -> None:
        names = tracer.names
        buf = tracer.buf
        if regions is not None:
            buf = array("q")
            for start, stop in regions:
                buf.extend(tracer.buf[start:stop])
        sid, nid, t0, t1, parent, call, aux = (
            buf[field::FIELDS] for field in range(FIELDS)
        )
        cost = round(tracer.span_cost_ns)
        root = tracer.name_id(ROOT)
        batching = tracer.name_id("rmi.batching")
        transport = tracer.name_id("rmi.transport")
        index = {s: i for i, s in enumerate(sid)}
        own = [b - a for a, b in zip(t0, t1)]
        busy: dict[int, tuple[int, int]] = {}  # call id -> hull of its layer spans
        self.durations: dict[str, list[int]] = {name: [] for name in names}
        self.aux_of: dict[str, list[int]] = {name: [] for name in names}
        self.orphan_ns: dict[str, int] = dict.fromkeys(names, 0)
        # rmi.batching span end -> its transport span start, per entry
        self.batch_wait_ns: list[int] = []
        for i, p in enumerate(parent):
            name = names[nid[i]]
            self.durations[name].append(t1[i] - t0[i])
            self.aux_of[name].append(aux[i])
            if nid[i] != root and call[i]:
                lo, hi = busy.get(call[i], (t0[i], t1[i]))
                busy[call[i]] = (min(lo, t0[i]), max(hi, t1[i]))
            j = index.get(p) if p else None
            if j is None:
                self.orphan_ns[name] += t1[i] - t0[i]
                continue
            if nid[j] != root:
                own[j] -= max(0, min(t1[i], t1[j]) - max(t0[i], t0[j])) + cost
            if nid[i] == transport and nid[j] == batching:
                self.batch_wait_ns.append(max(0, t0[i] - t1[j]))
        self.self_ns: dict[str, int] = dict.fromkeys(names, 0)
        for i, n in enumerate(nid):
            if n == root and sid[i] in busy:
                lo, hi = busy[sid[i]]
                own[i] -= max(0, min(t1[i], hi) - max(t0[i], lo))
            self.self_ns[names[n]] += max(0, own[i])

    def count(self, *names: str) -> int:
        return sum(len(self.durations.get(n, ())) for n in names)

    def total_us(self, *names: str) -> float:
        return sum(sum(self.durations.get(n, ())) for n in names) / 1e3

    def self_us(self, *names: str) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e3

    def mean_us(self, name: str) -> float:
        spans = self.durations.get(name)
        return statistics.fmean(spans) / 1e3 if spans else 0.0


MARSHAL = ("rmi.fastpath.marshal_call", "rmi.fastpath.marshal_result")
UNMARSHAL = ("rmi.fastpath.unmarshal_call", "rmi.fastpath.unmarshal_result")
STORE = ("kvstore.store.read", "kvstore.store.write")


def data_plane(tracer: Tracer, refreshes: int) -> dict[str, float]:
    """Per-call metrics from the spans of the measured windows;
    ``refreshes`` is how many of the sends were membership fetches."""
    t = Totals(tracer, tracer.regions)
    calls = max(1, t.count(ROOT))
    sends = t.count("rmi.transport") - refreshes
    marshalled = [a for n in MARSHAL for a in t.aux_of.get(n, ())]
    replies = t.aux_of.get("rmi.remote", ())
    roots = sorted(t.durations.get(ROOT, ()))
    return {
        "calls": calls,
        "root_p50_us": roots[(len(roots) - 1) // 2] / 1e3 if roots else 0.0,
        "core.balancer.self_us": t.self_us("core.balancer") / calls,
        "core.balancer.attempts_per_call": sends / calls,
        "core.balancer.retries": max(0, sends - calls),
        "core.balancer.membership_refreshes": refreshes,
        "rmi.fastpath.marshal_us": t.total_us(*MARSHAL) / calls,
        "rmi.fastpath.unmarshal_us": t.total_us(*UNMARSHAL) / calls,
        "rmi.fastpath.zero_copy_frac": (
            sum(a == ZERO_COPY for a in marshalled) / len(marshalled)
            if marshalled else 0.0
        ),
        "rmi.fastpath.bytes_per_call": sum(a for a in marshalled if a > 0) / calls,
        "rmi.batching.wait_us": (
            statistics.fmean(t.batch_wait_ns) / 1e3 if t.batch_wait_ns else 0.0
        ),
        "rmi.transport.self_us": t.self_us("rmi.transport") / calls,
        "rmi.transport.queued_hwm": tracer.queued_hwm,
        "rmi.remote.skeleton_self_us": (
            t.self_us("rmi.remote") - t.orphan_ns.get("handler", 0) / 1e3
        ) / calls,
        "rmi.remote.handler_us": t.total_us("handler") / calls,
        "rmi.remote.drained_replies": sum(a == KINDS["drained"] for a in replies),
        "rmi.remote.redirects": sum(a == KINDS["redirect"] for a in replies),
        "rmi.future.wait_us": t.total_us("rmi.future") / calls,
        "kvstore.store.read_ops_per_call": t.count("kvstore.store.read") / calls,
        "kvstore.store.write_ops_per_call": t.count("kvstore.store.write") / calls,
        "kvstore.store.self_us": t.self_us(*STORE) / calls,
        "kvstore.cache.gets_per_call": t.count("kvstore.cache.get") / calls,
        "kvstore.locks.acquires_per_call": t.count("kvstore.locks.lock") / calls,
        "kvstore.locks.wait_us": t.mean_us("kvstore.locks.lock"),
        "core.fields.ops_per_call": t.count("core.fields") / calls,
        "core.fields.self_us": t.self_us("core.fields") / calls,
        "loadgen.self_us": t.self_us(ROOT) / calls,
    }


def control_plane(tracer: Tracer) -> dict[str, float]:
    """Mean span lengths of the resize path, over the whole run."""
    t = Totals(tracer)
    return {
        "cluster.master.request_us": t.mean_us("cluster.master.request"),
        "cluster.master.release_us": t.mean_us("cluster.master.release"),
        "core.pool.grow_span_us": t.mean_us("core.pool.grow"),
        "groupcomm.channel.join_us": t.mean_us("groupcomm.channel.join"),
        "groupcomm.channel.broadcasts": t.count("groupcomm.channel.broadcast"),
        "core.sentinel.tick_us": t.mean_us("core.sentinel"),
        "resizes": t.count("core.pool.grow", "core.pool.shrink"),
    }
