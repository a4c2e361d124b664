"""Load generators, the grow probe, and the window statistics.

All load comes from the calling (main) thread: the process is pinned to
one CPU, and a second load thread would only measure how the GIL is
handed around.

- *closed loop*: one caller; the next call (or wave of ``invoke_async``
  calls gathered in order) starts when the previous one has returned.
- *open loop*: arrivals on a seeded schedule whatever the system does;
  latency runs from the time a call was *due*, so a stalled generator
  charges the stall to the calls it delayed, and how late it ran is
  reported.

A latency of ``-1.0`` marks a failed call (an exception or a wrong
reply); it counts as attempted and as missing the latency limit.

Times that the CPU sets are reported at a *reference machine speed*
(:class:`Reference`): the virtual machines this runs on change speed by
a tenth from one half hour to the next and by half for a minute at a
time, and a benchmark that reports that as the program's doing cannot
gate anything.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from typing import Any, Callable

from repro.core.pool import MemberState

pc = time.perf_counter
WAIT_S = 30.0  # a reply later than this is a failure, not a hang
DRAIN_S = 10.0  # open loop: every future must resolve this soon after the last send


REF_ITERS = 40_000
REF_S = 1.25e-3  # one pass, on the machine the latency limits were sized on, when quiet
REF_EVERY_S = 0.05
REF_ROOM_S = 0.003  # open loop: the idle gap a pass needs before the next call is due


class Reference:
    """How fast the machine is running, sampled between the calls.

    A *pass* is a fixed pure-Python loop, about 1.2 ms, run by the load
    thread at most every ``REF_EVERY_S`` while it generates load; the
    time passes take is taken out of every window.  ``slowdown`` over
    an interval is the mean pass time there as a multiple of ``REF_S``,
    and a time the CPU sets is divided by it.  The loop shares no code
    with the program, so a change to the program cannot move it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds the pass took)
        self._next = 0.0

    def sample(self) -> float:
        """One pass; returns the seconds it took."""
        t0 = pc()
        x = 0
        for i in range(REF_ITERS):
            x += i
        spent = pc() - t0
        self.samples.append((t0, spent))
        self._next = t0 + spent + REF_EVERY_S
        return spent

    def tick(self, now: float) -> float:
        """A pass if one is due, else nothing; the seconds spent."""
        return self.sample() if now >= self._next else 0.0

    def slowdown(self, t0: float, t1: float) -> float:
        return statistics.fmean(s for t, s in self.samples if t0 <= t <= t1) / REF_S


class GrowWatch:
    """Times one ``pool.grow(1)`` from the call to the first reply the
    new member served, split at the points the runtime exposes.

    The caller polls after every reply while a grow is pending.  "Served"
    is read from the new member's skeleton statistics, so it works for
    any elastic class.  All times are seconds on ``time.monotonic``.
    """

    def __init__(self, runtime: Any, pool: Any, stub: Any) -> None:
        self._pool = pool
        self._stub = stub
        # The pool stamps members on the runtime's clock (monotonic
        # minus an epoch); this converts those stamps to ours.
        self._clock_epoch = time.monotonic() - runtime.scheduler.clock.now()
        self.member: Any = None
        self._t0 = 0.0
        self._visible_at = 0.0
        self.grows = 0
        self.totals: list[float] = []
        self.served_at: list[float] = []  # perf_counter, to look up the slowdown
        # grow call -> grant -> ACTIVE -> in the stub's members -> served
        self.parts: list[tuple[float, float, float, float]] = []

    def grow(self) -> None:
        self.grows += 1
        self._visible_at = 0.0
        known = set(self._pool.members)
        self._t0 = time.monotonic()
        if self._pool.grow(1) != 1:
            raise RuntimeError("the cluster granted no slice for grow(1)")
        (uid,) = set(self._pool.members) - known
        self.member = self._pool.members[uid]

    def poll(self) -> None:
        member = self.member
        skeleton = None if member is None else member.skeleton
        if skeleton is None:
            return
        now = time.monotonic()
        if not self._visible_at and skeleton.ref() in self._stub.members_snapshot():
            self._visible_at = now
        if skeleton.stats.total_calls() == 0:
            return
        granted = member.requested_at + self._clock_epoch
        active = member.active_at + self._clock_epoch
        visible = self._visible_at or now
        self.totals.append(now - self._t0)
        self.served_at.append(pc())
        self.parts.append(
            (granted - self._t0, active - granted, visible - active, now - visible)
        )
        self.member = None


def make_step(
    workload: Any, stub: Any, source: Any, tracer: Any, watch: GrowWatch
) -> Callable[[list[float]], None]:
    """One unit of closed-loop load: a blocking proxy call, or a wave of
    ``invoke_async`` calls gathered in order.  Appends one latency per
    call to the list it is given."""
    method, nxt, check = source.method, source.next, source.check

    def call_step(lat: list[float]) -> None:
        args = nxt()
        frame = None if tracer is None else tracer.begin_root()
        t0 = pc()
        try:
            ok = check(args, getattr(stub, method)(*args))
        except Exception:
            ok = False
        t1 = pc()
        if frame is not None:
            tracer.leave_root()
            tracer.end_root(frame, t0, t1)
        lat.append(t1 - t0 if ok else -1.0)
        if watch.member is not None:
            watch.poll()

    wave = workload.wave

    def wave_step(lat: list[float]) -> None:
        flights = []
        for _ in range(wave):
            args = nxt()
            frame = None if tracer is None else tracer.begin_root()
            t0 = pc()
            try:
                future = stub.invoke_async(method, *args)
            except Exception:
                future = None
            if frame is not None:
                tracer.leave_root()
            flights.append((args, frame, t0, future))
        for args, frame, t0, future in flights:
            if frame is not None:
                tracer.enter_root(frame)
            try:
                ok = future is not None and check(args, future.result(WAIT_S))
            except Exception:
                ok = False
            t1 = pc()
            if frame is not None:
                tracer.leave_root()
                tracer.end_root(frame, t0, t1)
            lat.append(t1 - t0 if ok else -1.0)
            if watch.member is not None:
                watch.poll()

    return call_step if workload.loop == "closed" else wave_step


def run_windows(
    step: Callable[[list[float]], None],
    ref: Reference,
    windows: int,
    window_s: float,
    warmup_s: float,
    begin: Callable[[], None],
    end: Callable[[], None],
    limit_us: float,
) -> list[dict]:
    """Warm up, then measure ``windows`` windows; returns each one's
    :func:`window_metrics`.  ``begin`` and ``end`` run around each
    window, outside the measurement.

    A window's length is what the clock says when its last step returns,
    less the reference passes made inside it.  Its latencies are reduced
    to a row and dropped before the next window starts, so peak memory
    does not grow with the number of calls a faster program makes."""
    discard: list[float] = []
    until = pc() + warmup_s
    while pc() < until:
        step(discard)
    out = []
    for _ in range(windows):
        lat: list[float] = []
        begin()
        t0, c0 = pc(), time.process_time()
        now, until, ref_s = t0, t0 + window_s, 0.0
        while now < until:
            spent = ref.tick(now)
            ref_s += spent
            until += spent
            step(lat)
            now = pc()
        cpu_s = time.process_time() - c0 - ref_s
        end()
        slowdown = ref.slowdown(t0, now)
        out.append(
            window_metrics(
                {"lat": lat, "seconds": now - t0 - ref_s, "cpu_s": cpu_s,
                 "cpu_k": slowdown, "wall_k": slowdown},
                limit_us,
            )
        )
        del lat
    return out


def arrival_offsets(
    seed: int, windows: int, window_s: float, warmup_s: float,
    burst_rate: float, burst_share: float, idle_rate: float,
) -> list[tuple[float, int]]:
    """``(offset, window)`` per arrival; warm-up arrivals are window -1.

    A phase of length ``T`` at ``rate`` gets exactly ``round(rate * T)``
    arrivals, the k-th at a seeded uniform point of the k-th ``1/rate``
    slot.  The seed moves *when* calls arrive, never how many and never
    by more than a slot, so two seeds offer the same load: an overloaded
    phase's backlog is its arrivals minus capacity, and with Poisson
    arrivals a 2 % swing in the count was a 7 % swing in the backlog.
    """
    rng = random.Random(seed)
    burst_s = burst_share * window_s
    out: list[tuple[float, int]] = []

    def phase(start: float, length: float, rate: float, window: int) -> None:
        count = round(rate * length)
        slot = length / count
        out.extend((start + (k + rng.random()) * slot, window) for k in range(count))

    phase(0.0, warmup_s, idle_rate, -1)
    for w in range(windows):
        start = warmup_s + w * window_s
        phase(start, burst_s, burst_rate, w)
        phase(start + burst_s, window_s - burst_s, idle_rate, w)
    return out


def open_loop(
    stub: Any, source: Any, tracer: Any, ref: Reference,
    arrivals: list[tuple[float, int]],
    windows: int, window_s: float, warmup_s: float, burst_s: float,
    on_start: Callable[[], None], limit_us: float,
) -> tuple[list[dict], list[float], int]:
    """Send call ``i`` at its due time; returns each window's
    :func:`window_metrics` (a call belongs to the window it was due
    in), how late each send was (seconds), and the most calls in flight
    at once.

    Every call due in a window also completes in it, so the rate
    delivered over a window is the rate offered.  A window's ``served``
    is therefore counted over its over-capacity phase alone: the replies
    that arrived during the first ``burst_s`` seconds, which is the rate
    the system drains a backlog at.

    Sleeping workers set these latencies, not the CPU, so only the CPU
    time is put at reference speed; passes run in idle gaps."""
    method, nxt = source.method, source.next
    done: list[tuple[int, float]] = []
    flights: list[tuple[tuple, Any, float, int]] = []
    late: list[float] = []
    cpu_marks: list[float] = []
    ref_s = [0.0] * windows  # reference passes inside each window's CPU interval
    inflight_hwm = 0
    start = pc()
    for i, (offset, window) in enumerate(arrivals):
        due = start + offset
        now = pc()
        if cpu_marks and due - now > REF_ROOM_S:
            ref_s[len(cpu_marks) - 1] += ref.tick(now)
            now = pc()
        if due > now:
            time.sleep(due - now)
            now = pc()
        if window >= len(cpu_marks):
            if not cpu_marks:
                on_start()
            cpu_marks.append(time.process_time())
        if window >= 0:
            late.append(now - due)
        args = nxt()
        frame = None if tracer is None else tracer.begin_root()
        try:
            future = stub.invoke_async(method, *args)
        except Exception:
            future = None
        if frame is not None:
            tracer.leave_root()
        if future is not None:
            future.add_done_callback(
                lambda _f, i=i, frame=frame, due=due: _arrived(done, tracer, i, frame, due)
            )
        flights.append((args, future, due, window))
        inflight_hwm = max(inflight_hwm, i + 1 - len(done))
    end = start + warmup_s + windows * window_s
    _sleep_until(end)
    cpu_marks.append(time.process_time())
    for _, future, _, _ in flights:
        if future is not None:
            future.wait(max(0.0, end + DRAIN_S - pc()))
    finished = dict(done)
    first = start + warmup_s
    out = [
        {
            "lat": [], "seconds": window_s, "served": 0, "served_s": burst_s,
            "cpu_s": cpu_marks[w + 1] - cpu_marks[w] - ref_s[w],
            "cpu_k": ref.slowdown(first + w * window_s, first + (w + 1) * window_s),
            "wall_k": 1.0,
        }
        for w in range(windows)
    ]
    for i, (args, future, due, window) in enumerate(flights):
        if window < 0:
            continue
        ok = False
        if future is not None and i in finished and future.exception() is None:
            ok = source.check(args, future.result())
        out[window]["lat"].append(finished[i] - due if ok else -1.0)
        if ok and finished[i] < first + window * window_s + burst_s:
            out[window]["served"] += 1
    return [window_metrics(w, limit_us) for w in out], late, inflight_hwm


def _arrived(done: list, tracer: Any, i: int, frame: Any, due: float) -> None:
    now = pc()
    done.append((i, now))
    if frame is not None:
        tracer.end_root(frame, due, now)


def churn(
    pool: Any, agent: Any, watch: GrowWatch, stop: threading.Event,
    period_s: float, hold_s: float, limit: int | None = None,
) -> None:
    """grow(1) at ``t``, shrink(1) at ``t + hold_s``, every ``period_s``.

    The load thread notes when the new member first serves a call; one
    sentinel tick follows every shrink, as a runtime whose monitoring
    cadence matched the churn would run it."""
    base = pc()
    k = 0
    while not stop.is_set() and k != limit:
        _sleep_until(base + k * period_s)
        watch.grow()
        _sleep_until(base + k * period_s + hold_s)
        watch.member = None  # a grow that no call reached is not a sample
        pool.shrink(1)
        agent.tick()
        k += 1


def _sleep_until(when: float) -> None:
    delay = when - pc()
    if delay > 0:
        time.sleep(delay)


def grow_probe(
    runtime: Any, pool: Any, agent: Any, watch: GrowWatch,
    step: Callable[[list[float]], None], ref: Reference, cycles: int,
) -> list[float]:
    """``cycles`` times: grow(1), issue the workload's own call until the
    new member has served one, shrink(1), one sentinel tick.

    The caller stops before the shrink and waits for the slice to be
    back with the master, so no call races a dispatcher being torn down
    (see ``rmi.transport.threaded_cancel_leaks`` for what happens when
    one does).  Returns the latencies of the calls it issued."""
    master = runtime.master
    free = master.free_slice_count()
    lat: list[float] = []
    for _ in range(cycles):
        ref.tick(pc())
        watch.grow()
        deadline = pc() + WAIT_S
        while watch.member is not None:
            step(lat)
            if pc() > deadline:
                raise RuntimeError("no new member served a call after grow(1)")
        pool.shrink(1)
        agent.tick()
        while master.free_slice_count() != free:
            if pc() > deadline:
                raise RuntimeError("a drained slice never returned to the master")
            time.sleep(0.0001)
    return lat


def wait_active(pool: Any, size: int) -> None:
    """Block until ``size`` members are ACTIVE (activation runs on timer
    threads even with the instant provisioner)."""
    deadline = pc() + WAIT_S
    while sum(m.state is MemberState.ACTIVE for m in list(pool.members.values())) < size:
        if pc() > deadline:
            raise RuntimeError(f"pool never reached {size} active members")
        time.sleep(0.0005)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of a sorted, non-empty list."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def window_metrics(window: dict, limit_us: float) -> dict:
    """The per-window values every end-to-end timing metric is the
    median of, at reference machine speed: ``wall_k`` is the slowdown
    that applies to latency and throughput, ``cpu_k`` to CPU time."""
    lat = window["lat"]
    ok = sorted(x for x in lat if x >= 0.0)
    attempted = len(lat)
    wall_k, cpu_k = window["wall_k"], window["cpu_k"]
    limit_s = limit_us / 1e6 * wall_k
    rate = (
        window["served"] / window["served_s"] if "served" in window
        else len(ok) / window["seconds"]
    )
    p50_us = percentile(ok, 50) * 1e6 if ok else 0.0
    return {
        "attempted": attempted,
        "failed": attempted - len(ok),
        "samples": len(ok),
        "slowdown": cpu_k,
        "raw_calls_per_s": rate,
        "raw_p50_us": p50_us,
        "calls_per_s": rate * wall_k,
        "call_p50_us": p50_us / wall_k,
        "call_p95_us": percentile(ok, 95) * 1e6 / wall_k if ok else 0.0,
        "cpu_us_per_call": window["cpu_s"] / len(ok) * 1e6 / cpu_k if ok else 0.0,
        "within_limit_frac": (
            sum(1 for x in ok if x <= limit_s) / attempted if attempted else 0.0
        ),
    }


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)
