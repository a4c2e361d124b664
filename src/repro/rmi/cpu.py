"""Multi-core skeleton execution: a process pool for ``@cpu_bound`` methods.

The GIL caps every in-process transport at one core of Python compute,
no matter how many dispatch threads :class:`~repro.rmi.transport.
ThreadedTransport` runs or how many calls :class:`~repro.rmi.aio.
AsyncioTransport` keeps in flight — threads help only while a handler is
*blocked*, not while it is *computing*.  The paper's skeletons are whole
JVM processes and scale across cores for free; this module restores that
property for the in-process reproduction.

Mark a method with :func:`cpu_bound` and the owning skeleton dispatches
it onto a :class:`CpuExecutor` — a small pool of worker *processes*
(``workers``, default ``cpu_count() - 1``) owned by the
transport.  Three design points matter:

- **zero-copy payloads** — arguments and results are pickled with
  protocol-5 out-of-band buffers (:func:`~repro.rmi.fastpath.dumps_oob`)
  and large ``bytes``/``bytearray`` payloads cross the process boundary
  through one :class:`multiprocessing.shared_memory.SharedMemory`
  segment per message instead of being copied through a pipe.  Payloads
  below ``shm_min`` (``DEFAULT_SHM_MIN``, 256 KiB) ride the pipe inline,
  where a segment's setup cost would dominate.
- **per-call crash containment** — a worker dying mid-call fails *that
  call* with :class:`~repro.errors.CpuWorkerLostError` (a
  :class:`~repro.errors.ConnectError`, so the client's retry machinery
  charges one attempt and retries), the worker is respawned, and every
  other in-flight call is untouched.  This is exactly why the pool is
  hand-rolled: :class:`concurrent.futures.ProcessPoolExecutor` shares
  one call queue across workers and declares the whole pool broken when
  any worker dies, nuking unrelated in-flight calls.
- **pass-by-value is preserved** — the implementation object's state is
  snapshotted per call and rebuilt in the worker, so a ``@cpu_bound``
  method sees a copy and its mutations do not persist (document this:
  cpu-bound methods should be pure compute).  Out-of-band buffers
  reconstruct as owned ``bytes``/``bytearray`` copies, never as views
  into the shared segment.

Shared-memory hygiene (POSIX): ``SharedMemory`` registers every segment
with the ``resource_tracker`` on both create *and* attach.  The protocol
here keeps the tracker's cache balanced — the creator unregisters
immediately after creating (the receiver owns cleanup), the receiver's
``unlink`` unregisters, and crash-path cleanup always attaches before
unlinking.  Segments are named ``ermi-cpu-p<pid>-*`` (parent-created
requests) and ``ermi-cpu-w<pid>-*`` (worker-created results) so orphans
from a killed worker can be swept from ``/dev/shm`` by prefix on
respawn.
"""

from __future__ import annotations

import atexit
import itertools
import os
import queue
import threading
import time
import weakref
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import CpuWorkerLostError, MarshalError, RemoteError
from repro.rmi.fastpath import dumps_oob, loads_oob

if TYPE_CHECKING:  # imported with the first executor
    from concurrent.futures import Future

DEFAULT_SHM_MIN = 256 * 1024
_SEGMENT_PREFIX = "ermi-cpu"
_SHM_DIR = "/dev/shm"


def cpu_bound(fn: Callable) -> Callable:
    """Mark a remote method as CPU-bound compute.

    Skeletons dispatch marked methods onto the transport's
    :class:`CpuExecutor` (when it has one — :class:`~repro.rmi.
    transport.DirectTransport` stays inline for determinism).  The
    method runs against a per-call *snapshot* of the implementation
    object, so it must not rely on mutating ``self``; its class must be
    importable (module-level) in the worker process.
    """
    fn.__ermi_cpu_bound__ = True
    return fn


# ----------------------------------------------------------------------
# payload packing: pickle body + buffers via shared memory or inline
# ----------------------------------------------------------------------
#
# Wire spec (both directions over the worker pipe):
#     (body, inline, shm)
# where exactly one of ``inline`` / ``shm`` is set when out-of-band
# buffers exist:  ``inline`` is a list of raw buffer bytes;  ``shm`` is
# ``(segment_name, [(offset, length), ...])`` describing one packed
# segment holding every buffer.  Writability does not need to travel:
# the _OobBuffer reconstructor copies through ``bytes``/``bytearray``
# factories recorded in the pickle body itself.


def _unregister_created(shm: Any) -> None:
    # The creator registered the segment in __init__; hand ownership to
    # the receiver by cancelling that registration (uses the private
    # slash-prefixed name the stdlib registered under).
    from multiprocessing import resource_tracker

    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _pack_payload(
    value: Any, shm_min: int, name_prefix: str, seq: "itertools.count"
) -> "tuple[tuple, str | None]":
    """Serialize ``value`` for the pipe; returns ``(spec, segment_name)``.

    ``segment_name`` (when not None) names a shared-memory segment the
    *receiver* must unlink; the sender keeps it only for crash cleanup.
    """
    body, buffers = dumps_oob(value, shm_min if shm_min > 0 else 1)
    if not buffers:
        return (body, None, None), None
    raws = [b.raw() for b in buffers]
    total = sum(r.nbytes for r in raws)
    segment = None
    if total >= shm_min:
        segment = _create_segment(total, name_prefix, seq)
    if segment is None:
        # No shared memory available (or payload under the crossover):
        # copy the buffers through the pipe.
        spec = (body, [bytes(r) for r in raws], None)
        for r in raws:
            r.release()
        return spec, None
    layout = []
    offset = 0
    try:
        for r in raws:
            segment.buf[offset : offset + r.nbytes] = r
            layout.append((offset, r.nbytes))
            offset += r.nbytes
    finally:
        for r in raws:
            r.release()
    name = segment.name
    segment.close()
    return (body, None, (name, layout)), name


def _create_segment(size: int, name_prefix: str, seq: "itertools.count"):
    try:
        from multiprocessing import shared_memory
    except ImportError:
        return None
    for _ in range(16):  # name collisions: stale segments from old runs
        name = f"{name_prefix}-{next(seq)}"
        try:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=max(1, size)
            )
        except FileExistsError:
            continue
        except OSError:
            return None
        _unregister_created(segment)
        return segment
    return None


def _unpack_payload(spec: "tuple") -> Any:
    """Inverse of :func:`_pack_payload`; unlinks the segment if any."""
    body, inline, shm_descr = spec
    if shm_descr is None:
        return loads_oob(body, inline)
    from multiprocessing import shared_memory

    name, layout = shm_descr
    segment = shared_memory.SharedMemory(name=name)
    views = []
    try:
        views = [
            segment.buf[offset : offset + length] for offset, length in layout
        ]
        return loads_oob(body, views)
    finally:
        for view in views:
            view.release()
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


def _unlink_segment(name: str) -> bool:
    """Best-effort removal of a segment by name (crash cleanup).

    Attach-then-unlink keeps the resource tracker's cache balanced: the
    attach registers, the unlink unregisters, and any stale registration
    left by a killed receiver is cancelled by the same unlink.
    """
    try:
        from multiprocessing import shared_memory
    except ImportError:
        return False
    try:
        segment = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return False
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    return True


def _sweep_segments(prefix: str) -> int:
    """Unlink every ``/dev/shm`` segment with ``prefix`` (orphans left
    by a killed worker); returns how many were removed."""
    removed = 0
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return 0
    for entry in entries:
        if entry.startswith(prefix) and _unlink_segment(entry):
            removed += 1
    return removed


def live_segments() -> "list[str]":
    """Names of every live ``ermi-cpu-*`` segment (leak checks)."""
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(_SEGMENT_PREFIX))


# ----------------------------------------------------------------------
# implementation snapshots
# ----------------------------------------------------------------------


def _snapshot_impl(impl: Any) -> "tuple[type, dict]":
    """``(class, state)`` shipped per call.

    Elastic wrappers hang unpicklable runtime context off ``_ermi*``
    attributes (contexts, locks, transports); those never travel.  The
    worker rebuilds with ``cls.__new__`` + ``__dict__.update``, skipping
    ``__init__`` the way pickle itself does.
    """
    state = {
        key: value
        for key, value in vars(impl).items()
        if not key.startswith("_ermi")
    }
    return type(impl), state


def _rebuild_impl(cls: type, state: dict) -> Any:
    impl = cls.__new__(cls)
    impl.__dict__.update(state)
    return impl


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------


def _worker_main(conn: Any, shm_min: int) -> None:
    """Worker loop: receive ``("call", job_id, spec)``, run, reply.

    Replies ``("ok"|"err", job_id, spec)``.  Result segments are named
    ``ermi-cpu-w<pid>-<seq>`` so the parent can sweep them if this
    process is killed before the parent reads the reply.
    """
    import signal

    # The parent's lifecycle owns this process; a Ctrl-C aimed at the
    # parent must not race its orderly shutdown.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    name_prefix = f"{_SEGMENT_PREFIX}-w{os.getpid()}"
    seq = itertools.count()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "exit":
            break
        _, job_id, spec = message
        try:
            cls, state, method_name, args, kwargs = _unpack_payload(spec)
            impl = _rebuild_impl(cls, state)
            result = getattr(impl, method_name)(*args, **kwargs)
            reply = ("ok", _pack_payload(result, shm_min, name_prefix, seq)[0])
        except BaseException as exc:  # noqa: BLE001 - must reach the parent
            try:
                packed = _pack_payload(exc, shm_min, name_prefix, seq)[0]
            except Exception:
                fallback = RemoteError(
                    f"cpu worker raised unmarshallable "
                    f"{type(exc).__name__}: {exc}"
                )
                packed = _pack_payload(fallback, shm_min, name_prefix, seq)[0]
            reply = ("err", packed)
        try:
            conn.send((reply[0], job_id, reply[1]))
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------

_live_executors: "weakref.WeakSet[CpuExecutor]" = weakref.WeakSet()


@atexit.register
def _shutdown_leftover_executors() -> None:
    for executor in list(_live_executors):
        executor.shutdown(wait=False)


class _Job:
    __slots__ = ("job_id", "spec", "future", "segment", "submitted_at")

    def __init__(self, job_id, spec, future, segment, submitted_at):
        self.job_id = job_id
        self.spec = spec
        self.future = future
        self.segment = segment
        self.submitted_at = submitted_at


class CpuExecutor:
    """A crash-contained pool of worker processes for cpu-bound calls.

    One manager thread per worker pulls jobs from a shared queue, ships
    them over that worker's pipe, and watches the pipe *and* the process
    sentinel together (:func:`multiprocessing.connection.wait`) so a
    worker death is detected the moment it happens, not at a timeout.
    """

    def __init__(
        self,
        workers: int | None = None,
        shm_min: int = DEFAULT_SHM_MIN,
        obs: Any = None,
        mp_context: Any = None,
    ) -> None:
        import multiprocessing
        from concurrent.futures import Future
        self._new_future = Future

        if workers is None:
            # cpu_count() - 1: one core is left for the dispatching parent
            # so marshalling and the event loop are not starved.
            try:
                cores = len(os.sched_getaffinity(0))
            except AttributeError:  # non-Linux
                cores = os.cpu_count() or 2
            workers = max(1, cores - 1)
        self.workers = workers
        if self.workers < 1:
            raise ValueError("CpuExecutor needs at least one worker")
        self.shm_min = shm_min
        if mp_context is None:
            # spawn, not fork: executors are created lazily from transports
            # that already run dispatch/offload/event-loop threads, and a
            # fork taken while any of those threads holds an interpreter or
            # allocator lock leaves the child deadlocked on the inherited
            # lock (observed in practice as workers frozen on a futex before
            # their first recv).  A spawned worker boots a fresh interpreter
            # and is immune; the ~100ms boot is paid once per worker (and
            # once per respawn after a crash), never per call.
            mp_context = multiprocessing.get_context("spawn")
        self._ctx = mp_context
        self._queue: "queue.SimpleQueue[_Job | None]" = queue.SimpleQueue()
        self._seq = itertools.count()
        self._segment_seq = itertools.count()
        self._segment_prefix = f"{_SEGMENT_PREFIX}-p{os.getpid()}"
        self._closed = False
        self._lock = threading.Lock()
        self._obs: Any = None
        self.respawns = 0
        self._threads: "list[threading.Thread]" = []
        self._procs: "list[Any]" = [None] * self.workers
        if obs is not None:
            self.set_obs(obs)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._manage,
                args=(index,),
                name=f"ermi-cpu-mgr-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        _live_executors.add(self)

    # -- observability --------------------------------------------------

    def set_obs(self, obs: Any) -> None:
        self._obs = obs
        if obs is not None:
            obs.registry.gauge("rmi.cpu.workers").set(float(self.workers))
            obs.registry.gauge("rmi.cpu.respawns").set(float(self.respawns))

    def _note_inflight(self, delta: int) -> None:
        obs = self._obs
        if obs is not None:
            obs.registry.gauge("rmi.cpu.inflight").add(float(delta))

    def _note_respawn(self) -> None:
        obs = self._obs
        if obs is not None:
            obs.registry.gauge("rmi.cpu.respawns").set(float(self.respawns))

    def _note_latency(self, seconds: float) -> None:
        obs = self._obs
        if obs is not None:
            obs.registry.histogram("rmi.cpu.dispatch_latency").observe(seconds)

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self, index: int) -> "tuple[Any, Any]":
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.shm_min),
            name=f"ermi-cpu-worker-{index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[index] = proc
        return proc, parent_conn

    def worker_pids(self) -> "list[int]":
        """Live worker pids (crash tests kill one of these)."""
        return [
            proc.pid
            for proc in self._procs
            if proc is not None and proc.is_alive()
        ]

    def _await_reply(self, proc: Any, conn: Any) -> "tuple":
        from multiprocessing import connection

        while True:
            ready = connection.wait([conn, proc.sentinel])
            if conn in ready:
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    raise _WorkerDied() from None
            if proc.sentinel in ready:
                # Sentinel fired with nothing buffered on the pipe: the
                # worker is gone mid-call.
                raise _WorkerDied()

    def _manage(self, index: int) -> None:
        proc, conn = self._spawn(index)
        while True:
            job = self._queue.get()
            if job is None:
                break
            if not job.future.set_running_or_notify_cancel():
                if job.segment is not None:
                    _unlink_segment(job.segment)
                continue
            self._note_inflight(1)
            try:
                try:
                    # send raises once the kernel notices the dead peer;
                    # treat it exactly like a death seen mid-wait.
                    conn.send(("call", job.job_id, job.spec))
                    kind, job_id, spec = self._await_reply(proc, conn)
                except (_WorkerDied, BrokenPipeError, OSError):
                    dead_pid = proc.pid
                    if job.segment is not None:
                        _unlink_segment(job.segment)
                    try:
                        conn.close()
                    except OSError:
                        pass
                    proc.join(timeout=5.0)
                    _sweep_segments(f"{_SEGMENT_PREFIX}-w{dead_pid}")
                    job.future.set_exception(
                        CpuWorkerLostError(
                            f"cpu worker {dead_pid} died executing the call"
                        )
                    )
                    with self._lock:
                        closed = self._closed
                        self.respawns += 1
                    self._note_respawn()
                    if closed:
                        break
                    proc, conn = self._spawn(index)
                    continue
                try:
                    value = _unpack_payload(spec)
                except Exception as exc:  # unmarshal failure is per-call
                    job.future.set_exception(exc)
                    continue
                self._note_latency(time.perf_counter() - job.submitted_at)
                if kind == "ok":
                    job.future.set_result(value)
                elif isinstance(value, BaseException):
                    job.future.set_exception(value)
                else:
                    job.future.set_exception(
                        RemoteError(f"cpu worker error reply: {value!r}")
                    )
            finally:
                self._note_inflight(-1)
        # orderly exit: release the worker
        self._stop_worker(proc, conn)

    def _stop_worker(self, proc: Any, conn: Any) -> None:
        try:
            conn.send(("exit",))
        except (BrokenPipeError, OSError):
            pass
        try:
            conn.close()
        except OSError:
            pass
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)

    # -- submission ------------------------------------------------------

    def submit_call(
        self, impl: Any, method_name: str, args: "tuple", kwargs: "dict"
    ) -> "Future":
        """Ship ``method_name(*args, **kwargs)`` against a snapshot of
        ``impl`` to a worker; returns a future."""
        with self._lock:
            if self._closed:
                raise RuntimeError("CpuExecutor is shut down")
            job_id = next(self._seq)
        cls, state = _snapshot_impl(impl)
        try:
            spec, segment = _pack_payload(
                (cls, state, method_name, args, kwargs),
                self.shm_min,
                self._segment_prefix,
                self._segment_seq,
            )
        except MarshalError:
            raise
        except Exception as exc:
            raise MarshalError(
                f"cannot marshal cpu-bound call {method_name!r}: {exc}"
            ) from exc
        future: "Future" = self._new_future()
        self._queue.put(
            _Job(job_id, spec, future, segment, time.perf_counter())
        )
        return future

    def run_call(
        self, impl: Any, method_name: str, args: "tuple", kwargs: "dict"
    ) -> Any:
        """Blocking form of :meth:`submit_call` (threaded dispatch path)."""
        return self.submit_call(impl, method_name, args, kwargs).result()

    # -- shutdown --------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop every worker; idempotent.

        Queued-but-unstarted jobs fail with :class:`CpuWorkerLostError`
        (their request segments are unlinked); in-flight jobs complete —
        each manager sees its sentinel only after finishing the job in
        hand.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout=30.0)
        # Anything still queued was behind the sentinels and will never
        # run (managers exit on their sentinel).
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is None:
                continue
            if job.segment is not None:
                _unlink_segment(job.segment)
            if job.future.set_running_or_notify_cancel():
                job.future.set_exception(
                    CpuWorkerLostError("CpuExecutor shut down")
                )
        _live_executors.discard(self)


class _WorkerDied(Exception):
    """Internal: the pipe/sentinel watch saw the worker exit."""
