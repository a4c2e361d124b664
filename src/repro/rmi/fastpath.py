"""Zero-copy marshalling fast path.

:mod:`repro.rmi.marshal` reproduces Java-RMI pass-by-value with a pickle
round-trip on both ends of every call.  That copy exists to stop
mutations leaking between caller and callee — but a payload that is
*provably immutable* cannot be mutated by anyone, so sharing the object
itself preserves pass-by-value semantics exactly while skipping four
pickle operations per call (marshal/unmarshal of the arguments, then of
the result).

Provably-immutable payloads always travel as :class:`FastPayload`
wrappers holding the live object; everything else is pickled by
:mod:`repro.rmi.marshal`, which the tests keep as the pass-by-value
reference.

What counts as provably immutable: ``str``, ``int``, ``float``,
``bool``, ``bytes``, ``complex``, ``None``, and ``tuple``/``frozenset``
of immutables — *exact* types only, since a subclass may add mutable
state.  Frozen value types (e.g. :class:`~repro.rmi.remote.RemoteRef`)
opt in via :func:`register_immutable`; a RemoteRef in an argument list
thereby still passes by reference, as remote objects do in Java RMI.

Error behaviour is unchanged: the pickled fallback raises
:class:`MarshalError`/:class:`UnmarshalError` exactly as before, and
exceptions (mutable) always take the pickled path.
"""

from __future__ import annotations

from typing import Any

from repro.rmi.marshal import marshal_value, unmarshal_value

_SCALAR_TYPES = frozenset(
    {str, int, float, bool, bytes, complex, type(None)}
)
_registered_immutable: set[type] = set()


def register_immutable(cls: type) -> type:
    """Declare a frozen value type safe to pass by reference.

    The caller vouches that instances are deeply immutable (all fields
    immutable, no mutable __dict__ use).  Returns ``cls`` so it can be
    used as a decorator.
    """
    _registered_immutable.add(cls)
    return cls


def is_immutable(value: Any) -> bool:
    """True when ``value`` is provably deeply immutable.

    Exact-type checks on purpose: a ``str`` subclass can carry mutable
    attributes, so only the builtin types themselves qualify.  Iterative
    (worklist) rather than recursive — this runs on every invocation, so
    per-element cost is kept to one type lookup.
    """
    scalars = _SCALAR_TYPES
    registered = _registered_immutable
    t = type(value)
    if t in scalars or t in registered:
        return True
    if t is not tuple and t is not frozenset:
        return False
    stack = [value]
    while stack:
        for item in stack.pop():
            ti = type(item)
            if ti in scalars or ti in registered:
                continue
            if ti is tuple or ti is frozenset:
                stack.append(item)
                continue
            return False
    return True


class FastPayload:
    """An immutable payload passed by reference (zero-copy).

    Wrapping (rather than passing the raw object) keeps the wire
    contract unambiguous: transports and skeletons can tell a fast-path
    payload from pickled ``bytes`` without guessing.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"FastPayload({self.value!r})"


# Wire payloads are pickled bytes or a zero-copy wrapper.
Payload = "bytes | FastPayload"


def is_zero_copy(payload: Any) -> bool:
    """True when a wire payload rides the zero-copy fast path.

    The request batcher (and its tests) use this to assert passthrough:
    entries coalesced into a batch must carry the very payload object
    the stub marshalled — batching never re-wraps, re-pickles, or copies
    a :class:`FastPayload`.
    """
    return type(payload) is FastPayload


def _call_is_fast(args: tuple, kwargs: dict) -> bool:
    # The args tuple is shared as-is (immutable elements make that safe);
    # kwargs values must be immutable too — the dict itself is copied on
    # the receiving side before the callee sees it.  Inlined scan over
    # the top level: the overwhelmingly common all-scalar argument list
    # must not pay a recursive call per element.
    scalars = _SCALAR_TYPES
    registered = _registered_immutable
    for item in args:
        t = type(item)
        if t in scalars or t in registered:
            continue
        if (t is tuple or t is frozenset) and is_immutable(item):
            continue
        return False
    if kwargs:
        for item in kwargs.values():
            t = type(item)
            if t in scalars or t in registered:
                continue
            if (t is tuple or t is frozenset) and is_immutable(item):
                continue
            return False
    return True


def marshal_call(args: tuple, kwargs: dict) -> Any:
    """Marshal an invocation's ``(args, kwargs)`` for the wire."""
    if _call_is_fast(args, kwargs):
        return FastPayload((args, kwargs))
    return marshal_value((args, kwargs))


def unmarshal_call(payload: Any) -> tuple[tuple, dict]:
    """Recover ``(args, kwargs)`` on the server side."""
    if type(payload) is FastPayload:
        args, kwargs = payload.value
        # Fresh dict per delivery: a redirected/retried request must not
        # let one callee's **kwargs view alias another's.
        return args, dict(kwargs)
    return unmarshal_value(payload)


def marshal_result(value: Any) -> Any:
    """Marshal a return value (or exception) for the reply."""
    if is_immutable(value):
        return FastPayload(value)
    return marshal_value(value)


def marshal_error(exc: BaseException) -> Any:
    """Marshal an exception for an ``error`` reply, never failing.

    An application exception that is itself unpicklable (it captured a
    lock, a socket, a thread) must not escape the skeleton as a raw
    :class:`MarshalError` — that would turn an application failure into
    what looks like a transport failure and feed the client's retry
    loop a call that will fail identically everywhere.  Fall back to a
    picklable :class:`RemoteError` describing the original.
    """
    from repro.errors import MarshalError, RemoteError

    try:
        return marshal_result(exc)
    except MarshalError:
        fallback = RemoteError(
            f"remote raised unmarshallable {type(exc).__name__}: {exc}"
        )
        return marshal_result(fallback)


def unmarshal_result(payload: Any) -> Any:
    """Recover the return value on the client side."""
    if type(payload) is FastPayload:
        return payload.value
    return unmarshal_value(payload)


# ----------------------------------------------------------------------
# protocol-5 out-of-band buffers (the cross-process zero-copy path)
# ----------------------------------------------------------------------
#
# pickle protocol 5 only emits *PickleBuffer* objects out-of-band — a
# plain ``bytes``/``bytearray`` still serializes in-band even when a
# ``buffer_callback`` is supplied.  :func:`dumps_oob` therefore
# *promotes* large byte payloads to PickleBuffer wrappers first (a
# shallow walk over the common container shapes), so their storage is
# handed to the caller as raw buffer views instead of being copied into
# the pickle body.  :mod:`repro.rmi.cpu` packs those views into one
# shared-memory segment per message; the receiving process maps the
# segment and feeds slices back to :func:`loads_oob`.
#
# Semantics are preserved either way: promotion wraps the payload in
# :class:`_OobBuffer`, whose reconstructor (``bytes``/``bytearray``)
# copies out of whatever buffer the unpickler is handed — a bare
# PickleBuffer would reconstruct as a *memoryview over the supplied
# buffer*, pinning the shared-memory segment for the value's lifetime
# and leaking a view of someone else's storage into the handler.  The
# one copy-out restores pass-by-value exactly, and pickling a promoted
# payload *without* a buffer callback falls back to in-band data with
# the same reconstruction.

# Containers are walked at most this deep when hunting for promotable
# byte payloads; anything deeper rides in-band (correct, just copied).
_OOB_WALK_DEPTH = 3


class _OobBuffer:
    """A byte payload marked for out-of-band transfer.

    Reduces to ``factory(<buffer>)``: under a ``buffer_callback`` the
    inner :class:`pickle.PickleBuffer` travels out-of-band and the
    factory copies the receiver-side view into an owned ``bytes`` /
    ``bytearray``; without one, pickle inlines the data and the factory
    is a cheap no-op copy.  Either way the caller may release the
    backing buffer the moment ``loads`` returns.
    """

    __slots__ = ("buffer", "factory")

    def __init__(self, data: Any, factory: type) -> None:
        import pickle

        self.buffer = pickle.PickleBuffer(data)
        self.factory = factory

    def __reduce_ex__(self, protocol: int) -> Any:
        return (self.factory, (self.buffer,))


def _promote_buffers(value: Any, min_bytes: int, depth: int) -> Any:
    """Rebuild ``value`` with large byte payloads wrapped for out-of-band
    transfer; returns ``value`` itself when nothing qualified."""
    t = type(value)
    if t is bytes or t is bytearray:
        if len(value) >= min_bytes:
            return _OobBuffer(value, t)
        return value
    if depth <= 0:
        return value
    if t is tuple or t is list:
        promoted = [
            _promote_buffers(item, min_bytes, depth - 1) for item in value
        ]
        if all(new is old for new, old in zip(promoted, value)):
            return value
        return t(promoted)
    if t is dict:
        promoted_dict = {
            key: _promote_buffers(item, min_bytes, depth - 1)
            for key, item in value.items()
        }
        if all(
            promoted_dict[key] is item for key, item in value.items()
        ):
            return value
        return promoted_dict
    return value


def dumps_oob(value: Any, min_bytes: int) -> "tuple[bytes, list]":
    """Pickle ``value`` with large byte payloads split out-of-band.

    Returns ``(body, buffers)`` where ``buffers`` is the list of
    :class:`pickle.PickleBuffer` views (in stream order) that
    :func:`loads_oob` must be handed back.  ``bytes``/``bytearray``
    payloads of at least ``min_bytes`` are promoted; everything else
    rides in the body.  Raises :class:`MarshalError` like
    :func:`~repro.rmi.marshal.marshal_value`.
    """
    import pickle

    from repro.errors import MarshalError

    buffers: list = []
    try:
        body = pickle.dumps(
            _promote_buffers(value, min_bytes, _OOB_WALK_DEPTH),
            protocol=5,
            buffer_callback=buffers.append,
        )
    except Exception as exc:
        raise MarshalError(
            f"cannot marshal {type(value).__name__}: {exc}"
        ) from exc
    return body, buffers


def loads_oob(body: bytes, buffers: "list | None") -> Any:
    """Inverse of :func:`dumps_oob`; ``buffers`` may hold any
    buffer-likes (bytes, memoryviews over shared memory, ...)."""
    import pickle

    from repro.errors import UnmarshalError

    try:
        return pickle.loads(body, buffers=buffers or ())
    except Exception as exc:
        raise UnmarshalError(f"cannot unmarshal payload: {exc}") from exc
