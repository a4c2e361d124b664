"""Classic RMI substrate: registry, marshalling, stubs, and skeletons.

ElasticRMI layers elasticity *on top of* Java RMI's stub/skeleton
machinery; this package rebuilds that machinery in Python:

- :class:`Registry` — bind/lookup of names to remote references.
- :mod:`repro.rmi.marshal` — pass-by-value serialization of arguments and
  results (deep copies, like Java serialization), with remote references
  passing by reference.
- :class:`Endpoint` / transports — each pool member lives at an endpoint
  ("a JVM"); :class:`DirectTransport` delivers calls synchronously and
  deterministically (unit tests, simulation), :class:`ThreadedTransport`
  gives every endpoint a real dispatch thread (live examples), and
  :class:`AsyncioTransport` dispatches every endpoint on one shared
  event loop (high fan-out live mode: thousands of in-flight calls).
- :class:`Skeleton` — server-side dispatcher: per-method call statistics,
  drain state (reject-with-retry while shutting down) and redirect tables
  (the hooks ElasticRMI's sentinel drives for load balancing).
- :class:`Stub` — client-side dynamic proxy raising
  :class:`~repro.errors.RemoteError` subclasses.
- :class:`RmiFuture` / :class:`RequestBatcher` — the asynchronous
  surface: ``invoke_async`` futures, and the adaptive batcher that
  coalesces concurrent same-endpoint calls into single
  :class:`BatchRequest` wire messages.
"""

from repro.rmi.aio import AsyncioTransport, blocking
from repro.rmi.batching import BatcherStats, RequestBatcher
from repro.rmi.cpu import CpuExecutor, cpu_bound
from repro.rmi.fastpath import (
    FastPayload,
    is_immutable,
    is_zero_copy,
    marshal_call,
    marshal_result,
    register_immutable,
    unmarshal_call,
    unmarshal_result,
)
from repro.rmi.future import InvocationTimeout, RmiFuture, gather
from repro.rmi.marshal import marshal_value, unmarshal_value
from repro.rmi.registry import Registry
from repro.rmi.remote import (
    CallStats,
    MethodStats,
    Remote,
    RemoteRef,
    Skeleton,
    Stub,
)
from repro.rmi.transport import (
    BatchRequest,
    BatchResponse,
    DirectTransport,
    Endpoint,
    ThreadedTransport,
    Transport,
)

__all__ = [
    "AsyncioTransport",
    "BatchRequest",
    "BatchResponse",
    "BatcherStats",
    "CallStats",
    "CpuExecutor",
    "DirectTransport",
    "Endpoint",
    "FastPayload",
    "InvocationTimeout",
    "MethodStats",
    "Registry",
    "Remote",
    "RemoteRef",
    "RequestBatcher",
    "RmiFuture",
    "Skeleton",
    "Stub",
    "ThreadedTransport",
    "Transport",
    "blocking",
    "cpu_bound",
    "gather",
    "is_immutable",
    "is_zero_copy",
    "marshal_call",
    "marshal_result",
    "marshal_value",
    "register_immutable",
    "unmarshal_call",
    "unmarshal_result",
    "unmarshal_value",
]
