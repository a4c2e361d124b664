"""The seven workloads: the benchmark's elastic classes, seeded inputs, checks.

A *source* generates one workload's inputs from the seed and decides
whether each reply is correct, so the object that made the input is the
one that judges the output.  The runtime under test only ever receives
the generated calls.  ``BENCHMARK.json`` records why each workload
exists; this module fixes its sizes and its latency limit.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.apps.dcs.service import CoordinationService
from repro.core.api import ElasticObject
from repro.rmi.aio import blocking

# overload_surge: every window offers BURST_RATE for its first third,
# then IDLE_RATE.  Eight offload workers sleeping SERVICE_S each serve
# about 1.75 k calls/s, so the burst builds a backlog and the idle phase
# drains it before the next window starts.
SERVICE_S = 0.004
BURST_RATE = 2500.0
BURST_SHARE = 1.0 / 3.0
IDLE_RATE = 500.0


class BenchService(ElasticObject):
    """Pool member for the five workloads that are not the coordination
    service: the handler does nothing, so the middleware does all the work."""

    def __init__(self) -> None:
        super().__init__()
        self.set_min_pool_size(2)
        self.set_max_pool_size(32)

    def echo(self, value: Any) -> Any:
        return value

    def who(self) -> int:
        """The uid of the member that served the call."""
        return self._ermi_ctx.member.uid

    @blocking
    def work(self, value: Any) -> Any:
        """A handler that holds an offload worker (overload_surge)."""
        time.sleep(SERVICE_S)
        return value


class Source:
    """What every source shares: nothing to preload, nothing to check
    after the run.  ``next`` gives a call's arguments, ``check`` judges
    its reply, ``verify`` returns (checked, wrong) end-of-run checks."""

    def prepare(self, stub: Any) -> None:
        pass

    def verify(self, stub: Any, pool: Any) -> tuple[int, int]:
        return 0, 0


class EchoSource(Source):
    """``echo(b)`` with 16 random bytes: immutable, so it rides zero-copy."""

    method = "echo"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self._values = [(rng.randbytes(16),) for _ in range(1024)]
        self._i = 0

    def next(self) -> tuple:
        self._i += 1
        return self._values[self._i & 1023]

    def check(self, args: tuple, reply: Any) -> bool:
        return reply == args[0]


class PayloadSource(Source):
    """``echo(orders)`` with a by-value list of 700 order-like dicts.

    Mutable, so argument and result are pickled in both directions
    (about 35 KB each way); every reply is compared with its argument.
    """

    method = "echo"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self._payloads = [(self._orders(rng),) for _ in range(8)]
        self._i = 0

    @staticmethod
    def _orders(rng: random.Random) -> list[dict]:
        return [
            {
                "id": rng.randrange(10**9),
                "symbol": rng.choice(("IBM", "AAPL", "MSFT", "ORCL", "SAP")),
                "side": rng.choice("BS"),
                "qty": rng.randrange(1, 10_000),
                "price": round(rng.uniform(1.0, 900.0), 2),
                "account": f"acct-{rng.randrange(10_000):05d}",
            }
            for _ in range(700)
        ]

    def next(self) -> tuple:
        self._i += 1
        return self._payloads[self._i & 7]

    def check(self, args: tuple, reply: Any) -> bool:
        return reply == args[0]


class DcsSource(Source):
    """1 024 znodes under 32 parents; uniform seeded key choice.

    ``read`` issues ``get(path)`` and checks the data and that the
    version of a path never goes back.  ``write`` issues
    ``set_data(path, data)`` and checks that zxids only rise; after the
    run every written path is read back and must hold the last data
    written and a version equal to the number of acknowledged writes.
    """

    def __init__(self, seed: int, write: bool) -> None:
        rng = random.Random(seed)
        self.method = "set_data" if write else "get"
        self._write = write
        self._paths = [f"/p{i // 32:02d}/n{i % 32:02d}" for i in range(1024)]
        self._order = [rng.randrange(1024) for _ in range(1 << 16)]
        self._data = {path: f"{seed}:0" for path in self._paths}
        self._version = dict.fromkeys(self._paths, 0)
        self._zxid = 0
        self._i = 0

    def prepare(self, stub: Any) -> None:
        for i in range(32):
            stub.create(f"/p{i:02d}")
        for path in self._paths:
            self._zxid = stub.create(path, self._data[path])

    def next(self) -> tuple:
        self._i += 1
        path = self._paths[self._order[self._i & 0xFFFF]]
        if self._write:
            return (path, f"{self._i}")
        return (path,)

    def check(self, args: tuple, reply: Any) -> bool:
        path = args[0]
        if self._write:
            if reply <= self._zxid:
                return False
            self._zxid = reply
            self._data[path] = args[1]
            self._version[path] += 1
            return True
        if reply["data"] != self._data[path] or reply["version"] < self._version[path]:
            return False
        self._version[path] = reply["version"]
        return True

    def verify(self, stub: Any, pool: Any) -> tuple[int, int]:
        if not self._write:
            return 0, 0
        wrong = 0
        for path in self._paths:
            record = stub.get(path)
            if (
                record["data"] != self._data[path]
                or record["version"] != self._version[path]
            ):
                wrong += 1
        return len(self._paths), wrong


class WhoSource(Source):
    """``who()``: the reply names the member that served the call."""

    method = "who"

    def __init__(self, seed: int) -> None:
        self.seen: set[int] = set()

    def next(self) -> tuple:
        return ()

    def check(self, args: tuple, reply: Any) -> bool:
        self.seen.add(reply)
        return type(reply) is int

    def verify(self, stub: Any, pool: Any) -> tuple[int, int]:
        """Every uid that answered belonged to a member that was ACTIVE
        at some point of the run."""
        ever_active = {
            uid for uid, m in pool.members.items() if m.active_at is not None
        }
        return len(self.seen), len(self.seen - ever_active)


class WorkSource(Source):
    """``work(i)``: a 4 ms blocking handler echoing a seeded integer."""

    method = "work"

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def next(self) -> tuple:
        return (self._rng.randrange(1 << 30),)

    def check(self, args: tuple, reply: Any) -> bool:
        return reply == args[0]


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str  # "threaded" | "asyncio"
    batch: int  # RequestBatcher max_batch; 0 = no batcher
    service: type
    methods: tuple[str, ...]  # handler methods the traced run times
    pool_size: int
    loop: str  # "closed" | "waves" | "open"
    wave: int  # calls issued before the caller gathers (closed loop: 1)
    limit_us: float  # fixed latency limit, about 4x the seed call_p95_us
    source: Callable[[int], Any]
    churn: bool = False  # grow/shrink on a fixed schedule under the load


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "echo_sync", "threaded", 0, BenchService, ("echo",), 4,
            "closed", 1, 250.0, EchoSource,
        ),
        Workload(
            "payload_struct", "threaded", 0, BenchService, ("echo",), 4,
            "closed", 1, 5000.0, PayloadSource,
        ),
        Workload(
            "pipeline_async", "asyncio", 32, BenchService, ("echo",), 4,
            "waves", 64, 7000.0, EchoSource,
        ),
        Workload(
            "dcs_read", "threaded", 0, CoordinationService, ("get",), 4,
            "closed", 1, 300.0, lambda seed: DcsSource(seed, write=False),
        ),
        Workload(
            "dcs_write", "threaded", 0, CoordinationService, ("set_data",), 4,
            "closed", 1, 450.0, lambda seed: DcsSource(seed, write=True),
        ),
        Workload(
            "resize_churn", "asyncio", 32, BenchService, ("who",), 4,
            "waves", 16, 4000.0, WhoSource, churn=True,
        ),
        Workload(
            "overload_surge", "asyncio", 0, BenchService, ("work",), 2,
            "open", 4, 50_000.0, WorkSource,
        ),
    )
}
