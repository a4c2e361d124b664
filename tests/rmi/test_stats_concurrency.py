"""Thread-safety of call statistics and stub bookkeeping."""

import sys
import threading
import time

from repro.rmi.fastpath import marshal_call
from repro.rmi.remote import CallStats, MethodStats, Remote, Skeleton
from repro.rmi.transport import DirectTransport, Request


class TestCallStatsConcurrency:
    def test_concurrent_records_are_all_counted(self):
        stats = CallStats()

        def hammer(method):
            for _ in range(500):
                stats.record(method, 0.001)

        threads = [
            threading.Thread(target=hammer, args=(f"m{i % 3}",))
            for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snapshot = stats.snapshot()
        assert sum(s.calls for s in snapshot.values()) == 3000
        assert set(snapshot) == {"m0", "m1", "m2"}

    def test_snapshot_and_reset_never_loses_or_doubles_records(self):
        """Every record lands in exactly one window, even while windows
        roll concurrently with the writers."""
        stats = CallStats()
        per_thread = 2000

        def writer():
            for _ in range(per_thread):
                stats.record("op", 0.0)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        collected = 0
        while any(t.is_alive() for t in threads):
            window = stats.snapshot_and_reset()
            collected += sum(s.calls for s in window.values())
        for t in threads:
            t.join()
        final = stats.snapshot_and_reset()
        collected += sum(s.calls for s in final.values())
        assert collected == 4 * per_thread

    def test_error_and_latency_accumulation(self):
        stats = CallStats()
        stats.record("op", 0.1)
        stats.record("op", 0.3, error=True)
        window = stats.snapshot()["op"]
        assert window.calls == 2
        assert window.errors == 1
        assert window.latency() == 0.2


class TestMethodStats:
    def test_latency_of_idle_method_is_zero(self):
        assert MethodStats().latency() == 0.0

    def test_mean_latency(self):
        stats = MethodStats(calls=4, total_latency=1.0)
        assert stats.latency() == 0.25


class _Echo(Remote):
    def echo(self, value):
        return value


class TestRunAdmissionConcurrency:
    def test_a_drain_racing_runs_admits_each_run_whole(self):
        """Runs served on four threads while a fifth starts the drain:
        each run is admitted whole or refused whole, none is served once
        the member reported drained, and the statistics count exactly
        the served runs' calls."""
        transport = DirectTransport()
        endpoint = transport.add_endpoint("member")
        skeleton = Skeleton(_Echo(), transport, endpoint.endpoint_id)
        run = [
            Request(skeleton.object_id, "echo", marshal_call((n,), {}), "t")
            for n in range(8)
        ]
        outcomes: list[set[str]] = []
        late: list[set[str]] = []

        def server():
            for _ in range(500):
                drained_before = skeleton.is_drained
                kinds = {reply.kind for reply in skeleton.handle_run(run)}
                outcomes.append(kinds)
                if drained_before and kinds != {"drained"}:
                    late.append(kinds)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=server) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 5.0
            while len(outcomes) < 20 and time.monotonic() < deadline:
                time.sleep(0.0005)
            skeleton.start_drain()
            assert skeleton.wait_drained(timeout=5.0)
            assert skeleton.pending == 0
        finally:
            for thread in threads:
                thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 4 * 500
        assert all(kinds in ({"result"}, {"drained"}) for kinds in outcomes)
        assert late == []
        served = sum(kinds == {"result"} for kinds in outcomes)
        assert 0 < served < len(outcomes)
        assert skeleton.stats.snapshot()["echo"].calls == 8 * served
        assert skeleton.pending == 0
