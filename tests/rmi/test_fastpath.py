"""Fast-path marshalling: the immutability analyzer, the zero-copy and
pickle modes, and the invariant that RMI call semantics are unchanged.

The contract under test (DESIGN.md "fast-path invocation layer"):

- provably-immutable payloads may pass by reference (sharing an object
  nobody can mutate is indistinguishable from copying it);
- anything mutable still takes the pickled pass-by-value path — the
  callee always sees a deep copy;
- a RemoteRef passes by reference, as remote objects do in Java RMI;
- MarshalError/UnmarshalError behaviour is identical in every mode.
"""

from __future__ import annotations

import pytest

from repro.errors import ApplicationError, MarshalError, UnmarshalError
from repro.rmi.fastpath import (
    MODES,
    FastPayload,
    is_immutable,
    marshal_call,
    marshal_result,
    register_immutable,
    set_mode,
    unmarshal_call,
    unmarshal_result,
)
from repro.rmi import fastpath
from repro.rmi.remote import Remote, RemoteRef, Skeleton, Stub
from repro.rmi.transport import DirectTransport


@pytest.fixture(autouse=True)
def _restore_mode():
    previous = fastpath.mode()
    yield
    set_mode(previous)


class TestImmutabilityAnalyzer:
    @pytest.mark.parametrize(
        "value",
        [
            "text",
            b"raw",
            42,
            3.14,
            True,
            None,
            2 + 3j,
            (),
            ("a", 1, b"x"),
            (1, (2, (3, (4,)))),
            frozenset({"x", "y"}),
            (frozenset({1, 2}), ("nested", b"ok")),
            RemoteRef("ep-1", "obj-1", uid=3),
            ("ref-in-tuple", RemoteRef("ep-1", "obj-1")),
        ],
    )
    def test_provably_immutable(self, value):
        assert is_immutable(value)

    @pytest.mark.parametrize(
        "value",
        [
            [1, 2],
            {"k": "v"},
            {1, 2},
            bytearray(b"x"),
            (1, [2]),
            (1, (2, [3])),
            (frozenset(), [1]),
        ],
    )
    def test_mutable_rejected(self, value):
        assert not is_immutable(value)

    def test_deeply_nested_mutability_found(self):
        assert not is_immutable(("a", ("b", ("c", ("d", ["leak"])))))

    def test_subclasses_are_not_trusted(self):
        class SneakyStr(str):
            pass

        class SneakyTuple(tuple):
            pass

        assert not is_immutable(SneakyStr("looks safe"))
        assert not is_immutable(SneakyTuple((1, 2)))
        assert not is_immutable((1, SneakyStr("nested")))

    def test_register_immutable_opt_in(self):
        class Frozen:
            pass

        try:
            assert not is_immutable(Frozen())
            register_immutable(Frozen)
            assert is_immutable(Frozen())
            assert is_immutable((1, Frozen()))
        finally:
            fastpath._registered_immutable.discard(Frozen)


class TestModes:
    def test_set_mode_returns_previous(self):
        previous = fastpath.mode()
        assert set_mode("pickle") == previous
        assert fastpath.mode() == "pickle"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            set_mode("turbo")

    def test_all_modes_listed(self):
        assert set(MODES) == {"zerocopy", "pickle"}


class TestZeroCopyMarshalling:
    def test_immutable_call_passes_by_reference(self):
        set_mode("zerocopy")
        args = ("get", b"\x00" * 128, 7)
        payload = marshal_call(args, {})
        assert isinstance(payload, FastPayload)
        out_args, out_kwargs = unmarshal_call(payload)
        assert out_args is args
        assert out_kwargs == {}

    def test_kwargs_dict_is_fresh_per_delivery(self):
        set_mode("zerocopy")
        payload = marshal_call(("x",), {"flag": True})
        _, first = unmarshal_call(payload)
        _, second = unmarshal_call(payload)
        assert first == second == {"flag": True}
        assert first is not second  # one callee's **kwargs never aliases another's

    def test_mutable_args_still_deep_copied(self):
        set_mode("zerocopy")
        args = (["mutable"],)
        payload = marshal_call(args, {})
        assert isinstance(payload, bytes)
        out_args, _ = unmarshal_call(payload)
        assert out_args == args
        assert out_args[0] is not args[0]

    def test_immutable_result_passes_by_reference(self):
        set_mode("zerocopy")
        blob = b"\x01" * 256
        reply = marshal_result(blob)
        assert isinstance(reply, FastPayload)
        assert unmarshal_result(reply) is blob

    def test_mutable_result_still_copied(self):
        set_mode("zerocopy")
        value = {"k": [1]}
        reply = marshal_result(value)
        assert isinstance(reply, bytes)
        out = unmarshal_result(reply)
        assert out == value and out is not value

    def test_pickle_mode_never_shares(self):
        set_mode("pickle")
        blob = b"\x02" * 256
        payload = marshal_call((blob,), {})
        assert isinstance(payload, bytes)
        (out,), _ = unmarshal_call(payload)
        assert out == blob and out is not blob


class Holder(Remote):
    """Test service capturing exactly what the skeleton hands it."""

    def __init__(self):
        self.received = None

    def take(self, value):
        self.received = value
        return value

    def mutate(self, items):
        self.received = items
        items.append("server-side")
        return len(items)

    def boom(self):
        raise ValueError("application bug")


@pytest.fixture
def wired():
    transport = DirectTransport()
    ep = transport.add_endpoint("fastpath-test")
    impl = Holder()
    skeleton = Skeleton(impl, transport, ep.endpoint_id)
    return impl, Stub(transport, skeleton.ref())


class TestEndToEndSemantics:
    """The full Stub -> transport -> Skeleton path in every mode."""

    @pytest.mark.parametrize("mode", MODES)
    def test_mutable_argument_mutation_never_leaks_back(self, wired, mode):
        set_mode(mode)
        impl, stub = wired
        items = ["client"]
        assert stub.mutate(items) == 2
        assert items == ["client"]  # pass-by-value held
        assert impl.received == ["client", "server-side"]

    def test_immutable_argument_shared_in_zerocopy(self, wired):
        set_mode("zerocopy")
        impl, stub = wired
        blob = b"\x07" * 512
        assert stub.take(blob) is blob
        assert impl.received is blob

    def test_immutable_argument_copied_in_pickle_mode(self, wired):
        set_mode("pickle")
        impl, stub = wired
        blob = b"\x07" * 512
        result = stub.take(blob)
        assert result == blob and result is not blob
        assert impl.received is not blob

    @pytest.mark.parametrize("mode", MODES)
    def test_remote_ref_passes_by_reference(self, wired, mode):
        set_mode(mode)
        impl, stub = wired
        ref = RemoteRef("ep-far", "obj-far", uid=9)
        assert stub.take(ref) == ref
        assert impl.received == ref  # the receiver can build a stub from it

    def test_remote_ref_identity_preserved_in_zerocopy(self, wired):
        set_mode("zerocopy")
        impl, stub = wired
        ref = RemoteRef("ep-far", "obj-far", uid=9)
        stub.take(ref)
        assert impl.received is ref

    @pytest.mark.parametrize("mode", MODES)
    def test_marshal_error_unchanged(self, wired, mode):
        set_mode(mode)
        _, stub = wired
        with pytest.raises(MarshalError):
            stub.take(lambda: None)  # unpicklable, and not immutable

    @pytest.mark.parametrize("mode", MODES)
    def test_unmarshal_error_unchanged(self, mode):
        set_mode(mode)
        with pytest.raises(UnmarshalError):
            unmarshal_call(b"definitely not a pickle")
        with pytest.raises(UnmarshalError):
            unmarshal_result(b"definitely not a pickle")

    @pytest.mark.parametrize("mode", MODES)
    def test_application_exceptions_still_propagate(self, wired, mode):
        set_mode(mode)
        _, stub = wired
        with pytest.raises(ApplicationError) as info:
            stub.boom()
        assert isinstance(info.value.cause, ValueError)
