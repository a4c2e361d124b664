"""Validated parsing of the ``ERMI_*`` tuning environment variables.

Every knob is read once, at construction time (stub, batcher, or
transport ``__init__``) — never on the invocation path — so a malformed
value must fail *there*, loudly, naming the variable.  Before this
module each reader called ``int()``/``float()`` bare, and a typo like
``ERMI_BATCH_MAX=64k`` surfaced as an anonymous ``ValueError: invalid
literal for int()`` from deep inside a stub constructor (or, for
transports built lazily, mid-call), with nothing pointing at the
environment as the culprit.
"""

from __future__ import annotations

import os


def env_int(name: str, default: int, minimum: int = 1) -> int:
    """``int(os.environ[name])`` clamped to ``minimum``, or ``default``.

    Raises a :class:`ValueError` that names the variable when the value
    is set but not an integer.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    return max(minimum, value)


_SIZE_SUFFIXES = {
    "k": 1024, "kb": 1024, "kib": 1024,
    "m": 1024 ** 2, "mb": 1024 ** 2, "mib": 1024 ** 2,
    "g": 1024 ** 3, "gb": 1024 ** 3, "gib": 1024 ** 3,
}


def env_bytes(name: str, default: int, minimum: int = 0) -> int:
    """A byte-size knob: plain integer or ``k``/``m``/``g`` suffixed.

    ``ERMI_CPU_SHM_MIN=256k`` reads better than ``=262144``; the binary
    suffixes (``kib``/``mib``/``gib`` and their short forms) all mean
    powers of 1024.  Same failure contract as :func:`env_int`: a value
    that parses under neither form raises a :class:`ValueError` naming
    the variable.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    text = raw.strip().lower()
    multiplier = 1
    # Longest suffix first, so "1mib" never parses as "1mi" + "b".
    for suffix in sorted(_SIZE_SUFFIXES, key=len, reverse=True):
        if text.endswith(suffix) and len(text) > len(suffix):
            multiplier = _SIZE_SUFFIXES[suffix]
            text = text[: -len(suffix)].strip()
            break
    try:
        value = int(text)
    except ValueError:
        raise ValueError(
            f"{name} must be a byte size (integer, optionally "
            f"k/m/g-suffixed), got {raw!r}"
        ) from None
    return max(minimum, value * multiplier)


def env_float(name: str, default: float, minimum: float = 0.0) -> float:
    """``float(os.environ[name])`` clamped to ``minimum``, or ``default``.

    Raises a :class:`ValueError` that names the variable when the value
    is set but not a number (NaN included — a NaN lease would poison
    every comparison downstream).
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a number, got {raw!r}"
        ) from None
    if value != value:  # NaN
        raise ValueError(f"{name} must be a number, got {raw!r}")
    return max(minimum, value)
