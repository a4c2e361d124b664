"""Validated parsing of the numeric ``ERMI_*`` environment variables.

Tuning knobs are constructor arguments; the environment carries only
deployment selectors (``ERMI_BATCH_MAX``, read once when a stub is
built) and the benchmark scale (``ERMI_BENCH_SCALE``).  Each is read at
construction time — never on the invocation path — so a malformed
value must fail *there*, loudly, naming the variable, not as an
anonymous ``ValueError: invalid literal for int()`` from deep inside a
stub constructor.
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


def env_float(name: str, default: float, minimum: float = 0.0) -> float:
    """``float(os.environ[name])`` clamped to ``minimum``, or ``default``.

    Raises a :class:`ValueError` that names the variable when the value
    is set but not a number (NaN included — a NaN scale would poison
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
