"""Message encoding and bit accounting for the CONGEST simulator.

The CONGEST model's entire point is the O(log n)-bit per-edge per-round
budget, so the simulator *actually serializes* every payload and counts
bits.  Payloads are restricted to a small algebraic datatype (ints, bools,
None, strings, and nested tuples/frozensets thereof) with a deterministic,
self-delimiting encoding; the measured size is what the round scheduler
charges against the budget.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple, Union

from ..errors import PayloadTypeError

Payload = Union[int, bool, None, str, Tuple["Payload", ...], FrozenSet["Payload"]]

# Targeted repair hints for the common wrong types, surfaced in the
# PayloadTypeError so protocol authors see the fix, not just the rejection.
_TYPE_HINTS = {
    "list": "use a tuple",
    "dict": "use a tuple of (key, value) pairs",
    "set": "use a frozenset",
    "float": "scale to an integer; floats have no canonical bit encoding",
    "bytes": "encode as a tuple of ints",
    "bytearray": "encode as a tuple of ints",
}


def int_bits(value: int) -> int:
    """Bits to encode a signed integer (sign bit + magnitude)."""
    return 1 + max(1, abs(value).bit_length())


def _bits(payload: Payload, path: str) -> int:
    tag = 2
    if payload is None:
        return tag
    if isinstance(payload, bool):
        return tag + 1
    if isinstance(payload, int):
        return tag + int_bits(payload)
    if isinstance(payload, str):
        return tag + 6
    if isinstance(payload, tuple):
        return (
            tag
            + int_bits(len(payload))
            + sum(_bits(item, f"{path}[{i}]") for i, item in enumerate(payload))
        )
    if isinstance(payload, frozenset):
        return (
            tag
            + int_bits(len(payload))
            + sum(
                _bits(item, f"{path}{{{i}}}")
                for i, item in enumerate(sorted(payload, key=repr))
            )
        )
    name = type(payload).__name__
    raise PayloadTypeError(path, name, _TYPE_HINTS.get(name, ""))


def payload_bits(payload: Payload) -> int:
    """Size in bits of the canonical encoding of ``payload``.

    Every value pays a 2-bit type tag; containers pay a length field.
    Strings are flat 6 bits: in every protocol here they are *message-type
    tags* drawn from a constant per-algorithm alphabet, so a real encoding
    would use O(1) bits for them — variable data must travel as integers
    or containers, whose cost is Θ(information content).

    Unsupported values raise :class:`~repro.errors.PayloadTypeError` naming
    the offending sub-value path (e.g. ``payload[2][0]: float``), so nested
    mistakes are rejected before any part of the message is charged.
    """
    return _bits(payload, "payload")

