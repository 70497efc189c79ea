"""Sensor-event value types and their canonical byte encodings.

Every digest in the system is computed over the byte layouts defined
here, so they are normative and bit-exact: a field is either a 2-byte
big-endian length prefix followed by raw bytes (device and sensor ids),
a single state byte (0x00 passive / 0x01 active), or an 8-byte
big-endian millisecond timestamp. Length prefixes make the full reading
encoding injective; `params` is carried for fidelity but never hashed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from struct import Struct

from .codec import Cursor, FormatError, listed
from .crypto import sha256

MAX_ID_LEN = 64
MAX_TIMESTAMP = 2**64 - 1

_STATE_TIME = Struct(">BQ")
_TIME = Struct(">Q")


class EncodingError(FormatError):
    """Raised when a value cannot be canonically encoded or decoded."""


def lp(data: bytes) -> bytes:
    """2-byte big-endian length prefix followed by the raw bytes."""
    if len(data) > 0xFFFF:
        raise EncodingError("field too long for length prefix")
    return len(data).to_bytes(2, "big") + data


def encode_time(t: int) -> bytes:
    return t.to_bytes(8, "big")


class SensorState(IntEnum):
    PASSIVE = 0
    ACTIVE = 1

    @property
    def byte(self) -> bytes:
        return bytes([self.value])


_STATES = {s.value: s for s in SensorState}


@dataclass(frozen=True)
class DeviceId:
    id: bytes

    def __post_init__(self):
        if not 1 <= len(self.id) <= MAX_ID_LEN:
            raise EncodingError(f"device id must be 1..{MAX_ID_LEN} bytes")

    def __str__(self) -> str:
        return self.id.hex()


@dataclass(frozen=True)
class SensorId:
    id: bytes

    def __post_init__(self):
        if not 1 <= len(self.id) <= MAX_ID_LEN:
            raise EncodingError(f"sensor id must be 1..{MAX_ID_LEN} bytes")

    def __str__(self) -> str:
        return self.id.decode("ascii", errors="backslashreplace")


@dataclass(frozen=True)
class SensorReading:
    """One association event: device seen at a sensor at a time (ms epoch)."""

    device: DeviceId
    sensor: SensorId
    time: int
    params: bytes = field(default=b"", compare=False)

    def __post_init__(self):
        if not 0 < self.time <= MAX_TIMESTAMP:
            raise EncodingError("timestamp must be a positive 64-bit integer")


@dataclass(frozen=True)
class StatefulReading:
    """A reading after policy evaluation assigned its retention state."""

    reading: SensorReading
    state: SensorState


@dataclass(frozen=True)
class RedactedRecord:
    """What remains of a passive reading: pseudonymous tag plus context.

    Users receive every reading of a chunk in this form.
    """

    tag: bytes
    sensor: SensorId
    state: SensorState
    time: int


def encode_reading(sr: StatefulReading) -> bytes:
    """Canonical encoding: LP(device) || LP(sensor) || state || t8."""
    r = sr.reading
    return lp(r.device.id) + lp(r.sensor.id) + sr.state.byte + encode_time(r.time)


def decode_reading(c: Cursor) -> StatefulReading:
    """Inverse of `encode_reading`: the reading at the cursor."""
    device = c.lp()
    sensor = c.lp()
    state, t = c.unpack(_STATE_TIME)
    reading = SensorReading(DeviceId(device), SensorId(sensor), t)
    return StatefulReading(reading, listed(_STATES, state, "state"))


def record_time(enc: bytes) -> int:
    """The time of a full or redacted record encoding; both end in state || t8."""
    return int.from_bytes(enc[-8:], "big")


def encode_wire_reading(r: SensorReading) -> bytes:
    """Transport encoding used inside the controller-to-sealer envelope."""
    return lp(r.device.id) + lp(r.sensor.id) + encode_time(r.time) + lp(r.params)


def decode_wire_reading(buf: bytes) -> SensorReading:
    c = Cursor(buf)
    device = c.lp()
    sensor = c.lp()
    (t,) = c.unpack(_TIME)
    params = c.lp()
    c.done("wire reading")
    return SensorReading(DeviceId(device), SensorId(sensor), t, params)


def presence_digest(device: DeviceId, t: int) -> bytes:
    """Pseudonymous tag for (device, time): SHA-256(LP(device) || t8).

    Distinct times give distinct tags for the same device, so tag lists
    reveal neither identities nor per-device frequencies; the device's
    owner can still recognize their own entries.
    """
    return sha256(lp(device.id) + encode_time(t))


def state_digest(presence_tag: bytes, state: SensorState) -> bytes:
    """Binds a presence tag to the retention state: SHA-256(tag || state)."""
    return sha256(presence_tag + state.byte)


def encode_redacted(presence_tag: bytes, sensor: SensorId, state: SensorState, t: int) -> bytes:
    """Redacted record encoding: tag(32) || LP(sensor) || state || t8.

    Passive readings enter the auditor hash chain in this form, so
    non-retention stays verifiable without exposing the device id. The
    trailing state byte keeps redacted and full encodings disjoint
    (full encodings end 0x01 || t8, redacted end 0x00 || t8).
    """
    if len(presence_tag) != 32:
        raise EncodingError("presence tag must be 32 bytes")
    return presence_tag + lp(sensor.id) + state.byte + encode_time(t)


def decode_redacted(c: Cursor) -> RedactedRecord:
    """Inverse of `encode_redacted`: the record at the cursor."""
    tag = c.take(32)
    sensor = c.lp()
    state, t = c.unpack(_STATE_TIME)
    return RedactedRecord(tag, SensorId(sensor), listed(_STATES, state, "state"), t)
