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
_STATE_BYTES = tuple(s.byte for s in SensorState)
_NO_TIME = bytes(8)


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
    """Inverse of `encode_reading`: the reading at the cursor, as objects."""
    (enc,) = walk_records(c, 1, tagged=False)
    k = 2 + (enc[0] << 8 | enc[1])
    reading = SensorReading(DeviceId(enc[2:k]), SensorId(enc[k + 2:-9]), record_time(enc))
    return StatefulReading(reading, _STATES[enc[-9]])


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
    return presence_tag(lp(device.id), encode_time(t))


def presence_tag(lp_device: bytes, t8: bytes) -> bytes:
    """`presence_digest` over its two fields as already encoded."""
    return sha256(lp_device + t8)


def state_digest(presence_tag: bytes, state: int) -> bytes:
    """Binds a presence tag to the retention state: SHA-256(tag || state)."""
    return sha256(presence_tag + _STATE_BYTES[state])


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
    """Inverse of `encode_redacted`: the record at the cursor, as objects."""
    (enc,) = walk_records(c, 1, tagged=True)
    return RedactedRecord(enc[:32], SensorId(enc[34:-9]), _STATES[enc[-9]], record_time(enc))


def redact(full: bytes) -> bytes:
    """The redacted encoding of a checked full encoding: its presence tag,
    then its bytes from LP(sensor) on, as `encode_redacted` lays them out."""
    k = 2 + (full[0] << 8 | full[1])
    return presence_tag(full[:k], full[-8:]) + full[k:]


def walk_records(c: Cursor, count: int, tagged: bool, state: SensorState | None = None) -> list[bytes]:
    """The encodings of the `count` records at the cursor, checked and kept as bytes.

    The one reader of the record grammar: full records (`tagged` false)
    are LP(device) || LP(sensor) || state || t8 with a positive time,
    redacted ones tag(32) || LP(sensor) || state || t8. Every length
    prefix must fit and every id be 1..MAX_ID_LEN bytes; the state byte
    must be listed, and equal `state` when one is given. An error names
    the 1-based record in `FormatError.record`.
    """
    buf, pos, end = c.buf, c.pos, c.end
    allowed = _STATES if state is None else {state.value: state}
    encs = []
    append = encs.append
    try:
        for i in range(1, count + 1):
            start = pos
            if tagged:
                pos += 32
                if pos > end:
                    raise FormatError(f"32 bytes needed at offset {start}, {end - start} left")
            else:
                pos = _lp_end(buf, pos, end)
            head = pos
            pos = _lp_end(buf, pos, end) + 9
            if pos > end:
                raise FormatError(f"9 bytes needed at offset {pos - 9}, {end - pos + 9} left")
            if not tagged and not 1 <= head - start - 2 <= MAX_ID_LEN:
                raise EncodingError(f"device id must be 1..{MAX_ID_LEN} bytes")
            if not 1 <= pos - head - 11 <= MAX_ID_LEN:
                raise EncodingError(f"sensor id must be 1..{MAX_ID_LEN} bytes")
            if not tagged and buf[pos - 8:pos] == _NO_TIME:
                raise EncodingError("timestamp must be a positive 64-bit integer")
            if buf[pos - 9] not in allowed:
                found = listed(_STATES, buf[pos - 9], "state")
                raise FormatError(f"{found.name.lower()} state where {state.name.lower()} is required")
            append(buf[start:pos])
    except FormatError as e:
        raise type(e)(f"record {i}: {e}", record=i) from None
    c.pos = pos
    return encs


def _lp_end(buf: bytes, pos: int, end: int) -> int:
    """The end of the length-prefixed field at `pos`, checked against `end`."""
    if pos + 2 > end:
        raise FormatError(f"length prefix cut off at offset {pos}")
    field_end = pos + 2 + (buf[pos] << 8 | buf[pos + 1])
    if field_end > end:
        raise FormatError(f"length prefix at offset {pos} overruns the end")
    return field_end
