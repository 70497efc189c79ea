"""The record walk against a reference: `walk_records` accepts and rejects
exactly the record-section and user-entry bytes that the object-building
decoders it replaced do, keeps the same encodings, and names the same
record in `FormatError.record`.

The reference decoders below are copies of the ones the read path used
before the walk: they build a `DeviceId`, `SensorId`, `SensorReading`
and `StatefulReading` (or a `RedactedRecord`) per record and let those
constructors check the bounds. Both user-entry decoders name the failing
record the way the chunk parser always has.
"""

from struct import Struct

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sensorseal.codec import Cursor, FormatError, listed
from sensorseal.events import (
    DeviceId,
    RedactedRecord,
    SensorId,
    SensorReading,
    SensorState,
    StatefulReading,
    lp,
)
from sensorseal.store import _decode_user_entry, _record_section

_STATE_TIME = Struct(">BQ")
_U32 = Struct("<I")
_STATES = {s.value: s for s in SensorState}


def ref_decode_reading(c: Cursor) -> StatefulReading:
    device = c.lp()
    sensor = c.lp()
    state, t = c.unpack(_STATE_TIME)
    reading = SensorReading(DeviceId(device), SensorId(sensor), t)
    return StatefulReading(reading, listed(_STATES, state, "state"))


def ref_decode_redacted(c: Cursor) -> RedactedRecord:
    tag = c.take(32)
    sensor = c.lp()
    state, t = c.unpack(_STATE_TIME)
    return RedactedRecord(tag, SensorId(sensor), listed(_STATES, state, "state"), t)


def ref_records(c: Cursor, count: int, decode, state) -> list[bytes]:
    encs = []
    try:
        for i in range(1, count + 1):
            start = c.pos
            rec = decode(c)
            if state is not None and rec.state is not state:
                raise FormatError(f"{rec.state.name.lower()} state in this section")
            encs.append(c.buf[start:c.pos])
    except FormatError as e:
        raise FormatError(f"record {i}: {e}", record=i) from e
    return encs


def ref_section(data: bytes, count: int, decode, state) -> tuple[bytes, ...]:
    c = Cursor(data)
    encs = ref_records(c, count, decode, state)
    c.done("section")
    return tuple(encs)


def ref_user_entry(payload: bytes) -> tuple[tuple[bytes, ...], bytes, bytes]:
    c = Cursor(payload)
    (n,) = c.unpack(_U32)
    encs = ref_records(c, n, ref_decode_redacted, None)
    string = c.take(32)
    (sig_len,) = c.unpack(Struct("<H"))
    if sig_len != 64:
        raise FormatError("bad signature length")
    sig = c.take(sig_len)
    c.done("user entry")
    return tuple(encs), string, sig


def outcome(fn, *args):
    """("ok", value) or ("error", FormatError.record)."""
    try:
        return "ok", fn(*args)
    except FormatError as e:
        return "error", e.record


def agree(got: tuple, want: tuple) -> bool:
    """Whether two outcomes agree, noting which kind of case this was."""
    kind, value = want
    event("accepted" if kind == "ok" else
          "rejected at a record" if value else "rejected after the records")
    return got == want


ids = st.binary(min_size=1, max_size=64)
times = st.integers(1, 2**64 - 1)
# a field just outside its bound: (field, value); "other" is the other listed state
BAD_FIELDS = [("head", b""), ("head", b"i" * 65), ("sensor", b""), ("sensor", b"i" * 65),
              ("state", 2), ("state", 0xFF), ("state", "other"), ("time", 0)]
FIELD_NAMES = ["head", "sensor", "state", "time"]


def record(tagged: bool, head: bytes, sensor: bytes, state: int, t: int) -> bytes:
    return ((head if tagged else lp(head)) + lp(sensor) + bytes([state])
            + t.to_bytes(8, "big"))


def put_out_of_bounds(fields: list, name: str, value) -> None:
    k = FIELD_NAMES.index(name)
    fields[k] = 1 - fields[2] if value == "other" else value


@st.composite
def damaged(draw, tagged: bool, state: SensorState | None):
    """Up to six records joined, then perhaps one field put out of bounds,
    the bytes cut, overwritten at one byte or extended, and the record
    count off by one."""
    heads = st.binary(min_size=32, max_size=32) if tagged else ids
    states = st.just(state) if state is not None else st.sampled_from(list(SensorState))
    fields = draw(st.lists(st.tuples(heads, ids, states, times), max_size=6))
    fields = [list(f) for f in fields]
    how = draw(st.sampled_from(["intact", "intact", "field", "cut", "byte", "extend"]))
    if how == "field" and fields:
        put_out_of_bounds(fields[draw(st.integers(0, len(fields) - 1))],
                          *draw(st.sampled_from(BAD_FIELDS)))
    data = bytearray(b"".join(record(tagged, *f) for f in fields))
    if how == "cut" and data:
        del data[draw(st.integers(0, len(data) - 1)):]
    elif how == "byte" and data:
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    elif how == "extend":
        data += draw(st.binary(min_size=1, max_size=12))
    count = max(0, len(fields) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    return bytes(data), count


WALKS = {
    "active": (False, SensorState.ACTIVE,
               lambda data, n: _record_section("active", data, n, False, SensorState.ACTIVE),
               lambda data, n: ref_section(data, n, ref_decode_reading, SensorState.ACTIVE)),
    "redacted": (True, SensorState.PASSIVE,
                 lambda data, n: _record_section("redacted", data, n, True, SensorState.PASSIVE),
                 lambda data, n: ref_section(data, n, ref_decode_redacted, SensorState.PASSIVE)),
}


@pytest.mark.parametrize("name, value", BAD_FIELDS)
@pytest.mark.parametrize("section", sorted(WALKS))
def test_each_bound_is_checked_where_the_reference_checks_it(section, name, value):
    tagged, state, walk, ref = WALKS[section]
    fields = [[bytes([k + 1]) * (32 if tagged else 6), b"ap-1", state, 1_000 + k]
              for k in range(3)]
    put_out_of_bounds(fields[1], name, value)
    data = b"".join(record(tagged, *f) for f in fields)
    assert outcome(walk, data, 3) == outcome(ref, data, 3)
    if not tagged:  # every bound of a full record is on some field here
        assert outcome(walk, data, 3) == ("error", 2)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(WALKS)), st.data())
def test_section_walk_matches_reference(section, data):
    tagged, state, walk, ref = WALKS[section]
    blob, count = data.draw(damaged(tagged, state))
    assert agree(outcome(walk, blob, count), outcome(ref, blob, count))


@settings(max_examples=400, deadline=None)
@given(damaged(True, None), st.binary(min_size=32, max_size=32),
       st.sampled_from([(64, 64), (64, 64), (64, 63), (64, 65), (63, 63)]))
def test_user_entry_walk_matches_reference(case, string, sig_shape):
    data, count = case
    sig_len, sig_bytes = sig_shape
    payload = (count.to_bytes(4, "little") + data + string
               + sig_len.to_bytes(2, "little") + bytes(sig_bytes))
    kind, value = outcome(_decode_user_entry, 7, payload)
    if kind == "ok":
        value = value.encs, value.proof.string, value.proof.sig
    assert agree((kind, value), outcome(ref_user_entry, payload))
