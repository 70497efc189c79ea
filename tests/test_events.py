"""Canonical encoding: layout, injectivity, round trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sensorseal.codec import Cursor
from sensorseal.events import (
    DeviceId,
    EncodingError,
    SensorId,
    SensorReading,
    SensorState,
    StatefulReading,
    decode_reading,
    decode_redacted,
    decode_wire_reading,
    encode_reading,
    encode_redacted,
    encode_wire_reading,
    presence_digest,
    state_digest,
)

ids = st.binary(min_size=1, max_size=64)
times = st.integers(min_value=1, max_value=2**63)
states = st.sampled_from([SensorState.ACTIVE, SensorState.PASSIVE])


def stateful(device: bytes, sensor: bytes, t: int, state: SensorState) -> StatefulReading:
    return StatefulReading(SensorReading(DeviceId(device), SensorId(sensor), t), state)


readings = st.builds(stateful, ids, ids, times, states)


def test_layout_example():
    # device 0xAA, sensor 0xBB, active, t=1
    sr = stateful(b"\xaa", b"\xbb", 1, SensorState.ACTIVE)
    assert encode_reading(sr).hex() == "0001aa0001bb010000000000000001"


def test_state_bit_is_one_byte_positional():
    active = encode_reading(stateful(b"\xaa", b"\xbb", 7, SensorState.ACTIVE))
    passive = encode_reading(stateful(b"\xaa", b"\xbb", 7, SensorState.PASSIVE))
    diffs = [i for i, (a, b) in enumerate(zip(active, passive)) if a != b]
    assert diffs == [6]
    assert active[6] == 1 and passive[6] == 0


def test_empty_sensor_rejected():
    with pytest.raises(EncodingError):
        stateful(b"AB", b"", 1, SensorState.ACTIVE)


def test_oversized_id_rejected():
    with pytest.raises(EncodingError):
        DeviceId(b"x" * 65)


def test_nonpositive_time_rejected():
    with pytest.raises(EncodingError):
        SensorReading(DeviceId(b"a"), SensorId(b"b"), 0)


@given(readings)
def test_round_trip(sr):
    c = Cursor(encode_reading(sr))
    assert decode_reading(c) == sr
    c.done()


@given(readings, readings)
def test_injectivity(a, b):
    if a != b:
        assert encode_reading(a) != encode_reading(b)


@given(readings)
def test_wire_round_trip(sr):
    r = sr.reading
    assert decode_wire_reading(encode_wire_reading(r)) == r


def test_wire_params_carried():
    r = SensorReading(DeviceId(b"\x01"), SensorId(b"s"), 5, params=b"rssi=-60")
    assert decode_wire_reading(encode_wire_reading(r)).params == b"rssi=-60"


@given(ids, ids, times, times)
def test_redacted_round_trip(device, sensor, t1, t2):
    tag = presence_digest(DeviceId(device), t1)
    enc = encode_redacted(tag, SensorId(sensor), SensorState.PASSIVE, t2)
    c = Cursor(enc)
    rec = decode_redacted(c)
    assert (rec.tag, rec.sensor.id, rec.state, rec.time) == (tag, sensor, SensorState.PASSIVE, t2)
    c.done()


def test_record_kinds_never_collide():
    # full encodings end 0x01 || t8, redacted end 0x00 || t8
    sr = stateful(b"\xaa" * 30, b"\xbb", 9, SensorState.ACTIVE)
    full = encode_reading(sr)
    tag = presence_digest(sr.reading.device, 9)
    red = encode_redacted(tag, SensorId(b"\xbb"), SensorState.PASSIVE, 9)
    assert full[-9] == 1 and red[-9] == 0


@given(ids, st.lists(times, min_size=2, max_size=6, unique=True))
def test_presence_tags_distinct_per_time(device, ts):
    tags = {presence_digest(DeviceId(device), t) for t in ts}
    assert len(tags) == len(ts)


def test_canonical_hash_matches_external_tool():
    import shutil as _shutil
    import subprocess

    if _shutil.which("sha256sum") is None:
        pytest.skip("sha256sum not available")
    sr = stateful(b"\xaa\xbb\xcc\xdd\xee\xff", b"ap-007", 1_700_000_000_000,
                  SensorState.ACTIVE)
    enc = encode_reading(sr)
    out = subprocess.run(["sha256sum"], input=enc, capture_output=True, check=True)
    from sensorseal.crypto import sha256

    assert out.stdout.split()[0].decode() == sha256(enc).hex()


def test_state_digest_separates_states():
    tag = presence_digest(DeviceId(b"\x01\x02"), 44)
    assert state_digest(tag, SensorState.ACTIVE) != state_digest(tag, SensorState.PASSIVE)
