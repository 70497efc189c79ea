"""Workload generator determinism, rate shaping, and tamper plumbing."""

import random

import pytest

from conftest import make_actors, mixed_rules, sealed_run
from sensorseal import KeyPair, Role, TamperAction, TamperKind, WorkloadSpec, apply_tamper
from sensorseal.harness import (
    DEFAULT_START_MS,
    MS_PER_HOUR,
    WorkloadError,
    building_of,
    building_sensors,
    device_pool,
    generate,
    generate_readings,
    sensor_pool,
)
from sensorseal.store import parse_chunk


def small_spec(**overrides) -> WorkloadSpec:
    params = dict(
        n_sensors=20, n_buildings=4, n_devices=10,
        duration_ms=2 * MS_PER_HOUR, rate_scale=0.02, seed=5,
    )
    params.update(overrides)
    return WorkloadSpec(**params)


def test_same_seed_same_plaintexts():
    a = list(generate_readings(small_spec()))
    b = list(generate_readings(small_spec()))
    assert a == b
    assert a != list(generate_readings(small_spec(seed=6)))


def test_ciphertexts_decrypt_to_the_same_stream():
    pair = KeyPair.generate(Role.ENCLAVE)
    spec = small_spec(duration_ms=MS_PER_HOUR // 2)
    plain = list(generate_readings(spec))
    from sensorseal.events import decode_wire_reading

    decrypted = [decode_wire_reading(pair.open_sealed(ct)) for ct in generate(spec, pair.public)]
    assert decrypted == plain


def test_timestamps_non_decreasing():
    times = [r.time for r in generate_readings(small_spec(rate_scale=0.1))]
    assert times == sorted(times)
    assert times[0] >= DEFAULT_START_MS


def test_peak_half_hour_reading_count():
    # half an hour at full peak rate lands near 37K readings
    spec = WorkloadSpec(duration_ms=30 * 60_000,
                        start_ms=DEFAULT_START_MS + 10 * MS_PER_HOUR, seed=9)
    count = sum(1 for _ in generate_readings(spec))
    assert 35_000 <= count <= 39_000


def test_scaled_180_days_event_count():
    # 180 days at 1/1000 rate lands near 110K events
    spec = WorkloadSpec(duration_ms=180 * 24 * MS_PER_HOUR, rate_scale=0.001, seed=9)
    count = sum(1 for _ in generate_readings(spec))
    assert 0.9 * 110_000 <= count <= 1.1 * 110_000


def test_diurnal_shape():
    spec = small_spec(duration_ms=24 * MS_PER_HOUR, rate_scale=0.05, seed=2)
    peak = off = 0
    for r in generate_readings(spec):
        hour = (r.time // MS_PER_HOUR) % 24
        if spec.peak_hours[0] <= hour < spec.peak_hours[1]:
            peak += 1
        else:
            off += 1
    # 8 peak hours vs 16 off-peak hours, yet peak dominates
    assert peak > 10 * off


def test_device_pool_distinct_and_stable():
    pool = device_pool(7, 300)
    assert len({d.id for d in pool}) == 300
    assert all(len(d.id) == 6 for d in pool)
    assert pool == device_pool(7, 300)


def test_buildings_partition_sensors():
    spec = small_spec()
    sensors = sensor_pool(spec)
    assert len(sensors) == spec.n_sensors
    union = set()
    for b in range(spec.n_buildings):
        members = building_sensors(spec, b)
        assert members
        union |= members
    assert union == set(sensors)
    assert building_of(spec, 0) == 0
    assert building_of(spec, spec.n_sensors - 1) == spec.n_buildings - 1


# --- tamper plumbing ------------------------------------------------------------

def test_tamper_targets_named_coordinates(tmp_path):
    actors = make_actors()
    store, _, _ = sealed_run(tmp_path, actors, n_readings=40)
    report = apply_tamper(store.root,
                          TamperAction(TamperKind.MODIFY_READING, chunk=3, record=2),
                          random.Random(0))
    assert report.chunk == 3 and report.record == 2


def test_modify_reading_flips_exactly_one_bit(tmp_path):
    actors = make_actors()
    store, _, _ = sealed_run(tmp_path, actors, n_readings=40, ruleset=mixed_rules(actors))
    kinds = set()
    for seed in range(12):
        chunk = store.indices()[seed % len(store.indices())]
        before = store.chunk_raw(chunk)
        report = apply_tamper(store.root, TamperAction(TamperKind.MODIFY_READING, chunk=chunk),
                              random.Random(seed))
        after = store.chunk_raw(chunk)
        assert len(after) == len(before)
        diff = int.from_bytes(before, "big") ^ int.from_bytes(after, "big")
        assert bin(diff).count("1") == 1
        kinds.add(parse_chunk(before).order[report.record - 1])
        (store.root / store.manifest["chunks"][str(chunk)]["file"]).write_bytes(before)
    assert kinds == {0, 1}  # both active and redacted records were hit


def test_tamper_out_of_range_rejected(tmp_path):
    actors = make_actors()
    store, _, _ = sealed_run(tmp_path, actors, n_readings=10, window_ms=10**9)
    with pytest.raises(WorkloadError):
        apply_tamper(store.root, TamperAction(TamperKind.DELETE_CHUNK, chunk=99))
    with pytest.raises(WorkloadError):
        apply_tamper(store.root, TamperAction(TamperKind.SWAP_CHUNKS, chunk=1, other_chunk=1))


def test_tamper_reports_describe_the_mutation(tmp_path):
    actors = make_actors()
    store, _, _ = sealed_run(tmp_path, actors, n_readings=40)
    rng = random.Random(3)
    for kind in TamperKind:
        sub = tmp_path / f"t-{kind.value}"
        import shutil

        shutil.copytree(store.root, sub)
        report = apply_tamper(sub, TamperAction(kind), rng)
        assert report.kind is kind
        assert report.description
