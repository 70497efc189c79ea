"""Benchmark machinery: scaling ratios, fits, CSV."""

import tempfile

import pytest

from conftest import PSK, make_actors, sealed_run
from sensorseal import ChunkPolicy, ChunkStore, Sealer, SensorReading
from sensorseal.bench import (
    BenchError,
    BenchPoint,
    auditor_scaling,
    format_table,
    linear_fit,
    user_streaming_seconds,
    write_csv,
)


@pytest.fixture(scope="module")
def big_store(tmp_path_factory):
    """3000 small chunks sealed once for the scaling-shape checks."""
    tmp = tmp_path_factory.mktemp("bench")
    actors = make_actors(n_devices=5, n_sensors=3)
    store = ChunkStore(tmp / "store")
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store,
                    policy=ChunkPolicy(max_window_ms=6_000, checkpoint_every=256))
    t = 1_002_000  # aligned to the 6s window grid
    with store.bulk():
        for i in range(3000 * 6):
            sealer.submit_reading(SensorReading(
                actors.devices[i % 5], actors.sensors[i % 3], t + i * 1_000))
        sealer.finalize()
    assert len(store.indices()) == 3000
    return actors, store


def test_doubling_chunks_doubles_time(big_store):
    actors, store = big_store
    points = auditor_scaling(store, actors.enclave.public, counts=(50, 100), repeats=5)
    ratio = points[1].seconds / points[0].seconds
    assert 1.5 <= ratio <= 2.5  # 2x within 25%


def test_full_log_over_single_chunk_ratio_shape(big_store):
    actors, store = big_store
    points = auditor_scaling(store, actors.enclave.public, counts=(1, 3000), repeats=5)
    ratio = points[1].seconds / points[0].seconds
    # linear shape: ratio lands within 2x of the 4400:1 reference envelope
    assert 2_200 <= ratio <= 8_800


def test_single_chunk_verdict_subsecond(big_store):
    actors, store = big_store
    points = auditor_scaling(store, actors.enclave.public, counts=(1,), repeats=3)
    assert points[0].seconds < 1.0


def test_fit_reports_r_squared():
    points = [BenchPoint(c, 0.002 * c + 0.001, c * 10) for c in (1, 10, 100)]
    slope, intercept, r2 = linear_fit(points)
    assert abs(slope - 0.002) < 1e-9 and r2 > 0.999999


def test_fit_needs_two_points():
    with pytest.raises(BenchError):
        linear_fit([BenchPoint(1, 0.5, 10)])


def test_csv_and_table_shapes(tmp_path, big_store):
    actors, store = big_store
    points = auditor_scaling(store, actors.enclave.public, counts=(1, 4), repeats=1)
    out = tmp_path / "bench.csv"
    write_csv(points, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "chunks,seconds,readings"
    assert len(lines) == 3
    table = format_table(points)
    assert "linear fit" in table and "R^2" in table


def test_counts_beyond_store_rejected(big_store):
    actors, store = big_store
    with pytest.raises(BenchError):
        auditor_scaling(store, actors.enclave.public, counts=(5000,))


def test_user_streaming_leaves_no_bundle_file(tmp_path, monkeypatch):
    actors = make_actors()
    store, _, _ = sealed_run(tmp_path / "run", actors, n_readings=40)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    last = store.indices()[-1]
    assert user_streaming_seconds(store, actors.enclave.public, actors.devices[0],
                                  1, last, PSK) >= 0
    assert list(scratch.rglob("*.ssb")) == []
