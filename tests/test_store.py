"""Chunk file format, manifest bookkeeping, bundles, and authentication."""

import json
import random
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALLOW_ALL, PSK, make_actors, mixed_rules, sealed_run
from sensorseal import (
    ChunkPolicy,
    ChunkStore,
    DeviceId,
    KeyPair,
    Role,
    Sealer,
    SensorId,
    SensorReading,
    StatefulReading,
    TamperAction,
    TamperKind,
    apply_tamper,
    read_bundle_file,
    write_bundle_file,
)
from sensorseal.events import (
    MAX_ID_LEN,
    MAX_TIMESTAMP,
    SensorState,
    encode_redacted,
    presence_digest,
)
from sensorseal import store as store_module
from sensorseal.sealing import OpenChunk, close_chunk, seal_append
from sensorseal.store import (
    AuthError,
    SEC_ORDER,
    AuditorEntry,
    ChunkFormatError,
    StoreError,
    checkpoint_positions,
    derive_user_records,
    parse_chunk,
    read_sections,
    serialize_chunk,
)


@pytest.fixture
def run(tmp_path, actors):
    store, sealer, sealed = sealed_run(tmp_path, actors, n_readings=40)
    return store, sealer, sealed


# --- chunk file format ---------------------------------------------------------

def test_parse_then_serialize_is_identity(tmp_path, actors):
    store, _, sealed = sealed_run(tmp_path, actors, n_readings=60, ruleset=mixed_rules(actors))
    assert {sr.state for sr in sealed} == {SensorState.ACTIVE, SensorState.PASSIVE}
    for i in store.indices():
        blob = store.chunk_raw(i)
        assert serialize_chunk(parse_chunk(blob)) == blob


_SIGNER = KeyPair.generate(Role.ENCLAVE)
_IDS = st.binary(min_size=1, max_size=MAX_ID_LEN)


def reference_order_section(order) -> bytes:
    """The ORDER section bit by bit, as docs/FORMATS.md lays it out."""
    out = bytearray((len(order) + 7) // 8)
    for i, bit in enumerate(order):
        if bit:
            out[i // 8] |= 0x80 >> (i % 8)
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(
    readings=st.lists(st.tuples(_IDS, _IDS, st.sampled_from(SensorState),
                                st.integers(1, MAX_TIMESTAMP)), min_size=1, max_size=300),
    every=st.integers(1, 64),
    index=st.integers(1, 2**63),
    strings=st.lists(st.binary(min_size=32, max_size=32), min_size=3, max_size=3),
)
def test_sealed_chunk_round_trips(readings, every, index, strings):
    chunk = OpenChunk(index, strings[1], strings[2])
    for device, sensor, state, t in readings:
        seal_append(chunk, StatefulReading(
            SensorReading(DeviceId(device), SensorId(sensor), t), state), every)
    sealed = close_chunk(chunk, strings[0], _SIGNER, every)
    blob = serialize_chunk(sealed)
    assert read_sections(blob)[1][SEC_ORDER][0] == reference_order_section(
        [state is SensorState.ACTIVE for _, _, state, _ in readings])
    parsed = parse_chunk(blob)
    assert parsed == sealed
    assert [t for _, _, t in parsed.merged()] == [t for *_, t in readings]
    # the views parse_chunk fills match the ones decoded on demand
    assert parsed.active == sealed.active and parsed.redacted == sealed.redacted


def assert_manifest_matches_chunks(store):
    for i in store.indices():
        entry = store.manifest["chunks"][str(i)]
        blob = store.chunk_raw(i)
        parsed = parse_chunk(blob)
        times = [t for _, _, t in parsed.merged()]
        _, sections = read_sections(blob)
        assert entry["n"] == parsed.n_readings
        assert entry["n_active"] == len(parsed.active)
        assert entry["n_passive"] == len(parsed.redacted)
        assert entry["bytes"] == len(blob)
        assert (entry["first_t"], entry["last_t"]) == (min(times), max(times))
        assert entry["sections"] == {
            str(sid): [len(data), count] for sid, (data, count) in sections.items()}


def test_manifest_counts_match_sections(run):
    store, _, sealed = run
    total = sum(store.manifest["chunks"][str(i)]["n"] for i in store.indices())
    assert total == len(sealed)
    assert_manifest_matches_chunks(store)


@pytest.mark.parametrize("kind, delta", [
    (TamperKind.INSERT_READING, 1),
    (TamperKind.DELETE_READING, -1),
])
def test_manifest_counts_match_sections_after_tamper(tmp_path, actors, kind, delta):
    # one checkpoint per chunk, so the edited chunk still parses
    store, _, sealed = sealed_run(tmp_path, actors, n_readings=40, ruleset=mixed_rules(actors),
                                  checkpoint_every=256)
    apply_tamper(store.root, TamperAction(kind, chunk=2), random.Random(5))
    store = ChunkStore(store.root)
    total = sum(store.manifest["chunks"][str(i)]["n"] for i in store.indices())
    assert total == len(sealed) + delta
    assert_manifest_matches_chunks(store)


def test_checkpoint_positions():
    assert checkpoint_positions(10, 4) == [4, 8, 10]
    assert checkpoint_positions(8, 4) == [4, 8]
    assert checkpoint_positions(3, 4) == [3]
    assert checkpoint_positions(1, 256) == [1]


@pytest.mark.parametrize("mutate, message", [
    (lambda b: b[:-1], "trailing"),                      # truncated tail
    (lambda b: b + b"\x00", "trailing bytes"),           # slack after sections
    (lambda b: b"XXXX" + b[4:], "magic"),                # wrong magic
    (lambda b: b[:4] + b"\x09\x00" + b[6:], "version"),  # unsupported version
])
def test_strict_parse_rejects(run, mutate, message):
    store, _, _ = run
    blob = store.chunk_raw(1)
    with pytest.raises(ChunkFormatError):
        parse_chunk(mutate(bytearray(blob)))


def test_order_padding_bits_must_be_zero(run):
    store, _, _ = run
    blob = bytearray(store.chunk_raw(1))
    parsed = parse_chunk(bytes(blob))
    n = parsed.n_readings
    if n % 8 == 0:
        pytest.skip("no padding bits in this fixture")
    _, sections = read_sections(bytes(blob))
    # order section begins after active + redacted
    start = 16 + 7 * 26 + len(sections[1][0]) + len(sections[2][0])
    order_len = len(sections[3][0])
    blob[start + order_len - 1] ^= 0x01  # lowest padding bit
    with pytest.raises(ChunkFormatError):
        parse_chunk(bytes(blob))


def test_store_initialize_twice_rejected(tmp_path, actors):
    store, _, _ = sealed_run(tmp_path, actors, n_readings=5)
    with pytest.raises(StoreError):
        store.initialize(b"\x00" * 32)


# --- bundles ---------------------------------------------------------------------

def test_auditor_bundle_fencepost(run):
    store, _, _ = run
    # request k chunks -> k payloads and k+2 distinct strings (g* and terminal
    # stand in at the boundaries)
    first, last = 1, len(store.indices())
    bundle = store.get_auditor_bundle(first, last)
    entries = list(bundle.entries)
    assert len(entries) == last - first + 1
    strings = dict(bundle.strings.by_index)
    n_strings = len(strings) + (bundle.strings.seed is not None) + (
        bundle.strings.terminal is not None)
    assert n_strings == (last - first + 1) + 2


def test_interior_range_minimality(tmp_path, actors):
    store, _, _ = sealed_run(tmp_path, actors, n_readings=60, window_ms=5_000)
    indices = store.indices()
    assert len(indices) >= 5
    first, last = indices[1], indices[-2]
    bundle = store.get_auditor_bundle(first, last)
    held = set(bundle.strings.by_index)
    assert held == set(range(first - 1, last + 2))
    # nothing outside the requested range but the two neighbor strings
    assert all(e.raw is not None for e in bundle.entries)


def test_bundle_bytes_linear_in_chunks(tmp_path, actors):
    store, _, _ = sealed_run(tmp_path, actors, n_readings=80, window_ms=2_500,
                             step_ms=1_000)
    indices = store.indices()
    assert len(indices) >= 8

    def bundle_size(k: int) -> int:
        path = tmp_path / f"b{k}.ssb"
        write_bundle_file(path, store.get_auditor_bundle(1, k))
        return path.stat().st_size

    s2, s4, s8 = bundle_size(2), bundle_size(4), bundle_size(8)
    # payload bytes dominate and scale with k, independent of total stored
    assert s4 - s2 > 0 and s8 - s4 > 0
    per_chunk = (s8 - s4) / 4
    assert s8 < s2 + per_chunk * 7  # no superlinear blowup


def test_missing_chunk_yields_gap_marker(run):
    store, _, _ = run
    entry = store.manifest["chunks"].pop("2")
    (store.root / entry["file"]).unlink()
    store._save_manifest()
    bundle = store.get_auditor_bundle(1, 4)
    entries = {e.index: e for e in bundle.entries}
    assert entries[2].raw is None
    assert entries[1].raw is not None


def test_user_bundle_redacts_everything(run, actors):
    store, _, sealed = run
    bundle = store.get_user_bundle(1, len(store.indices()), PSK)
    entries = list(bundle.entries)
    assert sum(len(e.records) for e in entries) == len(sealed)
    joined = b"".join(
        rec.tag + rec.sensor.id + bytes([rec.state]) for e in entries for rec in e.records
    )
    for device in actors.devices:
        assert device.id not in joined


def test_user_records_match_seal_order_and_tags(run, actors):
    store, _, sealed = run
    parsed = parse_chunk(store.chunk_raw(1))
    records = derive_user_records(parsed)
    n = parsed.n_readings
    expected = sealed[:n]
    assert len(records) == n
    for enc, sr in zip(records, expected):
        r = sr.reading
        assert enc == encode_redacted(presence_digest(r.device, r.time), r.sensor, sr.state, r.time)


def test_user_bundle_requires_authentication(run):
    store, _, _ = run
    with pytest.raises(AuthError):
        store.get_user_bundle(1, 2, b"wrong")
    with pytest.raises(AuthError):
        store.get_user_bundle(1, 2, None)
    unauth = ChunkStore(store.root)  # no authenticator configured at all
    with pytest.raises(AuthError):
        unauth.get_user_bundle(1, 2, PSK)


def test_bundle_file_round_trip_auditor(run, tmp_path):
    store, _, _ = run
    bundle = store.get_auditor_bundle(1, 4)
    path = tmp_path / "aud.ssb"
    write_bundle_file(path, bundle)
    again = read_bundle_file(path)
    assert again.kind == "auditor"
    assert again.strings.by_index == store.get_auditor_bundle(1, 4).strings.by_index
    raws = {e.index: e.raw for e in again.entries}
    for i in range(1, 5):
        assert raws[i] == store.chunk_raw(i)
    assert [n.rules_digest for n in again.notices] == [ALLOW_ALL.digest]


def test_bundle_file_round_trip_user(run, tmp_path):
    store, _, _ = run
    bundle = store.get_user_bundle(1, 4, PSK)
    path = tmp_path / "usr.ssb"
    write_bundle_file(path, bundle)
    again = read_bundle_file(path)
    direct = {e.index: e for e in store.get_user_bundle(1, 4, PSK).entries}
    for entry in again.entries:
        assert entry.records == direct[entry.index].records
        assert entry.proof == direct[entry.index].proof


def test_bundle_file_streams_entries(run, tmp_path):
    store, _, _ = run
    path = tmp_path / "stream.ssb"
    write_bundle_file(path, store.get_auditor_bundle(1, 4))
    bundle = read_bundle_file(path)
    it = iter(bundle.entries)
    first = next(it)
    assert isinstance(first, AuditorEntry) and first.index == 1
    rest = list(it)
    assert len(rest) == 3


def test_bad_range_rejected(run):
    store, _, _ = run
    with pytest.raises(StoreError):
        store.get_auditor_bundle(0, 3)
    with pytest.raises(StoreError):
        store.get_auditor_bundle(3, 2)


def test_out_of_log_requests_become_gaps(run):
    store, _, _ = run
    last = store.indices()[-1]
    bundle = store.get_auditor_bundle(1, 10)
    gaps = [e.index for e in bundle.entries if e.raw is None]
    assert gaps == list(range(last + 1, 11))


def test_bundle_size_independent_of_log_size(tmp_path, actors):
    # the same 2-chunk request costs the same bytes from a 5-chunk store
    # and from a 40-chunk store
    small, _, _ = sealed_run(tmp_path, actors, n_readings=40, subdir="small")
    big, _, _ = sealed_run(tmp_path, actors, n_readings=320, subdir="big")
    assert len(big.indices()) >= 4 * len(small.indices())

    def size_of(store) -> int:
        path = tmp_path / f"probe-{store.root.name}.ssb"
        write_bundle_file(path, store.get_auditor_bundle(2, 3))
        return path.stat().st_size

    assert abs(size_of(small) - size_of(big)) < 600  # notices/strings jitter only


def test_proof_storage_overhead_linear_in_chunks(tmp_path, actors):
    # proof bytes per chunk are flat, so cumulative overhead grows with
    # chunk count, not with observation span
    store, _, _ = sealed_run(tmp_path, actors, n_readings=120, window_ms=4_000,
                             step_ms=900)
    indices = store.indices()
    assert len(indices) >= 6
    per_chunk = []
    for i in indices:
        sections = store.manifest["chunks"][str(i)]["sections"]
        proof_bytes = sections["5"][0] + sections["6"][0] + sections["7"][0]
        per_chunk.append(proof_bytes)
    assert len(set(per_chunk)) == 1
    cumulative = [sum(per_chunk[:k]) for k in range(1, len(per_chunk) + 1)]
    diffs = {b - a for a, b in zip(cumulative, cumulative[1:])}
    assert diffs == {per_chunk[0]}


# --- manifest writes -------------------------------------------------------------

_ACTORS = make_actors()


def _live_sealer(root):
    store = ChunkStore(root)
    sealer = Sealer(_ACTORS.enclave, _ACTORS.notifier.public, _ACTORS.registry, store,
                    policy=ChunkPolicy(max_window_ms=1_000))
    return store, sealer


def _submit(sealer, i):
    devices, sensors = _ACTORS.devices, _ACTORS.sensors
    sealer.submit_reading(SensorReading(
        devices[i % len(devices)], sensors[i % len(sensors)], 1_000_000 + i * 700))


def _one_record_chunk(index, t, rng):
    chunk = OpenChunk(index, rng.randbytes(32), rng.randbytes(32))
    seal_append(chunk, StatefulReading(
        SensorReading(_ACTORS.devices[0], _ACTORS.sensors[0], t), SensorState.ACTIVE))
    return close_chunk(chunk, rng.randbytes(32), _ACTORS.enclave)


def assert_manifest_is_dumps(store):
    """manifest.json holds exactly the compact JSON of `store.manifest`."""
    raw = store.manifest_path.read_bytes()
    assert raw == json.dumps(json.loads(raw), separators=(",", ":")).encode()
    assert raw == json.dumps(store.manifest, separators=(",", ":")).encode()


_MANIFEST_STEPS = ("close", "bulk", "reput", "swap", "truncate", "delete", "pop",
                   "reorder", "terminal", "reopen")


@settings(max_examples=25, deadline=None)
@given(steps=st.lists(st.sampled_from(_MANIFEST_STEPS), min_size=1, max_size=12))
def test_manifest_bytes_equal_json_dumps_after_every_step(steps):
    rng = random.Random(0)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        store, sealer = _live_sealer(root)
        for i in range(12):  # live closes, no bulk()
            _submit(sealer, i)
            assert_manifest_is_dumps(store)
        sealer.finalize()
        assert_manifest_is_dumps(store)
        t = 10_000_000

        def close():
            nonlocal t
            t += 1_000
            index = max(store.indices(), default=0) + 1
            store.put_sealed_chunk(_one_record_chunk(index, t, rng))

        truncated = set()  # chunks that no longer parse, so are not re-put or swapped
        for step in steps:
            indices = store.indices()
            intact = [i for i in indices if i not in truncated]
            if step == "close":
                close()
            elif step == "bulk":
                with store.bulk():
                    for _ in range(3):
                        close()
            elif step == "reput" and intact:
                index = rng.choice(intact)
                parsed = parse_chunk(store.chunk_raw(index))
                store.put_chunk(store.manifest["chunks"][str(index)]["file"],
                                replace(parsed, ruleset_digest=bytes(32)))
            elif step in ("swap", "truncate", "delete") and len(intact) >= 2:
                kind = {"swap": TamperKind.SWAP_CHUNKS, "truncate": TamperKind.TRUNCATE_CHUNK,
                        "delete": TamperKind.DELETE_CHUNK}[step]
                x, y = rng.sample(intact, 2)
                apply_tamper(root, TamperAction(kind, chunk=x, other_chunk=y), rng)
                if step == "truncate":
                    truncated.add(x)
                store = ChunkStore(root)  # the harness wrote through a store of its own
            elif step == "pop" and indices:
                store.manifest["chunks"].pop(str(rng.choice(indices)))
                store._save_manifest()
            elif step == "reorder":  # a direct edit that moves the first top-level key last
                key = next(iter(store.manifest))
                store.manifest[key] = store.manifest.pop(key)
                store._save_manifest()
            elif step == "terminal":
                store.set_terminal(rng.randbytes(32))
            elif step == "reopen":
                store = ChunkStore(root)
                close()  # the first write of a reopened store
            assert_manifest_is_dumps(store)


def test_live_closes_encode_one_manifest_entry_each(tmp_path, monkeypatch):
    whole, entries = [], []

    def counting_dumps(obj, **kw):
        if "chunks" in obj:
            whole.append(len(obj["chunks"]))
        else:
            entries.append(obj)
        return json.dumps(obj, **kw)

    monkeypatch.setattr(store_module, "json", SimpleNamespace(dumps=counting_dumps,
                                                               loads=json.loads))
    store, sealer = _live_sealer(tmp_path / "store")
    for i in range(200):
        _submit(sealer, i * 2)  # 1,400 ms apart: every reading opens a chunk
    sealer.finalize()
    assert len(store.indices()) == 200
    # one entry per close, plus the whole-object writes of initialize and set_terminal
    # (the whole-manifest rewrite per close encoded 20,100 entries)
    assert len(entries) == 200
    assert whole == [0, 200]
    assert_manifest_is_dumps(store)


def test_failed_manifest_write_is_not_spliced_onto(tmp_path, monkeypatch):
    rng = random.Random(1)
    store = ChunkStore(tmp_path / "store")
    store.initialize(rng.randbytes(32))
    store.put_sealed_chunk(_one_record_chunk(1, 1_000, rng))
    real_write = store_module._atomic_write

    def full_disk(path, data):
        if path == store.manifest_path:
            raise OSError(28, "No space left on device")
        real_write(path, data)

    monkeypatch.setattr(store_module, "_atomic_write", full_disk)
    with pytest.raises(OSError):
        store.put_sealed_chunk(_one_record_chunk(2, 2_000, rng))
    monkeypatch.setattr(store_module, "_atomic_write", real_write)
    store.put_sealed_chunk(_one_record_chunk(3, 3_000, rng))
    assert store.indices() == [1, 2, 3]
    assert_manifest_is_dumps(store)
