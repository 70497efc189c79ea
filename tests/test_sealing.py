"""The sealer: chain folds against frozen straight-line values, proof
construction, chunk-boundary policy, notification gating."""

import pytest

from conftest import ALLOW_ALL, make_actors, sealed_run
from sensorseal import (
    ChunkPolicy,
    ChunkStore,
    DataCaptureRule,
    DeviceId,
    KeyPair,
    Role,
    RuleAction,
    RuleSet,
    Sealer,
    SensorId,
    SensorReading,
    SensorState,
    StatefulReading,
    make_ack,
    seal_to,
    verify_signature,
    xor_bytes,
)
from sensorseal.crypto import sha256
from sensorseal.events import encode_wire_reading, presence_digest
from sensorseal.notices import Acknowledgment, NotificationModel
from sensorseal.rules import EMPTY_RULESET_DIGEST
from sensorseal.sealing import (
    CHAIN_SEED,
    OpenChunk,
    SealingError,
    close_chunk,
    seal_append,
)
from sensorseal.store import serialize_chunk

G = bytes.fromhex("11" * 32), bytes.fromhex("25" * 32), bytes.fromhex("8e" * 32)


def sr(device: bytes, sensor: bytes, state: SensorState, t: int) -> StatefulReading:
    return StatefulReading(SensorReading(DeviceId(device), SensorId(sensor), t), state)


# three fixed readings; expected values computed by an independent
# straight-line SHA-256 script over the documented byte layout
FIXED = [
    sr(b"\xaa\xbb\xcc\xdd\xee\x01", b"ap-001", SensorState.ACTIVE, 1_700_000_000_000),
    sr(b"\xaa\xbb\xcc\xdd\xee\x02", b"ap-002", SensorState.ACTIVE, 1_700_000_000_500),
    sr(b"\xaa\xbb\xcc\xdd\xee\x01", b"ap-001", SensorState.PASSIVE, 1_700_000_001_000),
]
FIXED_H3 = "e4107cb78c8058450a79fb8d2324b88ad35b60ab3959c049f222f02f33e94c9a"
FIXED_O1 = "d002160efbc7f1d8aeb97d4ee8bf88b24cf96b3a09eec629f2d1e0f90bd574b6"
FIXED_O3 = "81217a4657ce1b18b00ba4cfd4ad9cfeb4a660004969c835a756c12c6fddc4d2"
FIXED_USER_FOLD = "059a8c3302e9adbe9b63272ca5f0eddb354b6e8caa328fa52c691b69dab521b9"


def test_chain_seed_is_hash_of_zero():
    assert CHAIN_SEED == sha256(bytes(8))
    assert CHAIN_SEED.hex() == "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"


def test_first_reading_unrolled_definition():
    chunk = OpenChunk(1, G[1], G[2])
    seal_append(chunk, FIXED[0])
    from sensorseal.events import encode_reading

    assert chunk.running_digest == sha256(encode_reading(FIXED[0]) + sha256(bytes(8)))


def test_three_reading_chain_matches_oracle():
    chunk = OpenChunk(1, G[1], G[2])
    for reading in FIXED:
        seal_append(chunk, reading)
    assert chunk.running_digest.hex() == FIXED_H3
    first = FIXED[0].reading
    assert presence_digest(first.device, first.time).hex() == FIXED_O1
    assert chunk.redacted_encs[0][:32].hex() == FIXED_O3  # a redacted record starts with its tag
    assert chunk.running_user_xor.to_bytes(32, "big").hex() == FIXED_USER_FOLD


def test_same_device_distinct_times_distinct_tags():
    chunk = OpenChunk(1, G[1], G[2])
    seal_append(chunk, FIXED[0])
    seal_append(chunk, FIXED[2])  # same device, later time
    first = FIXED[0].reading
    assert presence_digest(first.device, first.time) != chunk.redacted_encs[0][:32]


def test_passive_reading_never_in_cleartext():
    chunk = OpenChunk(1, G[1], G[2])
    for reading in FIXED:
        seal_append(chunk, reading)
    assert len(chunk.active_encs) == 2 and len(chunk.redacted_encs) == 1
    assert all(enc[-9] == SensorState.ACTIVE for enc in chunk.active_encs)
    assert FIXED[2].reading.device.id not in chunk.redacted_encs[0]


def test_close_chunk_mask_and_proofs():
    ga, gb, gc = G
    signer = KeyPair.generate(Role.ENCLAVE)
    chunk = OpenChunk(7, gb, gc)
    for reading in FIXED:
        seal_append(chunk, reading)
    sealed = close_chunk(chunk, ga, signer, checkpoint_every=256)
    eoc_mask = xor_bytes(xor_bytes(ga, gb), gc)
    assert eoc_mask.hex() == "ba" * 32
    assert verify_signature(signer.public, xor_bytes(bytes.fromhex(FIXED_H3), eoc_mask),
                            sealed.integrity_proof.sig)
    assert verify_signature(signer.public, xor_bytes(bytes.fromhex(FIXED_USER_FOLD), eoc_mask),
                            sealed.user_proof.sig)
    assert sealed.integrity_proof.string == gb
    assert sealed.checkpoints[-1].hex() == FIXED_H3


def test_checkpoints_every_k_plus_final():
    signer = KeyPair.generate(Role.ENCLAVE)
    chunk = OpenChunk(1, G[1], G[2])
    for i in range(10):
        seal_append(chunk, sr(b"\x01" * 6, b"s", SensorState.ACTIVE, 1000 + i), checkpoint_every=4)
    sealed = close_chunk(chunk, G[0], signer, checkpoint_every=4)
    assert len(sealed.checkpoints) == 3  # records 4, 8, 10


def test_append_after_close_rejected():
    signer = KeyPair.generate(Role.ENCLAVE)
    chunk = OpenChunk(1, G[1], G[2])
    seal_append(chunk, FIXED[0])
    close_chunk(chunk, G[0], signer)
    with pytest.raises(SealingError):
        seal_append(chunk, FIXED[1])
    with pytest.raises(SealingError):
        close_chunk(chunk, G[0], signer)


def test_empty_chunk_rejected():
    with pytest.raises(SealingError):
        close_chunk(OpenChunk(1, G[1], G[2]), G[0], KeyPair.generate(Role.ENCLAVE))


# --- Sealer pipeline ---------------------------------------------------------

def test_window_grid_boundaries(tmp_path, actors):
    # 10s windows; readings every 1.2s for 48s -> grid cells of 10s
    store, sealer, _ = sealed_run(tmp_path, actors, n_readings=40,
                                  window_ms=10_000, step_ms=1_200)
    assert store.indices() == [1, 2, 3, 4, 5]
    # chunk spans never cross the grid
    for i in store.indices():
        entry = store.manifest["chunks"][str(i)]
        assert entry["first_t"] // 10_000 == entry["last_t"] // 10_000


def test_size_limit_splits_chunk(tmp_path, actors):
    root = tmp_path / "s"
    store = ChunkStore(root)
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store,
                    policy=ChunkPolicy(max_bytes=200, max_window_ms=10**9))
    for i in range(20):
        sealer.submit_reading(SensorReading(actors.devices[0], actors.sensors[0], 1000 + i))
    sealer.finalize()
    assert len(store.indices()) > 1
    for i in store.indices():
        entry = store.manifest["chunks"][str(i)]
        # redacted records are 43 + len(sensor) bytes here
        assert entry["n"] * (43 + 6) <= 200 + (43 + 6)


def test_empty_windows_skipped_and_indices_consecutive(tmp_path, actors):
    root = tmp_path / "s"
    store = ChunkStore(root)
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store,
                    policy=ChunkPolicy(max_window_ms=10_000))
    # two bursts separated by a long quiet period (many empty windows)
    for t in (1_000, 2_000, 3_000):
        sealer.submit_reading(SensorReading(actors.devices[0], actors.sensors[0], t))
    for t in (500_000, 501_000):
        sealer.submit_reading(SensorReading(actors.devices[0], actors.sensors[0], t))
    sealer.finalize()
    assert store.indices() == [1, 2]


def test_timestamp_regression_rejected(tmp_path, actors):
    store = ChunkStore(tmp_path / "s")
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store)
    sealer.submit_reading(SensorReading(actors.devices[0], actors.sensors[0], 5_000))
    with pytest.raises(SealingError):
        sealer.submit_reading(SensorReading(actors.devices[0], actors.sensors[0], 4_999))


def test_finalize_publishes_terminal_and_seals_tail(tmp_path, actors):
    store, sealer, _ = sealed_run(tmp_path, actors, n_readings=7, window_ms=10**9)
    assert store.indices() == [1]
    assert store.terminal() is not None
    with pytest.raises(SealingError):
        sealer.submit_reading(SensorReading(actors.devices[0], actors.sensors[0], 10**9))


def test_neighbor_strings_thread_through_chunks(tmp_path, actors):
    store, sealer, _ = sealed_run(tmp_path, actors, n_readings=30, window_ms=10_000)
    # every chunk's end-of-chunk mask uses (prev, own, next); check via proofs
    indices = store.indices()
    from sensorseal.store import parse_chunk

    for i in indices:
        parsed = parse_chunk(store.chunk_raw(i))
        prev = store.chunk_string(i - 1) or store.seed_string()
        nxt = store.chunk_string(i + 1) or store.terminal()
        eoc_mask = xor_bytes(xor_bytes(prev, parsed.integrity_proof.string), nxt)
        assert verify_signature(actors.enclave.public,
                                xor_bytes(parsed.checkpoints[-1], eoc_mask),
                                parsed.integrity_proof.sig)


def test_ingest_decrypts_and_discards_garbage(tmp_path, actors):
    store = ChunkStore(tmp_path / "s")
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store)
    reading = SensorReading(actors.devices[0], actors.sensors[0], 9_000)
    ct = seal_to(actors.enclave.public, encode_wire_reading(reading))
    out = sealer.ingest(ct)
    assert out is not None and out.reading == reading
    corrupted = bytearray(ct)
    corrupted[40] ^= 1
    assert sealer.ingest(bytes(corrupted)) is None
    assert len(sealer.alerts) == 1


def test_ingest_discards_stale_reading(tmp_path, actors):
    # each message its own session, so only the timestamp check can turn it away
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry,
                    ChunkStore(tmp_path / "s"))
    newer, older = (seal_to(actors.enclave.public, encode_wire_reading(
        SensorReading(actors.devices[0], actors.sensors[0], t))) for t in (9_000, 8_000))
    assert sealer.ingest(newer) is not None
    assert sealer.ingest(older) is None
    assert len(sealer.alerts) == 1 and "stale" in sealer.alerts[0].reason


def test_ingest_discards_exact_replay(tmp_path, actors):
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry,
                    ChunkStore(tmp_path / "s"))
    # a one-message session: once opened it is the live one, so its counter
    # turns the same bytes away although the timestamp would pass
    ct = seal_to(actors.enclave.public, encode_wire_reading(
        SensorReading(actors.devices[0], actors.sensors[0], 9_000)))
    assert sealer.ingest(ct) is not None
    assert sealer.ingest(ct) is None
    assert len(sealer.alerts) == 1 and "replay" in sealer.alerts[0].reason


def test_no_rules_everything_passive(tmp_path, actors):
    store, _, sealed = sealed_run(tmp_path, actors, ruleset=None, n_readings=10)
    assert all(s.state is SensorState.PASSIVE for s in sealed)
    for i in store.indices():
        assert store.manifest["chunks"][str(i)]["ruleset_digest"] == EMPTY_RULESET_DIGEST.hex()


def test_nom_rules_enforced_after_receipt(tmp_path, actors):
    store, _, sealed = sealed_run(tmp_path, actors, ruleset=ALLOW_ALL, n_readings=10)
    assert all(s.state is SensorState.ACTIVE for s in sealed)
    for i in store.indices():
        assert store.manifest["chunks"][str(i)]["ruleset_digest"] == ALLOW_ALL.digest.hex()


def test_nom_without_receipt_stays_passive(tmp_path, actors):
    store = ChunkStore(tmp_path / "s")
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store,
                    model=NotificationModel.NOM)
    sealer.install_ruleset(ALLOW_ALL)  # no notifier receipt
    out = sealer.submit_reading(SensorReading(actors.devices[0], actors.sensors[0], 1_000))
    assert out.state is SensorState.PASSIVE


def test_forged_receipt_rejected(tmp_path, actors):
    from sensorseal.notices import TransmissionReceipt, receipt_payload

    store = ChunkStore(tmp_path / "s")
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store)
    sealer.install_ruleset(ALLOW_ALL)
    rogue = KeyPair.generate(Role.NOTIFIER)
    fake = TransmissionReceipt("n1", ALLOW_ALL.digest,
                               rogue.sign(receipt_payload("n1", ALLOW_ALL.digest)), 1)
    sealer.confirm_notice_receipt(fake)
    out = sealer.submit_reading(SensorReading(actors.devices[0], actors.sensors[0], 1_000))
    assert out.state is SensorState.PASSIVE
    assert any("receipt" in a.reason for a in sealer.alerts)


def test_nam_unacked_devices_forced_passive(tmp_path, actors):
    store = ChunkStore(tmp_path / "s")
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store,
                    model=NotificationModel.NAM)
    envelope = sealer.install_ruleset(ALLOW_ALL)
    notice, _, _ = actors.notifier.publish(envelope, actors.registrations, "n1", 500)
    d_ack, d_silent = actors.devices[0], actors.devices[1]
    sealer.register_ack(make_ack(actors.device_keys[d_ack], d_ack, "n1", 600))
    a = sealer.submit_reading(SensorReading(d_ack, actors.sensors[0], 1_000))
    b = sealer.submit_reading(SensorReading(d_silent, actors.sensors[0], 1_001))
    assert a.state is SensorState.ACTIVE
    assert b.state is SensorState.PASSIVE


def test_nam_forged_ack_rejected(tmp_path, actors):
    from sensorseal.notices import ack_payload

    store = ChunkStore(tmp_path / "s")
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store,
                    model=NotificationModel.NAM)
    sealer.install_ruleset(ALLOW_ALL)
    victim = actors.devices[0]
    rogue = KeyPair.generate(Role.DEVICE)
    forged = Acknowledgment("n1", victim, rogue.sign(ack_payload("n1", victim)), 600)
    assert not sealer.register_ack(forged)
    out = sealer.submit_reading(SensorReading(victim, actors.sensors[0], 1_000))
    assert out.state is SensorState.PASSIVE


def test_ack_effective_next_chunk_boundary(tmp_path, actors):
    store = ChunkStore(tmp_path / "s")
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store,
                    policy=ChunkPolicy(max_window_ms=10_000),
                    model=NotificationModel.NAM)
    sealer.install_ruleset(ALLOW_ALL)
    device = actors.devices[0]
    first = sealer.submit_reading(SensorReading(device, actors.sensors[0], 1_000))
    sealer.register_ack(make_ack(actors.device_keys[device], device, "n1", 1_500))
    mid_chunk = sealer.submit_reading(SensorReading(device, actors.sensors[0], 2_000))
    next_chunk = sealer.submit_reading(SensorReading(device, actors.sensors[0], 11_000))
    assert first.state is SensorState.PASSIVE
    assert mid_chunk.state is SensorState.PASSIVE  # ack waits for the boundary
    assert next_chunk.state is SensorState.ACTIVE


def test_duplicate_live_rule_id_rejected(tmp_path, actors):
    store = ChunkStore(tmp_path / "s")
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store)
    sealer.install_ruleset(ALLOW_ALL)
    clash = RuleSet.of([DataCaptureRule("retain-all", RuleAction.OPT_OUT, created_at=99)])
    with pytest.raises(SealingError):
        sealer.install_ruleset(clash)


def test_rule_change_takes_effect_next_chunk(tmp_path, actors):
    store = ChunkStore(tmp_path / "s")
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store,
                    policy=ChunkPolicy(max_window_ms=10_000))
    device, sensor = actors.devices[0], actors.sensors[0]
    a = sealer.submit_reading(SensorReading(device, sensor, 1_000))
    envelope = sealer.install_ruleset(ALLOW_ALL)
    _, _, receipt = actors.notifier.publish(envelope, actors.registrations, "n1", 1_500)
    sealer.confirm_notice_receipt(receipt)
    b = sealer.submit_reading(SensorReading(device, sensor, 2_000))   # same chunk
    c = sealer.submit_reading(SensorReading(device, sensor, 12_000))  # next chunk
    sealer.finalize()
    assert a.state is SensorState.PASSIVE
    assert b.state is SensorState.PASSIVE
    assert c.state is SensorState.ACTIVE
    digests = [store.manifest["chunks"][str(i)]["ruleset_digest"] for i in store.indices()]
    assert digests == [EMPTY_RULESET_DIGEST.hex(), ALLOW_ALL.digest.hex()]


def test_passive_device_ids_absent_from_chunk_bytes(tmp_path):
    actors = make_actors(n_devices=4)
    optout = actors.devices[2:]
    rs = RuleSet.of([
        DataCaptureRule("retain", RuleAction.OPT_IN, created_at=1),
        DataCaptureRule("optout", RuleAction.OPT_OUT,
                        device_filter=frozenset(optout), created_at=2),
    ])
    store, _, sealed = sealed_run(tmp_path, actors, ruleset=rs, n_readings=24)
    assert any(s.state is SensorState.PASSIVE for s in sealed)
    for i in store.indices():
        blob = store.chunk_raw(i)
        for device in optout:
            assert device.id not in blob
        assert serialize_chunk  # chunk bytes came from the canonical writer


def test_per_chunk_seal_latency_recorded(tmp_path, actors):
    _, sealer, _ = sealed_run(tmp_path, actors, n_readings=30, window_ms=10_000)
    assert len(sealer.chunk_seal_seconds) == 4
    assert all(t > 0 for t in sealer.chunk_seal_seconds)
