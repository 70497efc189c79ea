"""Verifier completeness, soundness, localization, and privacy.

Soundness is exhaustive at small scale: every bit of every persisted
byte of one chunk file is flipped and at least one verifier must flag
the chunk. Localization is checked against an exhaustive prefix-refold
oracle that knows the untampered records.
"""

import dataclasses
import random

import pytest

from conftest import ALLOW_ALL, PSK, make_actors, sealed_run
from sensorseal import (
    ChunkPolicy,
    ChunkStore,
    DataCaptureRule,
    DeviceId,
    Outcome,
    PresharedKeyAuth,
    RuleAction,
    RuleSet,
    Sealer,
    SensorId,
    SensorReading,
    TamperAction,
    TamperKind,
    apply_tamper,
    audit_range,
    verify_user_range,
)
from sensorseal.store import parse_chunk, read_bundle_file, write_bundle_file
from sensorseal.verify import audit_chunk, expected_rule_digests, verify_user_chunk


def audit_all(store, actors, first=None, last=None):
    indices = store.indices()
    first = first or (indices[0] if indices else 1)
    last = last or (indices[-1] if indices else 1)
    bundle = store.get_auditor_bundle(first, last)
    return audit_range(bundle, actors.enclave.public, actors.notifier.public)


# --- completeness ----------------------------------------------------------------

@pytest.mark.parametrize("n_readings", [1, 2, 3, 17, 260, 2_000, 10_000])
def test_seal_then_verify_intact(tmp_path, n_readings):
    actors = make_actors(n_devices=6, n_sensors=4, seed=n_readings)
    mixed = RuleSet.of([
        DataCaptureRule("retain", RuleAction.OPT_IN, created_at=1),
        DataCaptureRule("optout-two", RuleAction.OPT_OUT,
                        device_filter=frozenset(actors.devices[:2]), created_at=2),
    ])
    store, _, sealed = sealed_run(
        tmp_path, actors, n_readings=n_readings, window_ms=60_000, step_ms=137,
        checkpoint_every=64, ruleset=mixed,
    )
    verdicts, summary = audit_all(store, actors)
    assert summary["intact"] == summary["chunks"] == len(store.indices())
    results, _ = verify_user_range(
        store.get_user_bundle(1, store.indices()[-1], PSK),
        actors.devices[0], actors.enclave.public)
    assert all(v.ok for v, _ in results)


def test_random_interleavings_verify(tmp_path):
    rng = random.Random(42)
    for trial in range(10):
        actors = make_actors(n_devices=3, n_sensors=3, seed=trial)
        store, _, _ = sealed_run(
            tmp_path, actors,
            n_readings=rng.randint(1, 120),
            window_ms=rng.choice([3_000, 10_000, 50_000]),
            step_ms=rng.randint(100, 2_000),
            checkpoint_every=rng.choice([1, 4, 256]),
            subdir=f"s{trial}",
        )
        verdicts, summary = audit_all(store, actors)
        assert summary["intact"] == summary["chunks"]


# --- soundness: exhaustive byte flips -----------------------------------------------

def test_every_bit_flip_detected(tmp_path):
    actors = make_actors(n_devices=4, n_sensors=2)
    mixed = RuleSet.of([
        DataCaptureRule("retain", RuleAction.OPT_IN, created_at=1),
        DataCaptureRule("optout-two", RuleAction.OPT_OUT,
                        device_filter=frozenset(actors.devices[:2]), created_at=2),
    ])
    store, _, _ = sealed_run(tmp_path, actors, n_readings=20, window_ms=10**9,
                             checkpoint_every=8, ruleset=mixed)
    assert store.indices() == [1]
    original = store.chunk_raw(1)
    path = store.root / store.manifest["chunks"]["1"]["file"]
    expected = expected_rule_digests(store.notices(), actors.notifier.public)
    strings = store.get_auditor_bundle(1, 1).strings
    device = actors.devices[2]

    undetected = []
    for byte_index in range(len(original)):
        for bit in range(8):
            mutated = bytearray(original)
            mutated[byte_index] ^= 1 << bit
            path.write_bytes(bytes(mutated))
            from sensorseal.store import AuditorEntry

            verdict = audit_chunk(AuditorEntry(1, bytes(mutated)), strings,
                                  actors.enclave.public, expected)
            if verdict.ok:
                # auditor ignores the user proof's signature bytes; the
                # user verifier must catch those
                tampered_store = ChunkStore(store.root, user_auth=PresharedKeyAuth(PSK))
                entry = next(iter(tampered_store.get_user_bundle(1, 1, PSK).entries))
                user_verdict, _ = verify_user_chunk(entry, device, strings,
                                                    actors.enclave.public)
                if user_verdict.ok:
                    undetected.append((byte_index, bit))
    path.write_bytes(original)
    assert undetected == []


# --- localization ---------------------------------------------------------------------

def build_single_chunk(tmp_path, n=100, checkpoint_every=8):
    actors = make_actors(n_devices=5, n_sensors=3)
    store, _, sealed = sealed_run(tmp_path, actors, n_readings=n, window_ms=10**12,
                                  step_ms=911, checkpoint_every=checkpoint_every)
    assert store.indices() == [1]
    return actors, store, sealed


def true_first_divergence(original_encs: list[bytes], tampered_encs: list[bytes]) -> int:
    """Oracle: exhaustive prefix refold over both record sequences."""
    for i, (a, b) in enumerate(zip(original_encs, tampered_encs), 1):
        if a != b:
            return i
    return min(len(original_encs), len(tampered_encs)) + 1


@pytest.mark.parametrize("record", [1, 7, 23, 50, 99, 100])
def test_localization_never_overshoots(tmp_path, record):
    actors, store, _ = build_single_chunk(tmp_path / str(record))
    original = parse_chunk(store.chunk_raw(1))
    original_encs = [enc for _, enc, _ in original.merged()]

    apply_tamper(store.root, TamperAction(TamperKind.MODIFY_READING, chunk=1, record=record),
                 random.Random(record))
    tampered = store.chunk_raw(1)
    verdicts, _ = audit_all(store, actors)
    v = verdicts[0]
    assert v.outcome is Outcome.TAMPERED
    try:
        tampered_encs = [enc for _, enc, _ in parse_chunk(tampered).merged()]
        truth = true_first_divergence(original_encs, tampered_encs)
    except Exception:
        truth = record  # structural damage; tamper hit the named record
    assert v.first_bad_record is not None
    assert v.first_bad_record <= truth


def test_exact_localization_with_unit_checkpoints(tmp_path):
    actors, store, _ = build_single_chunk(tmp_path, n=40, checkpoint_every=1)
    apply_tamper(store.root, TamperAction(TamperKind.MODIFY_READING, chunk=1, record=17),
                 random.Random(0))
    verdicts, _ = audit_all(store, actors)
    assert verdicts[0].outcome is Outcome.TAMPERED
    assert verdicts[0].first_bad_record == 17


# --- deletion / truncation / reordering --------------------------------------------------

@pytest.fixture
def eight_chunks(tmp_path):
    actors = make_actors()
    store, _, _ = sealed_run(tmp_path, actors, n_readings=64, window_ms=8_000,
                             step_ms=1_000)
    assert len(store.indices()) == 8
    return actors, store


def test_interior_deletion_flags_both_neighbors(eight_chunks):
    actors, store = eight_chunks
    apply_tamper(store.root, TamperAction(TamperKind.DELETE_CHUNK, chunk=4))
    verdicts, _ = audit_all(ChunkStore(store.root), actors, first=1, last=8)
    by_index = {v.chunk_index: v for v in verdicts}
    assert by_index[4].outcome is Outcome.MISSING
    assert by_index[3].outcome is Outcome.BAD_PROOF
    assert by_index[5].outcome is Outcome.BAD_PROOF
    non_intact = [v for v in verdicts if not v.ok]
    assert len(non_intact) >= 3


def test_tail_truncation_cascades(eight_chunks):
    actors, store = eight_chunks
    # the store "loses" the last 5 chunks and the terminal string
    for i in range(4, 9):
        entry = store.manifest["chunks"].pop(str(i))
        (store.root / entry["file"]).unlink()
    store.manifest["terminal"] = None
    store._save_manifest()
    verdicts, _ = audit_all(ChunkStore(store.root), actors, first=1, last=8)
    by_index = {v.chunk_index: v for v in verdicts}
    for i in (4, 5, 6, 7, 8):
        assert by_index[i].outcome is Outcome.MISSING
    assert by_index[3].outcome is Outcome.BAD_PROOF  # its next string is gone
    assert by_index[1].ok and by_index[2].ok


def test_tail_truncation_with_stale_terminal_detected(eight_chunks):
    actors, store = eight_chunks
    for i in range(6, 9):
        entry = store.manifest["chunks"].pop(str(i))
        (store.root / entry["file"]).unlink()
    store._save_manifest()  # terminal left pointing past the removed tail
    verdicts, _ = audit_all(ChunkStore(store.root), actors, first=1, last=8)
    by_index = {v.chunk_index: v for v in verdicts}
    assert by_index[5].outcome is Outcome.BAD_PROOF
    assert by_index[4].ok


def test_swap_detected_even_with_coherent_metadata(eight_chunks):
    actors, store = eight_chunks
    apply_tamper(store.root, TamperAction(TamperKind.SWAP_CHUNKS, chunk=2, other_chunk=6))
    verdicts, _ = audit_all(ChunkStore(store.root), actors)
    by_index = {v.chunk_index: v for v in verdicts}
    assert not by_index[2].ok
    assert not by_index[6].ok


def test_forged_proof_reads_as_bad_proof(eight_chunks):
    actors, store = eight_chunks
    apply_tamper(store.root, TamperAction(TamperKind.FORGE_PROOF, chunk=3, target="integrity"))
    verdicts, _ = audit_all(ChunkStore(store.root), actors)
    by_index = {v.chunk_index: v for v in verdicts}
    assert by_index[3].outcome is Outcome.BAD_PROOF


def test_modified_payload_reads_as_tampered(eight_chunks):
    actors, store = eight_chunks
    apply_tamper(store.root, TamperAction(TamperKind.MODIFY_READING, chunk=5),
                 random.Random(1))
    verdicts, _ = audit_all(ChunkStore(store.root), actors)
    by_index = {v.chunk_index: v for v in verdicts}
    assert by_index[5].outcome is Outcome.TAMPERED


# --- user verification ------------------------------------------------------------------

def test_presence_report_exact(tmp_path):
    actors = make_actors(n_devices=3)
    store = ChunkStore(tmp_path / "s", user_auth=PresharedKeyAuth(PSK))
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store,
                    policy=ChunkPolicy(max_window_ms=10**9, checkpoint_every=16))
    envelope = sealer.install_ruleset(ALLOW_ALL)
    notice, _, receipt = actors.notifier.publish(envelope, actors.registrations, "n1", 1)
    store.append_notice(notice)
    sealer.confirm_notice_receipt(receipt)
    me, other = actors.devices[0], actors.devices[1]
    mine = [(1_000, actors.sensors[0]), (2_000, actors.sensors[1]), (3_500, actors.sensors[0])]
    t = 500
    sealer.submit_reading(SensorReading(other, actors.sensors[2], t))
    for when, sensor in mine:
        sealer.submit_reading(SensorReading(me, sensor, when))
        sealer.submit_reading(SensorReading(other, actors.sensors[2], when + 100))
    sealer.finalize()

    results, summary = verify_user_range(
        store.get_user_bundle(1, 1, PSK), me, actors.enclave.public)
    verdict, report = results[0]
    assert verdict.ok
    assert [(e.time, e.sensor) for e in report.entries] == mine
    assert summary["occurrences"] == 3


def test_absent_device_empty_report_still_intact(tmp_path, actors):
    store, _, _ = sealed_run(tmp_path, actors, n_readings=12)
    ghost = DeviceId(b"\xfe" * 8)
    results, summary = verify_user_range(
        store.get_user_bundle(1, 1, PSK), ghost, actors.enclave.public)
    verdict, report = results[0]
    assert verdict.ok and report.entries == ()
    assert summary["occurrences"] == 0


def test_user_detects_deleted_record(tmp_path, actors):
    store, _, _ = sealed_run(tmp_path, actors, n_readings=20, ruleset=None,
                             window_ms=10**9)
    apply_tamper(store.root, TamperAction(TamperKind.DELETE_READING, chunk=1, record=5))
    tampered = ChunkStore(store.root, user_auth=PresharedKeyAuth(PSK))
    results, _ = verify_user_range(
        tampered.get_user_bundle(1, 1, PSK), actors.devices[0], actors.enclave.public)
    assert results[0][0].outcome is Outcome.TAMPERED


def test_user_detects_forged_user_proof(tmp_path, actors):
    store, _, _ = sealed_run(tmp_path, actors, n_readings=20, window_ms=10**9)
    apply_tamper(store.root, TamperAction(TamperKind.FORGE_PROOF, chunk=1, target="user"))
    tampered = ChunkStore(store.root, user_auth=PresharedKeyAuth(PSK))
    results, _ = verify_user_range(
        tampered.get_user_bundle(1, 1, PSK), actors.devices[0], actors.enclave.public)
    assert not results[0][0].ok


def test_user_bundle_from_deleted_chunk_is_missing(tmp_path, actors):
    store, _, _ = sealed_run(tmp_path, actors, n_readings=30)
    apply_tamper(store.root, TamperAction(TamperKind.DELETE_CHUNK, chunk=2))
    tampered = ChunkStore(store.root, user_auth=PresharedKeyAuth(PSK))
    results, _ = verify_user_range(
        tampered.get_user_bundle(1, 3, PSK), actors.devices[0], actors.enclave.public)
    outcomes = {v.chunk_index: v.outcome for v, _ in results}
    assert outcomes[2] is Outcome.MISSING
    assert outcomes[1] is Outcome.BAD_PROOF  # neighbor string gone
    assert outcomes[3] is Outcome.BAD_PROOF


# --- bundle completeness: entries first..last, each once, in order -----------------

@pytest.fixture(scope="module")
def many_chunks(tmp_path_factory):
    actors = make_actors()
    store, _, _ = sealed_run(tmp_path_factory.mktemp("many"), actors, n_readings=240)
    assert len(store.indices()) > 8
    return actors, store


def _edit_entries(change):
    return lambda bundle: dataclasses.replace(bundle, entries=change(list(bundle.entries)))


# edit of the served bundle -> (chunks flagged Tampered, in verdict order; chunks left Intact)
BUNDLE_EDITS = {
    "dropped": (_edit_entries(lambda es: es[:4] + es[5:]),
                lambda n: ([5], n - 1)),
    "tail-dropped": (_edit_entries(lambda es: es[:-2]),
                     lambda n: ([n - 1], n - 2)),
    "repeated": (_edit_entries(lambda es: es[:5] + es[4:]),
                 lambda n: ([5], n)),
    "swapped": (_edit_entries(lambda es: es[:4] + [es[5], es[4]] + es[6:]),
                lambda n: ([5, 5], n - 1)),
    "extra": (_edit_entries(lambda es: es + [dataclasses.replace(es[-1], index=es[-1].index + 1)]),
              lambda n: ([n + 1], n)),
    "range-widened": (lambda bundle: dataclasses.replace(bundle, last=2**63),
                      lambda n: ([n + 1], n)),
}


@pytest.mark.parametrize("edit", sorted(BUNDLE_EDITS))
@pytest.mark.parametrize("kind", ["auditor", "user"])
def test_bundle_entries_cover_the_range_once_in_order(many_chunks, tmp_path, kind, edit):
    """An entry absent, repeated, out of order or outside first..last is a
    Tampered verdict at that index, whatever the other entries say; a run of
    absent entries is one verdict, so a huge claimed range costs nothing."""
    actors, store = many_chunks
    n = store.indices()[-1]
    bundle = (store.get_auditor_bundle(1, n) if kind == "auditor"
              else store.get_user_bundle(1, n, PSK))
    change, expect = BUNDLE_EDITS[edit]
    path = tmp_path / "served.ssb"
    write_bundle_file(path, change(bundle))
    served = read_bundle_file(path)
    if kind == "auditor":
        verdicts, summary = audit_range(served, actors.enclave.public, actors.notifier.public)
    else:
        results, summary = verify_user_range(served, actors.devices[0], actors.enclave.public)
        verdicts = [v for v, _ in results]
    flagged, intact = expect(n)
    bad = [v for v in verdicts if not v.ok]
    assert [v.chunk_index for v in bad] == flagged
    assert all(v.outcome is Outcome.TAMPERED for v in bad)
    assert summary["intact"] == intact and summary["tampered"] == len(flagged)


def test_frequency_hiding_bundles_structurally_identical(tmp_path):
    """One device posting k readings and k devices posting one reading
    each produce user bundles with the same tag-multiset structure."""

    def bundle_tags(subdir, devices, k):
        actors = make_actors(n_devices=len(devices))
        actors.devices[:] = devices
        actors.registry.clear()
        actors.registry.update({d: actors.enclave.public for d in devices})
        store = ChunkStore(tmp_path / subdir, user_auth=PresharedKeyAuth(PSK))
        sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store,
                        policy=ChunkPolicy(max_window_ms=10**9, checkpoint_every=16))
        sensor = SensorId(b"ap-000")
        for i in range(k):
            device = devices[i % len(devices)]
            sealer.submit_reading(SensorReading(device, sensor, 1_000 + i * 333))
        sealer.finalize()
        entry = next(iter(store.get_user_bundle(1, 1, PSK).entries))
        return [rec.tag for rec in entry.records]

    k = 24
    one = bundle_tags("one", [DeviceId(b"\x01" * 6)], k)
    many = bundle_tags("many", [DeviceId(bytes([i + 1]) * 6) for i in range(k)], k)
    # no repeats in either: per-device frequency is not observable
    assert len(set(one)) == k
    assert len(set(many)) == k
    assert len(one) == len(many)
