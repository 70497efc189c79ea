"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
pass; tolerances are pinned in the assertions, not configurable.
"""

import hashlib
import random
import shutil
import time
import tracemalloc

from conftest import ALLOW_ALL, PSK, make_actors, sealed_run
from sensorseal import (
    ChunkPolicy,
    ChunkStore,
    DataCaptureRule,
    DeviceId,
    KeyPair,
    PresharedKeyAuth,
    Role,
    RuleAction,
    RuleSet,
    Sealer,
    SensorId,
    SensorReading,
    SensorState,
    StatefulReading,
    TamperAction,
    TamperKind,
    WorkloadSpec,
    apply_tamper,
    audit_range,
    generate,
    make_ack,
    verify_signature,
    verify_user_range,
)
from sensorseal.bench import auditor_scaling, linear_fit
from sensorseal.harness import MS_PER_HOUR, device_pool, building_sensors
from sensorseal.notices import NotificationModel
from sensorseal.sealing import OpenChunk, close_chunk, seal_append
from sensorseal.store import _encode_user_entry, read_bundle_file, write_bundle_file
from sensorseal.store import derive_user_records, parse_chunk, serialize_chunk


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- 1. round-trip integrity at week scale -------------------------------------

def test_criterion_1_week_roundtrip(tmp_path):
    started = time.perf_counter()
    spec = WorkloadSpec(n_sensors=60, n_buildings=6, n_devices=40,
                        duration_ms=7 * 24 * MS_PER_HOUR, rate_scale=0.01, seed=101)
    devices = device_pool(spec.seed, spec.n_devices)
    enclave = KeyPair.generate(Role.ENCLAVE)
    notifier_keys = KeyPair.generate(Role.NOTIFIER)
    from sensorseal.notices import Notifier, UserRegistration

    notifier = Notifier(notifier_keys)
    device_keys = {d: KeyPair.generate(Role.DEVICE) for d in devices}
    registry = {d: k.public for d, k in device_keys.items()}
    regs = [UserRegistration(d, f"u{i}@x", registry[d]) for i, d in enumerate(devices)]

    store = ChunkStore(tmp_path / "store", user_auth=PresharedKeyAuth(PSK))
    sealer = Sealer(enclave, notifier_keys.public, registry, store,
                    policy=ChunkPolicy(checkpoint_every=256), model=NotificationModel.NOM)
    rules = RuleSet.of([
        DataCaptureRule("retain-all", RuleAction.OPT_IN,
                        valid_from=spec.start_ms, valid_to=spec.start_ms + 10**12,
                        created_at=spec.start_ms),
        DataCaptureRule("optout-building-2", RuleAction.OPT_OUT,
                        sensor_filter=building_sensors(spec, 2),
                        valid_from=spec.start_ms, valid_to=spec.start_ms + 10**12,
                        created_at=spec.start_ms + 1),
    ])
    envelope = sealer.install_ruleset(rules)
    notice, _, receipt = notifier.publish(envelope, regs, "n1", spec.start_ms)
    store.append_notice(notice)
    sealer.confirm_notice_receipt(receipt)

    expected: dict = {d: [] for d in devices}
    n = 0
    with store.bulk():
        for ct in generate(spec, enclave.public):
            sr = sealer.ingest(ct)
            n += 1
            expected[sr.reading.device].append((sr.reading.time, sr.reading.sensor, sr.state))
        sealer.finalize()
    chunks = store.indices()

    bundle = store.get_auditor_bundle(chunks[0], chunks[-1])
    verdicts, summary = audit_range(bundle, enclave.public, notifier_keys.public)
    all_intact = summary["intact"] == len(chunks)

    probe_devices = devices[:5]
    users_ok = True
    presence_ok = True
    for device in probe_devices:
        results, _ = verify_user_range(
            store.get_user_bundle(chunks[0], chunks[-1], PSK), device, enclave.public)
        users_ok &= all(v.ok for v, _ in results)
        seen = [(e.time, e.sensor, e.state) for _, r in results for e in r.entries]
        presence_ok &= seen == expected[device]
    elapsed = time.perf_counter() - started

    per_day = len(chunks) / 7
    ok = (len(chunks) >= 200 and 46 <= per_day <= 50 and all_intact and users_ok
          and presence_ok and elapsed < 120.0)
    report(1, ok, f"{n} readings, {len(chunks)} chunks ({per_day:.1f}/day), auditor "
                  f"{summary['intact']}/{len(chunks)} intact, 5 users intact={users_ok}, "
                  f"presence exact={presence_ok}, {elapsed:.1f}s (< 120s)")


# --- 2. tamper matrix ------------------------------------------------------------

def test_criterion_2_tamper_matrix(tmp_path):
    actors = make_actors(n_devices=5, n_sensors=4)
    mixed = RuleSet.of([
        DataCaptureRule("retain", RuleAction.OPT_IN, created_at=1),
        DataCaptureRule("optout-two", RuleAction.OPT_OUT,
                        device_filter=frozenset(actors.devices[:2]), created_at=2),
    ])
    base_store, _, _ = sealed_run(tmp_path, actors, n_readings=72, window_ms=12_000,
                                  checkpoint_every=8, ruleset=mixed, subdir="base")
    indices = base_store.indices()
    first, last = indices[0], indices[-1]
    rng = random.Random(2024)

    false_negatives = []
    trials_per_kind = 100
    for kind in TamperKind:
        for trial in range(trials_per_kind):
            work = tmp_path / "work"
            if work.exists():
                shutil.rmtree(work)
            shutil.copytree(base_store.root, work)
            target = "user" if (kind is TamperKind.FORGE_PROOF and trial % 2) else "integrity"
            apply_tamper(work, TamperAction(kind, target=target), rng)
            tampered = ChunkStore(work, user_auth=PresharedKeyAuth(PSK))
            if kind is TamperKind.FORGE_PROOF and target == "user":
                results, _ = verify_user_range(
                    tampered.get_user_bundle(first, last, PSK),
                    actors.devices[0], actors.enclave.public)
                detected = any(not v.ok for v, _ in results)
            else:
                verdicts, _ = audit_range(tampered.get_auditor_bundle(first, last),
                                          actors.enclave.public, actors.notifier.public)
                detected = any(not v.ok for v in verdicts)
            if not detected:
                false_negatives.append((kind, trial))

    false_positives = 0
    for trial in range(1000):
        trial_actors = make_actors(n_devices=3, n_sensors=3, seed=trial + 1)
        store, _, _ = sealed_run(
            tmp_path, trial_actors,
            n_readings=rng.randint(6, 40),
            window_ms=rng.choice([4_000, 9_000, 30_000]),
            step_ms=rng.randint(150, 1_500),
            checkpoint_every=rng.choice([4, 64, 256]),
            ruleset=rng.choice([ALLOW_ALL, mixed, None]),
            subdir=f"clean{trial}",
        )
        idx = store.indices()
        verdicts, _ = audit_range(store.get_auditor_bundle(idx[0], idx[-1]),
                                  trial_actors.enclave.public)
        results, _ = verify_user_range(store.get_user_bundle(idx[0], idx[-1], PSK),
                                       trial_actors.devices[0], trial_actors.enclave.public)
        if not all(v.ok for v in verdicts) or not all(v.ok for v, _ in results):
            false_positives += 1
        shutil.rmtree(store.root)

    ok = not false_negatives and false_positives == 0
    report(2, ok, f"{len(TamperKind)}x{trials_per_kind} tampers, "
                  f"{len(false_negatives)} false negatives; "
                  f"1000 clean trials, {false_positives} false positives")


# --- 3. verification-time scaling -------------------------------------------------

def test_criterion_3_linear_scaling(tmp_path):
    actors = make_actors(n_devices=6, n_sensors=4)
    store = ChunkStore(tmp_path / "bench")
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store,
                    policy=ChunkPolicy(max_window_ms=30_000, checkpoint_every=256))
    t = 1_020_000  # aligned to the 30s window grid
    with store.bulk():
        for i in range(1000 * 30):
            sealer.submit_reading(SensorReading(
                actors.devices[i % 6], actors.sensors[i % 4], t + i * 1_000))
        sealer.finalize()
    assert len(store.indices()) >= 1000

    points = auditor_scaling(store, actors.enclave.public,
                             counts=(1, 50, 100, 500, 1000), repeats=3)
    slope, intercept, r2 = linear_fit(points)
    ok = r2 >= 0.98 and slope > 0
    times = ", ".join(f"{p.chunks}:{p.seconds:.3f}s" for p in points)
    report(3, ok, f"auditor scaling [{times}] fit R^2={r2:.4f} (>= 0.98)")


# --- 4. sealing throughput ----------------------------------------------------------

def test_criterion_4_chunk_sealing_throughput():
    rng = random.Random(44)
    devices = [rng.randbytes(6) for _ in range(300)]
    sensors = [f"b{i % 30:02d}-ap{i:03d}".encode() for i in range(490)]
    n = 37_000
    readings = [
        StatefulReading(
            SensorReading(DeviceId(rng.choice(devices)), SensorId(rng.choice(sensors)),
                          1_700_000_000_000 + i * 49),
            SensorState.ACTIVE if rng.random() < 0.8 else SensorState.PASSIVE,
        )
        for i in range(n)
    ]
    signer = KeyPair.generate(Role.ENCLAVE)
    g = [rng.randbytes(32) for _ in range(3)]

    samples = []
    for _ in range(3):
        chunk = OpenChunk(1, g[1], g[2])
        started = time.perf_counter()
        for sr in readings:
            seal_append(chunk, sr, 256)
        sealed = close_chunk(chunk, g[0], signer, 256)
        samples.append(time.perf_counter() - started)
    best = min(samples)
    ok = best <= 1.0 and sealed.n_readings == n
    report(4, ok, f"sealing a {n}-reading chunk took {best:.3f}s (<= 1.0s)")


# --- 5. proof overhead proportionality -----------------------------------------------

def test_criterion_5_proof_overhead(tmp_path):
    actors = make_actors(n_devices=6, n_sensors=5)
    store, _, _ = sealed_run(tmp_path, actors, n_readings=400, window_ms=20_000,
                             step_ms=500, checkpoint_every=256)
    indices = store.indices()
    pi_sizes = {store.manifest["chunks"][str(i)]["sections"]["5"][0] for i in indices}
    pi_constant = len(pi_sizes) == 1

    per_reading_max = 0.0
    entry_constant = 4 + 98  # record-count field + user proof
    for entry in store.get_user_bundle(indices[0], indices[-1], PSK).entries:
        payload = len(_encode_user_entry(entry))
        per_reading_max = max(per_reading_max,
                              (payload - entry_constant) / len(entry.records))
    ok = pi_constant and per_reading_max <= 64.0
    report(5, ok, f"integrity proof {pi_sizes} bytes per chunk (constant), "
                  f"user-side {per_reading_max:.1f} B/reading (<= 64)")


# --- 6. constrained user verification --------------------------------------------------

def test_criterion_6_user_streaming(tmp_path):
    actors = make_actors(n_devices=8, n_sensors=5)
    store, _, _ = sealed_run(tmp_path, actors, n_readings=100_000, window_ms=60_000,
                             step_ms=30, checkpoint_every=256)
    indices = store.indices()
    assert len(indices) >= 50
    first, last = indices[0], indices[0] + 49

    bundle_path = tmp_path / "user.ssb"
    write_bundle_file(bundle_path, store.get_user_bundle(first, last, PSK))
    tracemalloc.start()
    started = time.perf_counter()
    results, summary = verify_user_range(read_bundle_file(bundle_path),
                                         actors.devices[0], actors.enclave.public)
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    readings = sum(store.manifest["chunks"][str(i)]["n"] for i in range(first, last + 1))
    ok = (elapsed <= 30.0 and all(v.ok for v, _ in results)
          and peak < 256 * 1024 * 1024)
    report(6, ok, f"50 chunks / {readings} readings streamed single-threaded in "
                  f"{elapsed:.2f}s (<= 30s), peak alloc {peak / 1e6:.0f} MB")


# --- 7. oracle equivalence ---------------------------------------------------------------

def oracle_seal(raw_readings, prev_string, own_string, next_string):
    """Straight-line reimplementation sharing no fold logic with the library."""
    H = lambda b: hashlib.sha256(b).digest()

    def lp2(b):
        return len(b).to_bytes(2, "big") + b

    h = H(b"\x00" * 8)
    fold = 0
    tags = []
    for device, sensor, state, t in raw_readings:
        t8 = t.to_bytes(8, "big")
        tag = H(lp2(device) + t8)
        tags.append(tag)
        if state == 1:
            record = lp2(device) + lp2(sensor) + b"\x01" + t8
        else:
            record = tag + lp2(sensor) + b"\x00" + t8
        h = H(record + h)
        fold ^= int.from_bytes(H(tag + bytes([state])), "big")
    eoc_mask = (int.from_bytes(prev_string, "big") ^ int.from_bytes(own_string, "big")
                ^ int.from_bytes(next_string, "big")).to_bytes(32, "big")
    user_fold = fold.to_bytes(32, "big")
    xor32 = lambda a, b: (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(32, "big")
    return h, user_fold, tags, eoc_mask, xor32(h, eoc_mask), xor32(user_fold, eoc_mask)


def test_criterion_7_oracle_equivalence():
    signer = KeyPair.generate(Role.ENCLAVE)
    mismatches = 0
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(1, 20)
        raw = []
        t = rng.randint(1, 10**12)
        for _ in range(n):
            t += rng.randint(0, 5_000)
            raw.append((rng.randbytes(rng.randint(1, 12)),
                        rng.randbytes(rng.randint(1, 12)),
                        rng.randint(0, 1), t))
        g = [rng.randbytes(32) for _ in range(3)]

        chunk = OpenChunk(1, g[1], g[2])
        for device, sensor, state, when in raw:
            chunk_input = StatefulReading(
                SensorReading(DeviceId(device), SensorId(sensor), when),
                SensorState(state))
            seal_append(chunk, chunk_input, 7)
        sealed = close_chunk(chunk, g[0], signer, 7)
        lib_tags = [enc[:32] for enc in derive_user_records(parse_chunk(serialize_chunk(sealed)))]

        h, user_fold, tags, eoc_mask, chain_payload, user_payload = oracle_seal(raw, *g)
        same = (
            sealed.checkpoints[-1] == h
            and lib_tags == tags
            and verify_signature(signer.public, chain_payload, sealed.integrity_proof.sig)
            and verify_signature(signer.public, user_payload, sealed.user_proof.sig)
        )
        if not same:
            mismatches += 1
    report(7, mismatches == 0,
           f"100 random chunks: sealer output bit-identical to the straight-line "
           f"oracle ({mismatches} mismatches)")


# --- 8. privacy scan ------------------------------------------------------------------------

def test_criterion_8_privacy_scan(tmp_path):
    leaks = 0
    for run_id in range(50):
        rng = random.Random(1_000 + run_id)
        actors = make_actors(n_devices=rng.randint(6, 10), n_sensors=4, seed=run_id)
        consenting = [d for d in actors.devices if rng.random() < 0.5]
        rules = RuleSet.of([
            DataCaptureRule("retain", RuleAction.OPT_IN, created_at=1),
            DataCaptureRule("named-optout", RuleAction.OPT_OUT,
                            device_filter=frozenset(rng.sample(actors.devices, 2)),
                            created_at=2),
        ])
        store = ChunkStore(tmp_path / f"r{run_id}", user_auth=PresharedKeyAuth(PSK))
        sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store,
                        policy=ChunkPolicy(max_window_ms=10_000, checkpoint_every=16),
                        model=NotificationModel.NAM)
        envelope = sealer.install_ruleset(rules)
        notice, _, _ = actors.notifier.publish(envelope, actors.registrations, "n1", 500)
        store.append_notice(notice)
        store.put_rule_envelope(envelope)
        for device in consenting:
            ack = make_ack(actors.device_keys[device], device, "n1", 600)
            store.append_ack(ack)
            sealer.register_ack(ack)
        t = 1_000
        for _ in range(rng.randint(30, 80)):
            t += rng.randint(100, 2_000)
            sealer.submit_reading(SensorReading(
                rng.choice(actors.devices), rng.choice(actors.sensors), t))
        sealer.finalize()

        indices = store.indices()
        bundle_path = store.root / "probe.ssb"
        write_bundle_file(bundle_path, store.get_user_bundle(indices[0], indices[-1], PSK))

        blob = b"".join(p.read_bytes() for p in sorted(store.root.rglob("*")) if p.is_file())
        non_consenting = [d for d in actors.devices if d not in consenting]
        for device in non_consenting:
            if device.id in blob:
                leaks += 1
        shutil.rmtree(store.root)
    report(8, leaks == 0,
           f"50 notice-and-ACK runs scanned; {leaks} non-consenting device-id "
           f"byte patterns in store bytes or user bundles")


# --- 9. notification gating -----------------------------------------------------------------

def test_criterion_9_gating_interleavings(tmp_path):
    actors = make_actors(n_devices=3, n_sensors=2)
    violations = 0
    for trial in range(1000):
        rng = random.Random(trial)
        model = NotificationModel.NOM if trial % 2 == 0 else NotificationModel.NAM
        store = ChunkStore(tmp_path / f"g{trial}")
        sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry, store,
                        policy=ChunkPolicy(max_window_ms=rng.choice([2_000, 5_000]),
                                           checkpoint_every=8),
                        model=model)
        events = ["install"] + ["read"] * rng.randint(3, 8)
        if model is NotificationModel.NOM:
            events.append("receipt")
        else:
            events += [("ack", d) for d in rng.sample(actors.devices, rng.randint(0, 3))]
        rng.shuffle(events)

        installed = receipt_done = False
        acked: set = set()
        notice_artifacts = None
        t = 1_000
        for event in events:
            if event == "install":
                envelope = sealer.install_ruleset(ALLOW_ALL)
                notice_artifacts = actors.notifier.publish(
                    envelope, actors.registrations, "n1", t)
                installed = True
            elif event == "receipt":
                if not installed:
                    continue  # a receipt cannot precede its notice
                sealer.confirm_notice_receipt(notice_artifacts[2])
                receipt_done = True
            elif isinstance(event, tuple):
                device = event[1]
                if not installed:
                    continue
                sealer.register_ack(make_ack(actors.device_keys[device], device, "n1", t))
                acked.add(device)
            else:
                t += rng.randint(100, 3_000)
                device = rng.choice(actors.devices)
                sr = sealer.submit_reading(SensorReading(device, actors.sensors[0], t))
                gated = receipt_done if model is NotificationModel.NOM else (device in acked)
                if not gated and sr.state is not SensorState.PASSIVE:
                    violations += 1
        sealer.finalize()
        shutil.rmtree(store.root)
    report(9, violations == 0,
           f"1000 interleavings (notice-only and notice-and-ACK): {violations} "
           f"readings retained before their gate")
