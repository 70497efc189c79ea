"""Command-line entry point wiring the toolkit into reproducible runs.

Stages mirror the protocol: keygen establishes the trusted authority's
key material, `rules` installs a capture policy into the sealer's
private state, `notify` publishes it through the notifier, `ack`
registers device consent, `gen` produces a transport stream, `seal`
runs the sealing pipeline, and the verify/tamper/bench commands exercise
the untrusted store. `pipeline` chains the whole dataflow in one
process, and `bench` reproduces the verification-scaling tables.

Configuration is line-oriented key=value (see --config); the store root
may also come from the SENSORSEAL_STORE environment variable. With a
fixed --seed the pipeline's store output (chunk files, manifest, notices
and rule envelopes, and so every bundle exported from it) is
bit-reproducible, and the run report prints a payload digest of the
chunk files to check that by.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

from .bench import auditor_scaling, format_table, user_streaming_seconds, write_csv
from .codec import FormatError
from .crypto import KeyPair, PublicKeys, Role, SeededRandomSource, sha256
from .events import DeviceId, SensorState
from .harness import TamperAction, TamperKind, WorkloadSpec, apply_tamper, building_sensors, device_pool, generate
from .notices import (
    NotificationModel,
    Notifier,
    UserRegistration,
    decode_receipt,
    encode_receipt,
    make_ack,
)
from .rules import DataCaptureRule, RuleAction, RuleSet, format_rules, parse_rules
from .sealing import ChunkPolicy, Sealer
from .store import ChunkStore, PresharedKeyAuth, StoreError, read_bundle_file, write_bundle_file
from .verify import audit_range, verify_user_range

ENV_STORE = "SENSORSEAL_STORE"


class CliError(Exception):
    pass


# --- config -----------------------------------------------------------------

_CONFIG_KEYS = {
    "store", "keys", "model", "chunk_bytes", "chunk_minutes", "checkpoint_every",
    "seed", "days", "rate_scale", "devices", "sensors", "buildings", "psk",
    "peak_per_min", "offpeak_per_min", "start_ms",
}


def parse_config(path: str | Path) -> dict:
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _setting(args, config: dict, name: str, default=None, cast=str):
    arg = getattr(args, name, None)
    if arg is not None:
        return arg
    if name in config:
        return cast(config[name])
    return default


def _store_root(args, config) -> Path:
    root = _setting(args, config, "store") or os.environ.get(ENV_STORE)
    if not root:
        raise CliError("no store directory: pass --store, set store= in config, "
                       f"or set {ENV_STORE}")
    return Path(root)


def _keys_root(args, config) -> Path:
    root = _setting(args, config, "keys")
    if not root:
        raise CliError("no key directory: pass --keys or set keys= in config")
    return Path(root)


# --- key material on disk -----------------------------------------------------

def write_keys(root: Path, n_devices: int, seed: int | None) -> dict:
    root.mkdir(parents=True, exist_ok=True)
    (root / "devices").mkdir(exist_ok=True)
    (root / "public").mkdir(exist_ok=True)
    (root / "private").mkdir(exist_ok=True)

    def make(role: Role, salt: bytes) -> KeyPair:
        if seed is None:
            return KeyPair.generate(role)
        return KeyPair.from_seed(role, sha256(salt + seed.to_bytes(8, "big")))

    enclave = make(Role.ENCLAVE, b"enclave")
    notifier = make(Role.NOTIFIER, b"notifier")
    (root / "enclave.key").write_text(enclave.to_secret_bytes().hex() + "\n")
    (root / "notifier.key").write_text(notifier.to_secret_bytes().hex() + "\n")
    (root / "public" / "enclave.pub").write_text(enclave.public.to_bytes().hex() + "\n")
    (root / "public" / "notifier.pub").write_text(notifier.public.to_bytes().hex() + "\n")

    registry_lines = []
    devices = device_pool(seed if seed is not None else 0, n_devices)
    for i, device in enumerate(devices):
        pair = make(Role.DEVICE, b"device-key" + device.id)
        (root / "devices" / f"{device.id.hex()}.key").write_text(pair.to_secret_bytes().hex() + "\n")
        registry_lines.append(f"{device.id.hex()}|user{i}@example.edu|{pair.public.to_bytes().hex()}")
    (root / "registry.txt").write_text("\n".join(registry_lines) + "\n")
    return {"devices": len(devices)}


def load_keys(root: Path) -> dict:
    enclave = KeyPair.from_secret_bytes(
        Role.ENCLAVE, bytes.fromhex((root / "enclave.key").read_text().strip()))
    notifier = KeyPair.from_secret_bytes(
        Role.NOTIFIER, bytes.fromhex((root / "notifier.key").read_text().strip()))
    registry: dict[DeviceId, PublicKeys] = {}
    registrations: list[UserRegistration] = []
    for line in (root / "registry.txt").read_text().splitlines():
        if not line.strip():
            continue
        device_hex, contact, pub_hex = line.split("|")
        device = DeviceId(bytes.fromhex(device_hex))
        pub = PublicKeys.from_bytes(Role.DEVICE, bytes.fromhex(pub_hex))
        registry[device] = pub
        registrations.append(UserRegistration(device, contact, pub))
    return {
        "enclave": enclave,
        "notifier": notifier,
        "registry": registry,
        "registrations": registrations,
    }


def load_device_key(root: Path, device: DeviceId) -> KeyPair:
    path = root / "devices" / f"{device.id.hex()}.key"
    if not path.exists():
        raise CliError(f"no key on file for device {device.id.hex()}")
    return KeyPair.from_secret_bytes(Role.DEVICE, bytes.fromhex(path.read_text().strip()))


def load_public(root: Path) -> tuple[PublicKeys, PublicKeys]:
    pub_dir = root / "public" if (root / "public").is_dir() else root
    enclave = PublicKeys.from_bytes(
        Role.ENCLAVE, bytes.fromhex((pub_dir / "enclave.pub").read_text().strip()))
    notifier = PublicKeys.from_bytes(
        Role.NOTIFIER, bytes.fromhex((pub_dir / "notifier.pub").read_text().strip()))
    return enclave, notifier


# --- workload / policy plumbing -----------------------------------------------

def _workload_spec(args, config) -> WorkloadSpec:
    days = _setting(args, config, "days", 1.0, float)
    return WorkloadSpec(
        n_sensors=_setting(args, config, "sensors", 490, int),
        n_buildings=_setting(args, config, "buildings", 30, int),
        n_devices=_setting(args, config, "devices", 200, int),
        duration_ms=int(days * 24 * 3_600_000),
        start_ms=_setting(args, config, "start_ms", WorkloadSpec.start_ms, int),
        peak_per_min=_setting(args, config, "peak_per_min", WorkloadSpec.peak_per_min, float),
        offpeak_per_min=_setting(args, config, "offpeak_per_min", WorkloadSpec.offpeak_per_min, float),
        rate_scale=_setting(args, config, "rate_scale", 1.0, float),
        seed=_setting(args, config, "seed", 0, int),
    )


def _chunk_policy(args, config) -> ChunkPolicy:
    return ChunkPolicy(
        max_bytes=_setting(args, config, "chunk_bytes", 5 * 1024 * 1024, int),
        max_window_ms=int(_setting(args, config, "chunk_minutes", 30.0, float) * 60_000),
        checkpoint_every=_setting(args, config, "checkpoint_every", 256, int),
    )


def default_rules(spec: WorkloadSpec, valid_from: int, valid_to: int) -> RuleSet:
    """A four-shape policy battery over the workload's own populations:
    time-based retention, per-device building opt-out, per-device daily
    opt-out, and a building-wide daily opt-out."""
    devices = device_pool(spec.seed, spec.n_devices)
    hour = 3_600_000
    rules = [
        DataCaptureRule(
            "retain-except-0200-0400", RuleAction.OPT_IN,
            daily_window=(4 * hour, 2 * hour),
            valid_from=valid_from, valid_to=valid_to, created_at=valid_from,
        ),
        DataCaptureRule(
            "optout-devices-in-b01", RuleAction.OPT_OUT,
            device_filter=frozenset(devices[:2]),
            sensor_filter=building_sensors(spec, 1 % spec.n_buildings),
            valid_from=valid_from, valid_to=valid_to, created_at=valid_from + 1,
        ),
        DataCaptureRule(
            "optout-device-1000-1200", RuleAction.OPT_OUT,
            device_filter=frozenset(devices[2:3]),
            daily_window=(10 * hour, 12 * hour),
            valid_from=valid_from, valid_to=valid_to, created_at=valid_from + 2,
        ),
        DataCaptureRule(
            "optout-b02-0900-1100", RuleAction.OPT_OUT,
            sensor_filter=building_sensors(spec, 2 % spec.n_buildings),
            daily_window=(9 * hour, 11 * hour),
            valid_from=valid_from, valid_to=valid_to, created_at=valid_from + 3,
        ),
    ]
    return RuleSet.of(rules, RuleAction.OPT_OUT)


# --- stream files --------------------------------------------------------------

STREAM_MAGIC = b"SSTR"


def write_stream(path: Path, ciphertexts) -> int:
    count = 0
    with open(path, "wb") as f:
        f.write(STREAM_MAGIC)
        for ct in ciphertexts:
            f.write(len(ct).to_bytes(4, "little") + ct)
            count += 1
    return count


def read_stream(path: Path):
    with open(path, "rb") as f:
        if f.read(4) != STREAM_MAGIC:
            raise CliError(f"{path} is not a stream file")
        while True:
            head = f.read(4)
            if not head:
                return
            length = int.from_bytes(head, "little")
            yield f.read(length)


# --- sealing stage --------------------------------------------------------------

def _build_sealer(keys: dict, store: ChunkStore, policy: ChunkPolicy,
                  model: NotificationModel, seed: int | None) -> Sealer:
    rand = SeededRandomSource(sha256(b"sealer" + seed.to_bytes(8, "big"))) if seed is not None else None
    return Sealer(keys["enclave"], keys["notifier"].public, keys["registry"],
                  store, policy, model, rand)


def _replay_control_plane(sealer: Sealer, keys_root: Path, store: ChunkStore,
                          model: NotificationModel) -> None:
    """Re-apply persisted installs, receipts, and ACKs before streaming."""
    rules_path = keys_root / "private" / "installed.rules"
    if rules_path.exists():
        rs = parse_rules(rules_path.read_text())
        envelope = sealer.install_ruleset(rs)
        store.put_rule_envelope(envelope)
    receipt_path = keys_root / "private" / "receipt.bin"
    if model is NotificationModel.NOM and receipt_path.exists():
        sealer.confirm_notice_receipt(decode_receipt(receipt_path.read_bytes()))
    for ack in store.acks():
        sealer.register_ack(ack)


def _seal_stream(sealer: Sealer, ciphertexts) -> dict:
    n = active = discarded = 0
    started = time.perf_counter()
    for ct in ciphertexts:
        sr = sealer.ingest(ct)
        if sr is None:
            discarded += 1
            continue
        n += 1
        if sr.state is SensorState.ACTIVE:
            active += 1
    sealer.finalize()
    elapsed = time.perf_counter() - started
    seal_times = sealer.chunk_seal_seconds
    return {
        "readings": n,
        "active": active,
        "passive": n - active,
        "chunks": len(seal_times),
        "discarded": discarded,
        "seconds": elapsed,
        "seal_ms_p50": 1000 * statistics.median(seal_times) if seal_times else 0.0,
        "seal_ms_p95": 1000 * sorted(seal_times)[int(0.95 * (len(seal_times) - 1))] if seal_times else 0.0,
        "seal_ms_max": 1000 * max(seal_times) if seal_times else 0.0,
    }


PSK_FILE = "verifier.psk"


def _write_store_psk(store_root: Path, psk: str | None) -> None:
    if psk:
        (store_root / PSK_FILE).write_text(psk + "\n")


def _open_store(store_root: Path) -> ChunkStore:
    """Open a store with the access-control key the operator configured."""
    psk_path = store_root / PSK_FILE
    auth = PresharedKeyAuth(psk_path.read_text().strip().encode()) if psk_path.exists() else None
    return ChunkStore(store_root, user_auth=auth)


def _device_arg(text: str) -> DeviceId:
    """A device id given on the command line in hex."""
    try:
        return DeviceId(bytes.fromhex(text))
    except ValueError as e:
        raise CliError(f"bad device id {text!r}: {e}") from None


def store_payload_digest(store: ChunkStore) -> str:
    """Digest over all chunk files in index order (reproducibility check)."""
    acc = sha256(b"store")
    for index in store.indices():
        acc = sha256(acc + sha256(store.chunk_raw(index)))
    return acc.hex()


# --- subcommands -----------------------------------------------------------------

def cmd_keygen(args, config) -> int:
    root = _keys_root(args, config)
    info = write_keys(root, _setting(args, config, "devices", 200, int),
                      _setting(args, config, "seed", None, int))
    print(f"keys written to {root} ({info['devices']} devices registered)")
    return 0


def cmd_rules(args, config) -> int:
    keys_root = _keys_root(args, config)
    rs = parse_rules(Path(args.file).read_text())
    private = keys_root / "private"
    private.mkdir(exist_ok=True)
    (private / "installed.rules").write_text(format_rules(rs))
    print(f"installed {len(rs.rules)} rule(s), digest {rs.digest.hex()}")
    return 0


def cmd_notify(args, config) -> int:
    keys_root = _keys_root(args, config)
    store_root = _store_root(args, config)
    model = NotificationModel(_setting(args, config, "model", "nom"))
    keys = load_keys(keys_root)
    rules_path = keys_root / "private" / "installed.rules"
    if not rules_path.exists():
        raise CliError("no installed rules; run the rules command first")
    rs = parse_rules(rules_path.read_text())

    # the sealer's envelope for the notifier, regenerated from private state
    with tempfile.TemporaryDirectory() as scratch_dir:
        sealer = Sealer(keys["enclave"], keys["notifier"].public, keys["registry"],
                        ChunkStore(scratch_dir), _chunk_policy(args, config), model)
        envelope = sealer.install_ruleset(rs)

    store_root.mkdir(parents=True, exist_ok=True)
    store = ChunkStore(store_root)
    store.put_rule_envelope(envelope)
    notifier = Notifier(keys["notifier"])
    notice_id = args.id or f"notice-{rs.digest.hex()[:12]}"
    notice, deliveries, receipt = notifier.publish(
        envelope, keys["registrations"], notice_id, int(time.time() * 1000))
    store.append_notice(notice)
    (keys_root / "private" / "receipt.bin").write_bytes(encode_receipt(receipt))
    print(f"notice {notice_id} published to {len(deliveries)} user(s); "
          f"transmission receipt stored")
    return 0


def cmd_ack(args, config) -> int:
    keys_root = _keys_root(args, config)
    store_root = _store_root(args, config)
    keys = load_keys(keys_root)
    store = ChunkStore(store_root)
    notices = store.notices()
    if not notices:
        raise CliError("no published notice to acknowledge")
    notice_id = args.notice or notices[-1].notice_id
    if args.all:
        devices = list(keys["registry"])
    elif args.device:
        devices = [_device_arg(args.device)]
    else:
        raise CliError("pass --device HEX or --all")
    now = int(time.time() * 1000)
    for device in devices:
        pair = load_device_key(keys_root, device)
        store.append_ack(make_ack(pair, device, notice_id, now))
    print(f"{len(devices)} acknowledgment(s) recorded for {notice_id}")
    return 0


def cmd_gen(args, config) -> int:
    keys_root = _keys_root(args, config)
    keys = load_keys(keys_root)
    spec = _workload_spec(args, config)
    count = write_stream(Path(args.out), generate(spec, keys["enclave"].public))
    print(f"{count} encrypted readings written to {args.out}")
    return 0


def cmd_seal(args, config) -> int:
    keys_root = _keys_root(args, config)
    store_root = _store_root(args, config)
    model = NotificationModel(_setting(args, config, "model", "nom"))
    keys = load_keys(keys_root)
    store_root.mkdir(parents=True, exist_ok=True)
    _write_store_psk(store_root, _setting(args, config, "psk", None))
    store = _open_store(store_root)
    sealer = _build_sealer(keys, store, _chunk_policy(args, config), model,
                           _setting(args, config, "seed", None, int))
    _replay_control_plane(sealer, keys_root, store, model)
    with store.bulk():
        report = _seal_stream(sealer, read_stream(Path(args.stream)))
    for key, value in report.items():
        print(f"{key}={value}")
    print(f"payload_digest={store_payload_digest(store)}")
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    try:
        first, _, last = text.partition("..")
        return int(first), int(last if last else first)
    except ValueError as e:
        raise CliError(f"bad range {text!r}; expected A..B") from e


def _whole_log(store: ChunkStore) -> tuple[int, int]:
    indices = store.indices()
    if not indices:
        raise CliError("store holds no sealed chunks")
    return indices[0], indices[-1]


def cmd_export_bundle(args, config) -> int:
    store_root = _store_root(args, config)
    first, last = _parse_range(args.range)
    store = _open_store(store_root)
    if args.kind == "auditor":
        bundle = store.get_auditor_bundle(first, last)
    else:
        psk = _setting(args, config, "psk", None)
        bundle = store.get_user_bundle(first, last, psk.encode() if psk else None)
    write_bundle_file(Path(args.out), bundle)
    print(f"{args.kind} bundle for chunks {first}..{last} written to {args.out}")
    return 0


def _print_verdicts(verdicts, summary) -> None:
    for v in verdicts:
        line = f"chunk={v.chunk_index} outcome={v.outcome.value}"
        if v.first_bad_record is not None:
            line += f" first_bad_record={v.first_bad_record}"
        if not v.ok:
            line += f" detail={v.detail!r}"
        print(line)
    print(f"summary intact={summary['intact']}/{summary['chunks']} "
          f"tampered={summary['tampered']} missing={summary['missing']} "
          f"bad_proof={summary['bad_proof']} seconds={summary['seconds']:.3f}")


def _read_bundle(path: str, kind: str):
    bundle = read_bundle_file(Path(path))
    if bundle.kind != kind:
        raise CliError(f"{path} holds a {bundle.kind} bundle, not a {kind} bundle")
    return bundle


def cmd_verify_auditor(args, config) -> int:
    enclave_pub, notifier_pub = load_public(_keys_root(args, config))
    if args.bundle:
        bundle = _read_bundle(args.bundle, "auditor")
    else:
        store = _open_store(_store_root(args, config))
        first, last = _parse_range(args.range) if args.range else _whole_log(store)
        bundle = store.get_auditor_bundle(first, last)
    verdicts, summary = audit_range(bundle, enclave_pub, notifier_pub)
    _print_verdicts(verdicts, summary)
    return 0 if all(v.ok for v in verdicts) else 1


def cmd_verify_user(args, config) -> int:
    enclave_pub, _ = load_public(_keys_root(args, config))
    device = _device_arg(args.device)
    if args.bundle:
        bundle = _read_bundle(args.bundle, "user")
    else:
        psk = _setting(args, config, "psk", None)
        store = _open_store(_store_root(args, config))
        first, last = _parse_range(args.range) if args.range else _whole_log(store)
        bundle = store.get_user_bundle(first, last, psk.encode() if psk else None)
    results, summary = verify_user_range(bundle, device, enclave_pub)
    verdicts = [v for v, _ in results]
    for v, report in results:
        line = f"chunk={v.chunk_index} outcome={v.outcome.value} occurrences={len(report.entries)}"
        if not v.ok:
            line += f" detail={v.detail!r}"
        print(line)
        for e in report.entries:
            print(f"  seen t={e.time} sensor={e.sensor} state={e.state.name}")
    print(f"summary intact={summary['intact']}/{summary['chunks']} "
          f"occurrences={summary['occurrences']} seconds={summary['seconds']:.3f}")
    return 0 if all(v.ok for v in verdicts) else 1


def cmd_tamper(args, config) -> int:
    store_root = _store_root(args, config)
    action = TamperAction(
        kind=TamperKind(args.kind),
        chunk=args.chunk,
        record=args.record,
        other_chunk=args.other,
        target=args.target,
    )
    seed = _setting(args, config, "seed", None, int)
    report = apply_tamper(store_root, action, random.Random(seed))
    print(f"tampered: {report.description}")
    return 0


def cmd_bench(args, config) -> int:
    keys_root = _keys_root(args, config)
    enclave_pub, _ = load_public(keys_root)
    store_root = _store_root(args, config)
    store = _open_store(store_root)
    counts = tuple(int(c) for c in args.counts.split(","))
    points = auditor_scaling(store, enclave_pub, counts, repeats=args.repeats)
    print(format_table(points))
    if args.csv:
        write_csv(points, Path(args.csv))
        print(f"csv written to {args.csv}")
    if args.user_device:
        psk = _setting(args, config, "psk", None)
        device = _device_arg(args.user_device)
        indices = store.indices()
        last = min(indices[0] + args.user_chunks - 1, indices[-1])
        seconds = user_streaming_seconds(store, enclave_pub, device, indices[0], last,
                                         psk.encode() if psk else None)
        print(f"user streaming verification of {last - indices[0] + 1} chunks: {seconds:.3f}s")
    return 0


def _stage(name: str, fn):
    try:
        return fn()
    except CliError:
        raise
    except Exception as e:
        raise CliError(f"pipeline stage {name!r} failed: {e}") from e


def cmd_pipeline(args, config) -> int:
    keys_root = _keys_root(args, config)
    store_root = _store_root(args, config)
    model = NotificationModel(_setting(args, config, "model", "nom"))
    seed = _setting(args, config, "seed", 0, int)
    spec = _workload_spec(args, config)

    _stage("keygen", lambda: write_keys(keys_root, spec.n_devices, seed))
    keys = load_keys(keys_root)

    if args.rules:
        rs = parse_rules(Path(args.rules).read_text())
    else:
        rs = default_rules(spec, spec.start_ms, spec.start_ms + 40 * 24 * 3_600_000)
    (keys_root / "private").mkdir(exist_ok=True)
    (keys_root / "private" / "installed.rules").write_text(format_rules(rs))

    store_root.mkdir(parents=True, exist_ok=True)
    _write_store_psk(store_root, _setting(args, config, "psk", None))
    store = _open_store(store_root)
    sealer = _build_sealer(keys, store, _chunk_policy(args, config), model, seed)

    envelope = _stage("rules", lambda: sealer.install_ruleset(rs))
    store.put_rule_envelope(envelope)
    notifier = Notifier(keys["notifier"])
    notice, deliveries, receipt = _stage("notify", lambda: notifier.publish(
        envelope, keys["registrations"], f"notice-{rs.digest.hex()[:12]}", spec.start_ms))
    store.append_notice(notice)
    if model is NotificationModel.NOM:
        sealer.confirm_notice_receipt(receipt)
    else:
        now = spec.start_ms
        for device in keys["registry"]:
            ack = make_ack(load_device_key(keys_root, device), device, notice.notice_id, now)
            store.append_ack(ack)
            sealer.register_ack(ack)

    with store.bulk():
        report = _stage("seal", lambda: _seal_stream(
            sealer, generate(spec, keys["enclave"].public)))
    report["notice_deliveries"] = len(deliveries)
    report["model"] = model.value
    report["payload_digest"] = store_payload_digest(store)
    for key, value in report.items():
        print(f"{key}={value}")
    return 0


# --- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorseal",
        description="Tamper-evident sealing and offline attestation for sensor-event logs",
    )
    parser.add_argument("--config", help="line-oriented key=value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, store=True, keys=True):
        if store:
            p.add_argument("--store", help=f"store root (default ${ENV_STORE})")
        if keys:
            p.add_argument("--keys", help="key directory")
        p.add_argument("--seed", type=int, help="deterministic seed")
        return p

    p = common(sub.add_parser("keygen", help="generate authority, sealer, notifier and device keys"), store=False)
    p.add_argument("--devices", type=int, help="number of registered devices")
    p.set_defaults(func=cmd_keygen)

    p = common(sub.add_parser("rules", help="install a capture-rule file into the sealer"), store=False)
    p.add_argument("--file", required=True, help="rules file (line format)")
    p.set_defaults(func=cmd_rules)

    p = common(sub.add_parser("notify", help="publish the installed rules through the notifier"))
    p.add_argument("--model", choices=["nom", "nam"])
    p.add_argument("--id", help="notice id")
    p.set_defaults(func=cmd_notify)

    p = common(sub.add_parser("ack", help="record device acknowledgments"))
    p.add_argument("--device", help="device id (hex)")
    p.add_argument("--all", action="store_true", help="acknowledge for every registered device")
    p.add_argument("--notice", help="notice id (default: latest)")
    p.set_defaults(func=cmd_ack)

    p = common(sub.add_parser("gen", help="generate an encrypted synthetic event stream"), store=False)
    p.add_argument("--out", required=True)
    p.add_argument("--days", type=float)
    p.add_argument("--rate", "--rate-scale", dest="rate_scale", type=float,
                   help="event-rate scale factor (1.0 = full deployment)")
    p.add_argument("--devices", type=int)
    p.add_argument("--sensors", type=int)
    p.add_argument("--buildings", type=int)
    p.set_defaults(func=cmd_gen)

    p = common(sub.add_parser("seal", help="run the sealing pipeline over a stream file"))
    p.add_argument("--stream", required=True)
    p.add_argument("--model", choices=["nom", "nam"])
    p.add_argument("--chunk-bytes", dest="chunk_bytes", type=int)
    p.add_argument("--chunk-minutes", dest="chunk_minutes", type=float)
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
    p.add_argument("--psk")
    p.set_defaults(func=cmd_seal)

    p = common(sub.add_parser("export-bundle", help="write a verifier bundle file"), keys=False)
    p.add_argument("--kind", choices=["auditor", "user"], required=True)
    p.add_argument("--range", required=True, help="chunk range A..B")
    p.add_argument("--out", required=True)
    p.add_argument("--psk")
    p.set_defaults(func=cmd_export_bundle)

    p = common(sub.add_parser("verify-auditor", help="audit chunks offline"))
    p.add_argument("--range", help="chunk range A..B (default: whole log)")
    p.add_argument("--bundle", help="verify a bundle file instead of the store")
    p.set_defaults(func=cmd_verify_auditor)

    p = common(sub.add_parser("verify-user", help="user-verify chunks offline"))
    p.add_argument("--device", required=True, help="device id (hex)")
    p.add_argument("--range")
    p.add_argument("--bundle")
    p.add_argument("--psk")
    p.set_defaults(func=cmd_verify_user)

    p = common(sub.add_parser("tamper", help="corrupt a sealed store (test adversary)"), keys=False)
    p.add_argument("--kind", choices=[k.value for k in TamperKind], required=True)
    p.add_argument("--chunk", type=int)
    p.add_argument("--record", type=int)
    p.add_argument("--other", type=int, help="second chunk for swap")
    p.add_argument("--target", choices=["integrity", "user"], default="integrity",
                   help="which proof the forgery replaces")
    p.set_defaults(func=cmd_tamper)

    p = common(sub.add_parser("bench", help="verification scaling benchmarks"))
    p.add_argument("--counts", default="1,50,100,500,1000")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--csv")
    p.add_argument("--user-device", dest="user_device", help="also time streamed user verification")
    p.add_argument("--user-chunks", dest="user_chunks", type=int, default=50)
    p.add_argument("--psk")
    p.set_defaults(func=cmd_bench)

    p = common(sub.add_parser("pipeline", help="keygen, notify, generate, seal in one run"))
    p.add_argument("--model", choices=["nom", "nam"])
    p.add_argument("--rules", help="rules file (default: built-in battery)")
    p.add_argument("--days", type=float)
    p.add_argument("--rate-scale", dest="rate_scale", type=float)
    p.add_argument("--devices", type=int)
    p.add_argument("--sensors", type=int)
    p.add_argument("--buildings", type=int)
    p.add_argument("--chunk-bytes", dest="chunk_bytes", type=int)
    p.add_argument("--chunk-minutes", dest="chunk_minutes", type=float)
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
    p.add_argument("--psk")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Exit 0 when every verdict is Intact, 1 when one is not, and 2 on
    unreadable input or a usage error."""
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config) if args.config else {}
        return args.func(args, config)
    except (CliError, StoreError, FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
