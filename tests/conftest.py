"""Shared builders for sealing runs used across the suite."""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from sensorseal import (
    ChunkPolicy,
    ChunkStore,
    DataCaptureRule,
    DeviceId,
    KeyPair,
    Notifier,
    PresharedKeyAuth,
    Role,
    RuleAction,
    RuleSet,
    Sealer,
    SensorId,
    SensorReading,
)
from sensorseal.notices import NotificationModel, UserRegistration

PSK = b"test-psk"


@dataclass
class Actors:
    enclave: KeyPair
    notifier_keys: KeyPair
    notifier: Notifier
    devices: list[DeviceId]
    device_keys: dict[DeviceId, KeyPair]
    registry: dict[DeviceId, "object"]
    registrations: list[UserRegistration]
    sensors: list[SensorId]


def make_actors(n_devices: int = 4, n_sensors: int = 3, seed: int = 1) -> Actors:
    rng = random.Random(seed)
    enclave = KeyPair.generate(Role.ENCLAVE)
    notifier_keys = KeyPair.generate(Role.NOTIFIER)
    devices = [DeviceId(rng.randbytes(6)) for _ in range(n_devices)]
    device_keys = {d: KeyPair.generate(Role.DEVICE) for d in devices}
    registry = {d: k.public for d, k in device_keys.items()}
    registrations = [
        UserRegistration(d, f"user{i}@example.edu", registry[d])
        for i, d in enumerate(devices)
    ]
    sensors = [SensorId(f"ap-{i:03d}".encode()) for i in range(n_sensors)]
    return Actors(enclave, notifier_keys, Notifier(notifier_keys), devices,
                  device_keys, registry, registrations, sensors)


ALLOW_ALL = RuleSet.of(
    [DataCaptureRule("retain-all", RuleAction.OPT_IN, created_at=10)],
    RuleAction.OPT_OUT,
)


def mixed_rules(actors: Actors) -> RuleSet:
    """Retain everything except the first two devices' readings."""
    return RuleSet.of([
        DataCaptureRule("retain", RuleAction.OPT_IN, created_at=1),
        DataCaptureRule("optout-two", RuleAction.OPT_OUT,
                        device_filter=frozenset(actors.devices[:2]), created_at=2),
    ])


def sealed_run(
    tmp_path: Path,
    actors: Actors,
    *,
    n_readings: int = 40,
    window_ms: int = 10_000,
    step_ms: int = 1_200,
    checkpoint_every: int = 4,
    ruleset: RuleSet | None = ALLOW_ALL,
    model: NotificationModel = NotificationModel.NOM,
    ack_all: bool = True,
    start_t: int = 1_000_000,
    subdir: str = "store",
) -> tuple[ChunkStore, Sealer, list]:
    """Seal a small deterministic stream and return (store, sealer, readings)."""
    root = tmp_path / subdir
    store = ChunkStore(root, user_auth=PresharedKeyAuth(PSK))
    sealer = Sealer(
        actors.enclave, actors.notifier.public, actors.registry, store,
        policy=ChunkPolicy(max_window_ms=window_ms, checkpoint_every=checkpoint_every),
        model=model,
    )
    if ruleset is not None:
        envelope = sealer.install_ruleset(ruleset)
        notice, _, receipt = actors.notifier.publish(
            envelope, actors.registrations, f"notice-{ruleset.digest.hex()[:8]}", start_t)
        store.append_notice(notice)
        if model is NotificationModel.NOM:
            sealer.confirm_notice_receipt(receipt)
        elif ack_all:
            from sensorseal import make_ack

            for device in actors.devices:
                ack = make_ack(actors.device_keys[device], device, notice.notice_id, start_t)
                store.append_ack(ack)
                sealer.register_ack(ack)
    sealed = []
    with store.bulk():
        for i in range(n_readings):
            reading = SensorReading(
                actors.devices[i % len(actors.devices)],
                actors.sensors[i % len(actors.sensors)],
                start_t + i * step_ms,
            )
            sealed.append(sealer.submit_reading(reading))
        sealer.finalize()
    return store, sealer, sealed


@pytest.fixture
def actors() -> Actors:
    return make_actors()
