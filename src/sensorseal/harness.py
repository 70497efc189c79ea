"""Synthetic WiFi-association workloads and the tamper injector.

The generator stands in for the access-point controller: a seeded,
byte-for-byte reproducible stream of readings with a two-level diurnal
rate (peak/off-peak), spread over sensors grouped into buildings.
Default rates approximate a large campus deployment: ~37K readings per
peak half hour and ~110M events over 180 days at scale 1.0; scale down
with `rate_scale` for desk-size runs.

The tamper injector realizes the adversarial store: surgical byte-level
corruption of sealed chunk files and the manifest, one named action per
threat (insert / delete / modify / truncate readings and chunks, proof
forgery, chunk reordering). Actions keep the store structurally
coherent where a competent adversary would, so detection has to come
from the proofs, not from parse errors alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .crypto import KeyPair, PublicKeys, Role, Session, sha256
from .events import (
    DeviceId,
    SensorId,
    SensorReading,
    SensorState,
    StatefulReading,
    encode_reading,
    encode_wire_reading,
)
from .sealing import CHAIN_SEED, ChunkProof, chain_step, proof_payload, user_step
from .store import (
    ChunkStore,
    derive_user_records,
    parse_chunk,
    serialize_chunk,
)

MS_PER_MIN = 60_000
MS_PER_HOUR = 3_600_000

# 2026-01-05T00:00:00Z: a midnight, so peak hours line up with wall clock
DEFAULT_START_MS = 1_767_571_200_000


class WorkloadError(Exception):
    pass


@dataclass(frozen=True)
class WorkloadSpec:
    """Deterministic synthetic workload parameters."""

    n_sensors: int = 490
    n_buildings: int = 30
    n_devices: int = 200
    duration_ms: int = 24 * MS_PER_HOUR
    start_ms: int = DEFAULT_START_MS
    peak_per_min: float = 1233.3
    offpeak_per_min: float = 19.5
    peak_hours: tuple[int, int] = (9, 17)
    rate_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_sensors < 1 or self.n_buildings < 1 or self.n_devices < 1:
            raise WorkloadError("population sizes must be positive")
        if self.n_buildings > self.n_sensors:
            raise WorkloadError("more buildings than sensors")


def device_pool(seed: int, n: int) -> list[DeviceId]:
    """n distinct 6-byte device ids, derived deterministically from the seed."""
    ids: list[DeviceId] = []
    seen = set()
    i = 0
    while len(ids) < n:
        candidate = sha256(b"device" + seed.to_bytes(8, "big") + i.to_bytes(8, "big"))[:6]
        i += 1
        if candidate in seen:
            continue
        seen.add(candidate)
        ids.append(DeviceId(candidate))
    return ids


def building_of(spec: WorkloadSpec, sensor_index: int) -> int:
    return sensor_index * spec.n_buildings // spec.n_sensors


def sensor_pool(spec: WorkloadSpec) -> list[SensorId]:
    return [
        SensorId(f"b{building_of(spec, j):02d}-ap{j:03d}".encode())
        for j in range(spec.n_sensors)
    ]


def building_sensors(spec: WorkloadSpec, building: int) -> frozenset[SensorId]:
    """The sensor set of one building; capture rules use these as space filters."""
    return frozenset(
        s for j, s in enumerate(sensor_pool(spec)) if building_of(spec, j) == building
    )


def generate_readings(spec: WorkloadSpec):
    """Yield readings with non-decreasing timestamps and diurnal rate shaping."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    devices = device_pool(spec.seed, spec.n_devices)
    sensors = sensor_pool(spec)
    peak_lo, peak_hi = spec.peak_hours
    for m in range(spec.duration_ms // MS_PER_MIN):
        t0 = spec.start_ms + m * MS_PER_MIN
        hour = (t0 // MS_PER_HOUR) % 24
        rate = spec.peak_per_min if peak_lo <= hour < peak_hi else spec.offpeak_per_min
        k = int(rng.poisson(rate * spec.rate_scale))
        if k == 0:
            continue
        offsets = np.sort(rng.integers(0, MS_PER_MIN, size=k))
        dev_idx = rng.integers(0, spec.n_devices, size=k)
        sen_idx = rng.integers(0, spec.n_sensors, size=k)
        for off, di, si in zip(offsets, dev_idx, sen_idx):
            yield SensorReading(devices[int(di)], sensors[int(si)], t0 + int(off))


def generate(spec: WorkloadSpec, sealer_pub: PublicKeys):
    """The controller stand-in: the same readings, sealed for transport
    under one session (one handshake, then a counter nonce per reading)."""
    session = Session.start(sealer_pub)
    for reading in generate_readings(spec):
        yield session.seal(encode_wire_reading(reading))


# --- tamper injection --------------------------------------------------------

class TamperKind(Enum):
    INSERT_READING = "insert-reading"
    DELETE_READING = "delete-reading"
    MODIFY_READING = "modify-reading"
    TRUNCATE_CHUNK = "truncate-chunk"
    DELETE_CHUNK = "delete-chunk"
    FORGE_PROOF = "forge-proof"
    SWAP_CHUNKS = "swap-chunks"


@dataclass(frozen=True)
class TamperAction:
    kind: TamperKind
    chunk: int | None = None        # default: chosen at random
    record: int | None = None       # 1-based merged record ordinal
    other_chunk: int | None = None  # second chunk for swaps
    target: str = "integrity"       # forge-proof target: "integrity" or "user"


@dataclass(frozen=True)
class TamperReport:
    kind: TamperKind
    chunk: int
    description: str
    record: int | None = None


def _value_byte_offsets(enc: bytes, redacted: bool) -> list[int]:
    """Byte positions inside a record that hold values, not length prefixes."""
    if redacted:
        slen = int.from_bytes(enc[32:34], "big")
        return list(range(0, 32)) + list(range(34, 34 + slen + 9))
    dlen = int.from_bytes(enc[0:2], "big")
    slen = int.from_bytes(enc[2 + dlen:4 + dlen], "big")
    return list(range(2, 2 + dlen)) + list(range(4 + dlen, 4 + dlen + slen + 9))


def _pick_chunk(store: ChunkStore, action: TamperAction, rng: random.Random) -> int:
    indices = store.indices()
    if not indices:
        raise WorkloadError("store holds no chunks to tamper with")
    if action.chunk is not None:
        if action.chunk not in indices:
            raise WorkloadError(f"chunk {action.chunk} not in store")
        return action.chunk
    return rng.choice(indices)


def apply_tamper(store_root: str | Path, action: TamperAction, rng: random.Random | None = None) -> TamperReport:
    """Mutate a sealed store in place as the named adversary would."""
    rng = rng or random.Random()
    store = ChunkStore(store_root)
    kind = action.kind

    if kind is TamperKind.DELETE_CHUNK:
        index = _pick_chunk(store, action, rng)
        entry = store.manifest["chunks"].pop(str(index))
        path = store.root / entry["file"]
        if path.exists():
            path.unlink()
        store._save_manifest()
        return TamperReport(kind, index, f"chunk {index} removed from disk and manifest")

    if kind is TamperKind.SWAP_CHUNKS:
        indices = store.indices()
        if len(indices) < 2:
            raise WorkloadError("need at least two chunks to swap")
        x = _pick_chunk(store, action, rng)
        y = action.other_chunk if action.other_chunk is not None else rng.choice(
            [i for i in indices if i != x]
        )
        if y == x or y not in indices:
            raise WorkloadError("swap needs two distinct stored chunks")
        chunk_x, chunk_y = parse_chunk(store.chunk_raw(x)), parse_chunk(store.chunk_raw(y))
        file_x, file_y = (store.manifest["chunks"][str(i)]["file"] for i in (x, y))
        # each slot keeps its file name and index and takes the other's contents
        store.put_chunk(file_x, replace(chunk_y, index=x))
        store.put_chunk(file_y, replace(chunk_x, index=y))
        return TamperReport(kind, x, f"contents of chunks {x} and {y} exchanged")

    index = _pick_chunk(store, action, rng)
    entry = store.manifest["chunks"][str(index)]
    path = store.root / entry["file"]
    blob = path.read_bytes()

    if kind is TamperKind.TRUNCATE_CHUNK:
        cut = rng.randint(1, max(1, len(blob) // 4))
        path.write_bytes(blob[:-cut])
        entry["bytes"] = len(blob) - cut
        store._save_manifest()
        return TamperReport(kind, index, f"{cut} bytes truncated from chunk {index}")

    parsed = parse_chunk(blob)
    slots = list(parsed.slots())
    active, redacted, order = list(parsed.active_encs), list(parsed.redacted_encs), list(parsed.order)

    def edited():
        return replace(parsed, active_encs=tuple(active), redacted_encs=tuple(redacted),
                       order=bytes(order))

    if kind is TamperKind.MODIFY_READING:
        ordinal = action.record if action.record is not None else rng.randint(1, len(slots))
        is_active, i = slots[ordinal - 1]
        encs = active if is_active else redacted
        rel = rng.choice(_value_byte_offsets(encs[i], redacted=not is_active))
        enc = bytearray(encs[i])
        enc[rel] ^= 1 << rng.randint(0, 7)
        encs[i] = bytes(enc)
        path.write_bytes(serialize_chunk(edited()))
        return TamperReport(kind, index, f"bit flipped in record {ordinal} of chunk {index}", ordinal)

    if kind is TamperKind.DELETE_READING:
        ordinal = action.record if action.record is not None else rng.randint(1, len(slots))
        is_active, i = slots[ordinal - 1]
        del (active if is_active else redacted)[i]
        del order[ordinal - 1]
        if not order:
            raise WorkloadError("refusing to delete the only record; delete the chunk instead")
        store.put_chunk(entry["file"], edited())
        return TamperReport(kind, index, f"record {ordinal} deleted from chunk {index}", ordinal)

    if kind is TamperKind.INSERT_READING:
        ordinal = action.record if action.record is not None else rng.randint(1, len(slots) + 1)
        # reuse a neighbor's timestamp so the merged sequence stays monotone
        is_active, i = slots[min(ordinal, len(slots)) - 1]
        anchor = parsed.active[i].reading if is_active else parsed.redacted[i]
        fabricated = StatefulReading(
            SensorReading(DeviceId(rng.randbytes(6)), anchor.sensor, anchor.time), SensorState.ACTIVE,
        )
        active.insert(sum(order[:ordinal - 1]), encode_reading(fabricated))
        order.insert(ordinal - 1, 1)
        store.put_chunk(entry["file"], edited())
        return TamperReport(kind, index, f"fabricated reading inserted at {ordinal} in chunk {index}", ordinal)

    if kind is TamperKind.FORGE_PROOF:
        prev, own, nxt = store.get_auditor_bundle(index, index).strings.resolve(index)
        if prev is None or nxt is None or own is None:
            raise WorkloadError("cannot rebuild the end-of-chunk mask: strings unavailable")
        rogue = KeyPair.generate(Role.ENCLAVE)
        if action.target == "user":
            fold = 0
            for enc in derive_user_records(parsed):
                fold = user_step(fold, enc[:32], enc[-9])  # tag(32) ... state || t8
            payload = proof_payload(fold.to_bytes(32, "big"), prev, own, nxt)
            forged = replace(parsed, user_proof=ChunkProof(own, rogue.sign(payload)))
        else:
            digest = CHAIN_SEED
            for _, enc, _t in parsed.merged():
                digest = chain_step(enc, digest)
            forged = replace(parsed, integrity_proof=ChunkProof(
                own, rogue.sign(proof_payload(digest, prev, own, nxt))))
        store.put_chunk(entry["file"], forged)
        return TamperReport(kind, index,
                            f"{action.target} of chunk {index} re-signed with a rogue key")

    raise WorkloadError(f"unknown tamper kind {kind}")
