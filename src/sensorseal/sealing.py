"""The trusted sealer: hash-chained chunks and XOR-linked end-of-chunk proofs.

This is the simulated secure-hardware side of the system. It holds the
sealer's private keys, decrypts incoming readings, assigns retention
states from the installed capture rules, folds readings into per-chunk
hash chains, and at each chunk close emits two signed proofs:

  integrity proof:  (own string, sign(chain digest XOR eoc mask))
  user proof:       (own string, sign(user fold   XOR eoc mask))

where the end-of-chunk mask is the XOR of the previous, own, and next
chunks' random strings, tying each chunk to both neighbors, so deleting
or reordering chunks breaks the neighbors' proofs. Each next string is
pre-drawn at chunk close so a chunk's proof
can be emitted immediately; the stream's first chunk substitutes a
published seed string for its missing predecessor, and an explicit
finalize publishes the terminal string the last chunk's proof needs.

Every record is encoded once, at append: the open chunk keeps the
canonical bytes the chain fold hashed, and the sealed chunk carries
them unchanged to disk and on to the verifiers. Passive readings are
never written in cleartext: they enter the chain as redacted records
and their device id is dropped at append time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .codec import Cursor
from .crypto import (
    CryptoError,
    KeyPair,
    PublicKeys,
    RandomSource,
    SessionReceiver,
    seal_to,
    sha256,
    verify,
    xor_bytes,
)
from .events import (
    _STATE_BYTES,
    DeviceId,
    RedactedRecord,
    SensorReading,
    SensorState,
    StatefulReading,
    decode_reading,
    decode_redacted,
    decode_wire_reading,
    encode_time,
    lp,
    presence_tag,
    record_time,
    state_digest,
)
from .notices import (
    Acknowledgment,
    NoticeEnvelope,
    NotificationModel,
    TransmissionReceipt,
    ack_payload,
    receipt_payload,
)
from .rules import EMPTY_RULESET_DIGEST, RuleSet, evaluate_state, format_rules

CHAIN_SEED = sha256(bytes(8))  # H(0): hash of eight zero bytes, fixed and normative

DEFAULT_MAX_BYTES = 5 * 1024 * 1024
DEFAULT_WINDOW_MS = 30 * 60 * 1000
DEFAULT_CHECKPOINT_EVERY = 256


class SealingError(Exception):
    """Raised on misuse of the sealing pipeline (not on adversarial input)."""


@dataclass(frozen=True)
class ChunkPolicy:
    """Chunk close limits: a chunk closes when either limit is hit."""

    max_bytes: int = DEFAULT_MAX_BYTES
    max_window_ms: int = DEFAULT_WINDOW_MS
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY

    def __post_init__(self):
        if self.max_bytes <= 0 or self.max_window_ms <= 0 or self.checkpoint_every <= 0:
            raise SealingError("chunk policy limits must be positive")


@dataclass(frozen=True)
class ChunkProof:
    """A per-chunk proof: the chunk's random string and one signature."""

    string: bytes
    sig: bytes


@dataclass(frozen=True)
class SealedChunk:
    """A sealed chunk, the one form it takes from the sealer to disk to the verifiers.

    Each record is held as its canonical encoding, the bytes the chain
    fold hashed: full encodings in `active_encs`, redacted ones in
    `redacted_encs`, and `order` merges them back into sealing order.
    `active` and `redacted` are views decoded from those bytes.
    """

    index: int
    active_encs: tuple[bytes, ...]
    redacted_encs: tuple[bytes, ...]
    order: bytes                      # a byte per record in sealing order: 1 active, 0 redacted
    checkpoints: tuple[bytes, ...]    # running chain digest every K records + final
    checkpoint_every: int
    integrity_proof: ChunkProof
    user_proof: ChunkProof
    ruleset_digest: bytes

    @property
    def n_readings(self) -> int:
        return len(self.order)

    @cached_property
    def active(self) -> tuple[StatefulReading, ...]:
        return tuple(decode_reading(Cursor(enc)) for enc in self.active_encs)

    @cached_property
    def redacted(self) -> tuple[RedactedRecord, ...]:
        return tuple(decode_redacted(Cursor(enc)) for enc in self.redacted_encs)

    def slots(self) -> Iterator[tuple[int, int]]:
        """Records in sealing order as (is_active, index within its section)."""
        seen = [0, 0]
        for bit in self.order:
            yield bit, seen[bit]
            seen[bit] += 1

    def merged(self) -> Iterator[tuple[int, bytes, int]]:
        """Records in sealing order as (is_active, chain encoding, time)."""
        active, redacted = iter(self.active_encs), iter(self.redacted_encs)
        for bit in self.order:
            enc = next(active) if bit else next(redacted)
            yield bit, enc, record_time(enc)


class OpenChunk:
    """Accumulator for the chunk currently being sealed."""

    __slots__ = (
        "index", "string", "next_string", "deadline", "active_encs",
        "redacted_encs", "order", "checkpoints", "running_digest",
        "running_user_xor", "chain_bytes", "ruleset_digest",
        "effective_rules", "effective_acks", "closed",
    )

    def __init__(self, index: int, string: bytes, next_string: bytes):
        self.index = index
        self.string = string
        self.next_string = next_string
        self.deadline: int | None = None
        self.active_encs: list[bytes] = []
        self.redacted_encs: list[bytes] = []
        self.order = bytearray()
        self.checkpoints: list[bytes] = []
        self.running_digest = CHAIN_SEED
        self.running_user_xor = 0
        self.chain_bytes = 0
        self.ruleset_digest = EMPTY_RULESET_DIGEST
        self.effective_rules: RuleSet | None = None
        self.effective_acks: frozenset[DeviceId] = frozenset()
        self.closed = False


def chain_step(record: bytes, digest: bytes) -> bytes:
    """One link of the chain fold: SHA-256(record || previous digest)."""
    return sha256(record + digest)


def user_step(fold: int, tag: bytes, state: int) -> int:
    """One term of the user fold: XOR in SHA-256(tag || state), as an integer;
    `state` is the state byte's value (a `SensorState` or the byte itself)."""
    return fold ^ int.from_bytes(state_digest(tag, state), "big")


def proof_payload(fold: bytes, prev_string: bytes, own_string: bytes, next_string: bytes) -> bytes:
    """The signed value of a proof: fold XOR (prev XOR own XOR next).

    The end-of-chunk mask ties the fold to both neighbor strings, so
    deleting or reordering chunks breaks the neighbors' proofs.
    """
    return xor_bytes(fold, xor_bytes(xor_bytes(prev_string, own_string), next_string))


def seal_append(chunk: OpenChunk, sr: StatefulReading, checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY) -> OpenChunk:
    """Fold one reading into the open chunk's chains.

    Active readings enter the auditor chain under their full canonical
    encoding and are kept in cleartext; passive readings enter redacted
    and their device id is dropped on the spot. The chunk keeps the
    encoding it hashed, so nothing is encoded again at close. Both feed
    the user-side tag/state chain.
    """
    if chunk.closed:
        raise SealingError("chunk already closed")
    r, state = sr.reading, sr.state
    # LP(device) and t8 are built once for the presence tag and the record,
    # laid out as `presence_digest`, `encode_reading` and `encode_redacted` do
    lp_device, t8 = lp(r.device.id), encode_time(r.time)
    tag = presence_tag(lp_device, t8)
    tail = lp(r.sensor.id) + _STATE_BYTES[state] + t8
    if state is SensorState.ACTIVE:
        record = lp_device + tail
        chunk.active_encs.append(record)
    else:
        record = tag + tail
        chunk.redacted_encs.append(record)
    chunk.order.append(state)
    chunk.running_digest = chain_step(record, chunk.running_digest)
    chunk.chain_bytes += len(record)
    chunk.running_user_xor = user_step(chunk.running_user_xor, tag, state)
    if len(chunk.order) % checkpoint_every == 0:
        chunk.checkpoints.append(chunk.running_digest)
    return chunk


def close_chunk(
    chunk: OpenChunk,
    prev_string: bytes,
    signer: KeyPair,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
) -> SealedChunk:
    """Seal the chunk: mask both folds with the neighbor strings and sign."""
    if chunk.closed:
        raise SealingError("chunk already closed")
    if not chunk.order:
        raise SealingError("cannot seal an empty chunk")
    chunk.closed = True
    checkpoints = list(chunk.checkpoints)
    if not checkpoints or checkpoints[-1] != chunk.running_digest:
        checkpoints.append(chunk.running_digest)
    user_fold = chunk.running_user_xor.to_bytes(32, "big")
    return SealedChunk(
        index=chunk.index,
        active_encs=tuple(chunk.active_encs),
        redacted_encs=tuple(chunk.redacted_encs),
        order=bytes(chunk.order),
        checkpoints=tuple(checkpoints),
        checkpoint_every=checkpoint_every,
        integrity_proof=ChunkProof(chunk.string, signer.sign(proof_payload(
            chunk.running_digest, prev_string, chunk.string, chunk.next_string))),
        user_proof=ChunkProof(chunk.string, signer.sign(proof_payload(
            user_fold, prev_string, chunk.string, chunk.next_string))),
        ruleset_digest=chunk.ruleset_digest,
    )


@dataclass
class SealerAlert:
    """A discarded input or rejected control message, kept for operators."""

    reason: str
    at: float = field(default_factory=time.time)


class Sealer:
    """Single-writer sealing pipeline for one sensor stream.

    Control inputs (rule installs, notice receipts, ACKs) may arrive at
    any time but only take effect at the next chunk boundary, i.e. when
    the next chunk receives its first reading. Under the notice-only
    model rules become enforceable only after the trusted notifier's
    transmission receipt; under notice-and-ACK each device's readings
    stay passive until that device's acknowledgment is effective.
    """

    def __init__(
        self,
        keys: KeyPair,
        notifier_pub: PublicKeys,
        device_registry: dict[DeviceId, PublicKeys],
        store,
        policy: ChunkPolicy = ChunkPolicy(),
        model: NotificationModel = NotificationModel.NOM,
        rand: RandomSource | None = None,
    ):
        self._keys = keys
        self._notifier_pub = notifier_pub
        self._registry = dict(device_registry)
        self._store = store
        self._policy = policy
        self._model = model
        self._rand = rand or RandomSource()
        self._transport = SessionReceiver(keys)
        self.seed_string = self._rand.random32()
        self._prev_string = self.seed_string
        self._open = OpenChunk(1, self._rand.random32(), self._rand.random32())
        self._installed: RuleSet | None = None
        self._confirmed: RuleSet | None = None
        self._acks: set[DeviceId] = set()
        self._acked_notices: set[tuple[str, DeviceId]] = set()
        self._last_time = 0
        self._finalized = False
        self.alerts: list[SealerAlert] = []
        self.chunk_seal_seconds: list[float] = []
        store.initialize(self.seed_string)

    @property
    def public(self) -> PublicKeys:
        return self._keys.public

    @property
    def model(self) -> NotificationModel:
        return self._model

    # --- notification-side control plane ---------------------------------

    def install_ruleset(self, rs: RuleSet) -> NoticeEnvelope:
        """Record a rule set and emit its encrypted notice envelope.

        The cleartext rules stay inside the sealer; what crosses the
        boundary is ciphertext for the notifier plus, under
        notice-and-ACK, one sealed blob per registered device.
        """
        if self._finalized:
            raise SealingError("sealer is finalized")
        live = [rs_ for rs_ in (self._installed, self._confirmed) if rs_ is not None]
        if self._open.effective_rules is not None:
            live.append(self._open.effective_rules)
        live_ids = {r.rule_id for level in live for r in level.rules}
        clash = live_ids & {r.rule_id for r in rs.rules}
        if clash:
            raise SealingError(f"rule ids already live: {sorted(clash)}")
        text = format_rules(rs).encode()
        envelope = NoticeEnvelope(
            rules_digest=rs.digest,
            model=self._model,
            ct_for_notifier=seal_to(self._notifier_pub, text, self._rand),
            per_device=tuple(
                (dev, seal_to(pub, text, self._rand)) for dev, pub in sorted(
                    self._registry.items(), key=lambda kv: kv[0].id
                )
            ) if self._model is NotificationModel.NAM else (),
        )
        self._installed = rs
        if self._model is NotificationModel.NAM:
            # NaM needs no notifier receipt; per-device ACKs do the gating.
            self._confirmed = rs
        return envelope

    def confirm_notice_receipt(self, receipt: TransmissionReceipt) -> None:
        """Accept the notifier's transmission receipt (notice-only model)."""
        if self._installed is None:
            self.alerts.append(SealerAlert("receipt without installed rules"))
            return
        if receipt.rules_digest != self._installed.digest or not verify(
            self._notifier_pub, receipt_payload(receipt.notice_id, receipt.rules_digest),
            receipt.notifier_sig,
        ):
            self.alerts.append(SealerAlert("invalid notifier receipt rejected"))
            return
        self._confirmed = self._installed

    def register_ack(self, ack: Acknowledgment) -> bool:
        """Admit a device acknowledgment; effective from the next chunk.

        Signature must verify under the registered device key, defeating
        impersonation. Duplicate ACKs are idempotent.
        """
        pub = self._registry.get(ack.device)
        if pub is None:
            self.alerts.append(SealerAlert(f"ack from unregistered device {ack.device}"))
            return False
        if not verify(pub, ack_payload(ack.notice_id, ack.device), ack.device_sig):
            self.alerts.append(SealerAlert(f"ack signature rejected for {ack.device}"))
            return False
        key = (ack.notice_id, ack.device)
        if key not in self._acked_notices:
            self._acked_notices.add(key)
            self._acks.add(ack.device)
        return True

    # --- data plane -------------------------------------------------------

    def ingest(self, ciphertext: bytes) -> StatefulReading | None:
        """Decrypt, state-assign, and seal one transported reading.

        Returns None (with an alert) when the message fails
        authentication, when its counter repeats or precedes one already
        opened in its session, or when its reading is older than the
        stream: a corrupted, replayed or rogue controller stream must not
        reach the chains. A message that skips counters is still sealed,
        with an alert naming the missing ones.
        """
        try:
            plaintext, skipped = self._transport.open(ciphertext)
            reading = decode_wire_reading(plaintext)
        except (CryptoError, ValueError) as e:
            self.alerts.append(SealerAlert(f"discarded reading: {e}"))
            return None
        if skipped:
            self.alerts.append(SealerAlert(
                f"transport gap: session messages {skipped.start}..{skipped.stop - 1} missing"))
        if reading.time < self._last_time:
            self.alerts.append(SealerAlert(
                f"discarded stale reading: time {reading.time} precedes the stream's {self._last_time}"))
            return None
        return self.submit_reading(reading)

    def submit_reading(self, reading: SensorReading) -> StatefulReading:
        """Seal one already-decrypted reading (the post-transport path)."""
        if self._finalized:
            raise SealingError("sealer is finalized")
        if reading.time < self._last_time:
            raise SealingError("stream timestamps must be non-decreasing")
        self._last_time = reading.time
        chunk = self._open
        if chunk.deadline is not None and reading.time >= chunk.deadline:
            self._close_open()
            chunk = self._open
        if chunk.deadline is None:
            self._start_chunk(chunk, reading.time)
        sr = StatefulReading(reading, self._state_for(reading, chunk))
        record_len = self._record_len(sr)
        if chunk.order and chunk.chain_bytes + record_len > self._policy.max_bytes:
            self._close_open()
            chunk = self._open
            self._start_chunk(chunk, reading.time)
            sr = StatefulReading(reading, self._state_for(reading, chunk))
        seal_append(chunk, sr, self._policy.checkpoint_every)
        return sr

    def finalize(self) -> bytes:
        """Close the stream: seal any open readings, publish the terminal string."""
        if self._finalized:
            raise SealingError("sealer already finalized")
        if self._open.order:
            self._close_open()
        terminal = self._open.string
        self._store.set_terminal(terminal)
        self._finalized = True
        return terminal

    # --- internals ---------------------------------------------------------

    def _start_chunk(self, chunk: OpenChunk, first_time: int) -> None:
        window = self._policy.max_window_ms
        chunk.deadline = (first_time // window + 1) * window
        chunk.effective_rules = self._confirmed
        chunk.effective_acks = frozenset(self._acks)
        chunk.ruleset_digest = (
            self._confirmed.digest if self._confirmed is not None else EMPTY_RULESET_DIGEST
        )

    def _state_for(self, reading: SensorReading, chunk: OpenChunk) -> SensorState:
        rs = chunk.effective_rules
        if rs is None:
            return SensorState.PASSIVE
        if self._model is NotificationModel.NAM and reading.device not in chunk.effective_acks:
            return SensorState.PASSIVE
        return evaluate_state(rs, reading)

    @staticmethod
    def _record_len(sr: StatefulReading) -> int:
        r = sr.reading
        if sr.state is SensorState.ACTIVE:
            return 2 + len(r.device.id) + 2 + len(r.sensor.id) + 9
        return 32 + 2 + len(r.sensor.id) + 9

    def _close_open(self) -> None:
        started = time.perf_counter()
        chunk = self._open
        sealed = close_chunk(chunk, self._prev_string, self._keys, self._policy.checkpoint_every)
        self._store.put_sealed_chunk(sealed)
        self._prev_string = chunk.string
        self._open = OpenChunk(chunk.index + 1, chunk.next_string, self._rand.random32())
        self.chunk_seal_seconds.append(time.perf_counter() - started)
