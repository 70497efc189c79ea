"""Notification phase: signed notices, delivery fan-out, and device ACKs.

Two models. Notice-only (NoM): a trusted notifier decrypts the sealer's
rule envelope, signs a notice, fans it out to every registered user, and
returns a transmission receipt; rules are enforceable only after the
sealer sees that receipt. Notice-and-ACK (NaM): delivery needs no
trusted notifier (the envelope carries one sealed blob per registered
device), and each device's readings stay passive until the device's
signed acknowledgment reaches the sealer.

The notifier is an in-process trusted role; transport is out of scope,
the trust relationship is what matters here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from struct import Struct

from .codec import Cursor, FormatError, listed
from .crypto import CryptoError, KeyPair, PublicKeys, sha256, verify
from .events import DeviceId, lp, encode_time
from .rules import RuleSet, parse_rules


class NotificationModel(Enum):
    NOM = "nom"
    NAM = "nam"


class NoticeError(Exception):
    """Raised when the notifier refuses a rule envelope."""


@dataclass(frozen=True)
class NoticeEnvelope:
    """What the sealer writes across the boundary for a new rule set."""

    rules_digest: bytes
    model: NotificationModel
    ct_for_notifier: bytes
    per_device: tuple[tuple[DeviceId, bytes], ...] = ()


@dataclass(frozen=True)
class UserRegistration:
    device: DeviceId
    contact: str
    public: PublicKeys


@dataclass(frozen=True)
class NoticeMessage:
    """A published notice binding a rule-set digest to its delivery."""

    notice_id: str
    model: NotificationModel
    rules_digest: bytes
    encrypted_rules: bytes
    per_device: tuple[tuple[DeviceId, bytes], ...]
    notifier_sig: bytes
    issued_at: int


@dataclass(frozen=True)
class DeliveryReceipt:
    device: DeviceId
    delivered: bool
    at: int


@dataclass(frozen=True)
class TransmissionReceipt:
    """The notifier's signed acknowledgment of transmission back to the sealer."""

    notice_id: str
    rules_digest: bytes
    notifier_sig: bytes
    at: int


@dataclass(frozen=True)
class Acknowledgment:
    notice_id: str
    device: DeviceId
    device_sig: bytes
    received_at: int


def notice_payload(notice_id: str, issued_at: int, rules_digest: bytes, ciphertext: bytes) -> bytes:
    return b"notice" + lp(notice_id.encode()) + encode_time(issued_at) + rules_digest + sha256(ciphertext)


def receipt_payload(notice_id: str, rules_digest: bytes) -> bytes:
    return b"receipt" + lp(notice_id.encode()) + rules_digest


def ack_payload(notice_id: str, device: DeviceId) -> bytes:
    return b"ack" + lp(notice_id.encode()) + lp(device.id)


class Notifier:
    """The trusted notifier role (holds PR_N)."""

    def __init__(self, keys: KeyPair):
        self._keys = keys

    @property
    def public(self) -> PublicKeys:
        return self._keys.public

    def open_rules(self, envelope: NoticeEnvelope) -> RuleSet:
        """Decrypt and validate the sealer's rule envelope.

        Rejects the envelope unless the ciphertext authenticates and the
        decrypted rules reproduce the envelope's digest exactly.
        """
        try:
            text = self._keys.open_sealed(envelope.ct_for_notifier)
        except CryptoError as e:
            raise NoticeError(f"rule envelope rejected: {e}") from e
        rs = parse_rules(text.decode())
        if rs.digest != envelope.rules_digest:
            raise NoticeError("decrypted rules do not match the envelope digest")
        return rs

    def publish(
        self,
        envelope: NoticeEnvelope,
        registrations: list[UserRegistration],
        notice_id: str,
        issued_at: int,
        unreachable: frozenset[DeviceId] = frozenset(),
    ) -> tuple[NoticeMessage, list[DeliveryReceipt], TransmissionReceipt]:
        """Sign and fan out a notice; return the transmission receipt.

        Delivery is best-effort per user (undeliverable users are
        recorded, not fatal); enforcement gates on the transmission
        receipt, which asserts the notifier accepted and sent the notice.
        """
        self.open_rules(envelope)
        notice = NoticeMessage(
            notice_id=notice_id,
            model=envelope.model,
            rules_digest=envelope.rules_digest,
            encrypted_rules=envelope.ct_for_notifier,
            per_device=envelope.per_device,
            notifier_sig=self._keys.sign(
                notice_payload(notice_id, issued_at, envelope.rules_digest, envelope.ct_for_notifier)
            ),
            issued_at=issued_at,
        )
        receipts = [DeliveryReceipt(reg.device, reg.device not in unreachable, issued_at)
                    for reg in registrations]
        transmission = TransmissionReceipt(
            notice_id=notice_id,
            rules_digest=envelope.rules_digest,
            notifier_sig=self._keys.sign(receipt_payload(notice_id, envelope.rules_digest)),
            at=issued_at,
        )
        return notice, receipts, transmission


def verify_notice(notice: NoticeMessage, notifier_pub: PublicKeys) -> bool:
    return verify(
        notifier_pub,
        notice_payload(notice.notice_id, notice.issued_at, notice.rules_digest, notice.encrypted_rules),
        notice.notifier_sig,
    )


def make_ack(device_keys: KeyPair, device: DeviceId, notice_id: str, at: int) -> Acknowledgment:
    """A device's signed consent to a published notice."""
    return Acknowledgment(
        notice_id=notice_id,
        device=device,
        device_sig=device_keys.sign(ack_payload(notice_id, device)),
        received_at=at,
    )


def verify_ack(ack: Acknowledgment, device_pub: PublicKeys) -> bool:
    return verify(device_pub, ack_payload(ack.notice_id, ack.device), ack.device_sig)


# --- length-prefixed binary records for untrusted persistence -------------
#
# Persisted records never include the per-device delivery blobs: an
# addressed fan-out would write every registered device id into the
# untrusted store, leaking the registry (including non-consenting
# users). Delivery is transport; the store keeps only what verification
# needs (digest, ciphertext for the notifier, signature).

_MODELS = {0: NotificationModel.NOM, 1: NotificationModel.NAM}
_U32 = Struct(">I")
_TIME = Struct(">Q")
_MODEL_TIME = Struct(">BQ")


def _notice_id(c: Cursor) -> str:
    raw = c.lp()
    try:
        return raw.decode()
    except UnicodeDecodeError as e:
        raise FormatError(f"notice id is not UTF-8: {e.reason}") from None


def encode_notice(n: NoticeMessage) -> bytes:
    return b"".join([
        lp(n.notice_id.encode()),
        b"\x01" if n.model is NotificationModel.NAM else b"\x00",
        encode_time(n.issued_at),
        n.rules_digest,
        len(n.encrypted_rules).to_bytes(4, "big"), n.encrypted_rules,
        lp(n.notifier_sig),
    ])


def decode_notice(buf: bytes) -> NoticeMessage:
    c = Cursor(buf)
    notice_id = _notice_id(c)
    model, issued_at = c.unpack(_MODEL_TIME)
    model = listed(_MODELS, model, "notification model")
    digest = c.take(32)
    ct = c.take(c.unpack(_U32)[0])
    sig = c.lp()
    c.done("notice record")
    return NoticeMessage(notice_id, model, digest, ct, (), sig, issued_at)


def encode_receipt(r: TransmissionReceipt) -> bytes:
    return lp(r.notice_id.encode()) + r.rules_digest + encode_time(r.at) + lp(r.notifier_sig)


def decode_receipt(buf: bytes) -> TransmissionReceipt:
    c = Cursor(buf)
    notice_id = _notice_id(c)
    digest = c.take(32)
    (at,) = c.unpack(_TIME)
    sig = c.lp()
    c.done("receipt record")
    return TransmissionReceipt(notice_id, digest, sig, at)


def encode_envelope(e: NoticeEnvelope) -> bytes:
    return b"".join([
        e.rules_digest,
        b"\x01" if e.model is NotificationModel.NAM else b"\x00",
        len(e.ct_for_notifier).to_bytes(4, "big"), e.ct_for_notifier,
    ])


def decode_envelope(buf: bytes) -> NoticeEnvelope:
    c = Cursor(buf)
    digest = c.take(32)
    model = listed(_MODELS, c.take(1)[0], "notification model")
    ct = c.take(c.unpack(_U32)[0])
    c.done("envelope record")
    return NoticeEnvelope(digest, model, ct, ())


def encode_ack(a: Acknowledgment) -> bytes:
    return lp(a.notice_id.encode()) + lp(a.device.id) + encode_time(a.received_at) + lp(a.device_sig)


def decode_ack(buf: bytes) -> Acknowledgment:
    c = Cursor(buf)
    notice_id = _notice_id(c)
    device = DeviceId(c.lp())
    (at,) = c.unpack(_TIME)
    sig = c.lp()
    c.done("ack record")
    return Acknowledgment(notice_id, device, sig, at)
