"""sensorseal: tamper-evident sealing and offline attestation for sensor-event logs.

A trusted sealer enforces pre-notified data-capture rules on a stream of
sensor readings, folds them into hash-chained chunks linked by XOR-ed
random strings, and signs two proofs per chunk: one an auditor checks
against the full payload, one a user checks without learning anyone
else's device ids. Everything verifies offline against an untrusted
store.
"""

from .crypto import verify as verify_signature
from .crypto import (
    KeyPair,
    PublicKeys,
    RandomSource,
    Role,
    SeededRandomSource,
    Session,
    fresh_random_string,
    seal_to,
    sha256,
    xor_bytes,
)
from .events import (
    DeviceId,
    SensorId,
    SensorReading,
    SensorState,
    StatefulReading,
    encode_reading,
    presence_digest,
    state_digest,
)
from .rules import DataCaptureRule, RuleAction, RuleSet, evaluate_state, matches, ruleset_digest
from .notices import Acknowledgment, NoticeMessage, NotificationModel, Notifier, UserRegistration, make_ack
from .sealing import ChunkPolicy, ChunkProof, SealedChunk, Sealer, close_chunk, seal_append
from .store import Bundle, ChunkStore, PresharedKeyAuth, read_bundle_file, write_bundle_file
from .verify import Outcome, PresenceReport, Verdict, audit_chunk, audit_range, verify_user_chunk, verify_user_range
from .harness import TamperAction, TamperKind, WorkloadSpec, apply_tamper, generate, generate_readings

__version__ = "0.1.0"

__all__ = [
    "Acknowledgment", "Bundle", "ChunkPolicy", "ChunkProof", "ChunkStore",
    "DataCaptureRule", "DeviceId", "KeyPair", "NoticeMessage",
    "NotificationModel", "Notifier", "Outcome", "PresenceReport",
    "PresharedKeyAuth", "PublicKeys", "RandomSource", "Role", "RuleAction",
    "RuleSet", "SealedChunk", "Sealer", "SeededRandomSource", "SensorId", "Session",
    "SensorReading", "SensorState", "StatefulReading", "TamperAction",
    "TamperKind", "UserRegistration", "Verdict", "WorkloadSpec",
    "apply_tamper", "audit_chunk", "audit_range", "close_chunk",
    "encode_reading", "evaluate_state", "fresh_random_string", "generate",
    "generate_readings", "make_ack", "matches", "presence_digest",
    "read_bundle_file", "ruleset_digest", "seal_append", "seal_to",
    "sha256", "state_digest", "verify_signature", "verify_user_chunk",
    "verify_user_range", "write_bundle_file", "xor_bytes",
]
