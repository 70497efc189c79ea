"""Cryptographic primitives behind stable contracts.

Everything the sealer and the verifiers need: SHA-256 digests, 32-byte
random strings, bytewise XOR, Ed25519 signatures, and an authenticated
public-key envelope (X25519 + HKDF + ChaCha20-Poly1305) for the
controller-to-sealer transport. The envelope is a session: one X25519
handshake, then one AEAD message per reading under a counter nonce.
Digests and random strings are raw 32-byte values with no encoding.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from enum import Enum

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives import hashes, serialization

RANDOM_LEN = 32
SIGNATURE_LEN = 64
ENVELOPE_OVERHEAD = 32 + 12 + 16  # ephemeral public key, nonce, AEAD tag

_SEAL_INFO = b"sensorseal envelope v1"


class CryptoError(Exception):
    """Raised on malformed key material or failed authentication."""


class Role(Enum):
    ENCLAVE = "enclave"
    NOTIFIER = "notifier"
    DEVICE = "device"


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of `data` (32 raw bytes)."""
    return hashlib.sha256(data).digest()


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR of two equal-length strings."""
    if len(a) != len(b):
        raise CryptoError(f"xor length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


class RandomSource:
    """256-bit random strings from OS entropy.

    Subclass and override `random32` to substitute a deterministic source
    for reproducible runs; the sealer only ever calls `random32`.
    """

    def random32(self) -> bytes:
        out = os.urandom(RANDOM_LEN)
        if len(out) != RANDOM_LEN:
            raise CryptoError("entropy source failure")
        return out


class SeededRandomSource(RandomSource):
    """Deterministic SHA-256 counter stream for reproducible runs."""

    def __init__(self, seed: bytes):
        self._seed = bytes(seed)
        self._counter = 0

    def random32(self) -> bytes:
        block = sha256(self._seed + self._counter.to_bytes(8, "big"))
        self._counter += 1
        return block


def fresh_random_string(source: RandomSource | None = None) -> bytes:
    """Draw a fresh 32-byte random string from `source` (OS entropy by default)."""
    return (source or RandomSource()).random32()


@dataclass(frozen=True)
class PublicKeys:
    """Public half of a key pair: Ed25519 verify key + X25519 encryption key."""

    role: Role
    verify_key: bytes   # 32 raw bytes
    encrypt_key: bytes  # 32 raw bytes

    def __post_init__(self):
        if len(self.verify_key) != 32 or len(self.encrypt_key) != 32:
            raise CryptoError("public keys must be 32 raw bytes each")

    def to_bytes(self) -> bytes:
        return self.verify_key + self.encrypt_key

    @classmethod
    def from_bytes(cls, role: Role, blob: bytes) -> "PublicKeys":
        if len(blob) != 64:
            raise CryptoError("public key blob must be 64 bytes")
        return cls(role, blob[:32], blob[32:])


class KeyPair:
    """Signing (Ed25519) plus encryption (X25519) key pair for one role.

    The private halves never leave this object except through
    `to_secret_bytes`, which the enclave role must not call outside the
    trusted boundary (the key-dir files written at keygen stand in for
    the trusted authority's escrow).
    """

    def __init__(self, role: Role, sign_key: Ed25519PrivateKey, enc_key: X25519PrivateKey):
        self.role = role
        self._sign_key = sign_key
        self._enc_key = enc_key
        self.public = PublicKeys(
            role,
            sign_key.public_key().public_bytes(
                serialization.Encoding.Raw, serialization.PublicFormat.Raw
            ),
            enc_key.public_key().public_bytes(
                serialization.Encoding.Raw, serialization.PublicFormat.Raw
            ),
        )

    @classmethod
    def generate(cls, role: Role) -> "KeyPair":
        return cls(role, Ed25519PrivateKey.generate(), X25519PrivateKey.generate())

    @classmethod
    def from_seed(cls, role: Role, seed: bytes) -> "KeyPair":
        """Derive a key pair deterministically from 32 bytes of seed material."""
        if len(seed) < 32:
            raise CryptoError("seed must be at least 32 bytes")
        sign_seed = sha256(b"sign" + seed)
        enc_seed = sha256(b"encrypt" + seed)
        return cls(
            role,
            Ed25519PrivateKey.from_private_bytes(sign_seed),
            X25519PrivateKey.from_private_bytes(enc_seed),
        )

    def to_secret_bytes(self) -> bytes:
        raw = serialization.Encoding.Raw
        return self._sign_key.private_bytes(
            raw, serialization.PrivateFormat.Raw, serialization.NoEncryption()
        ) + self._enc_key.private_bytes(
            raw, serialization.PrivateFormat.Raw, serialization.NoEncryption()
        )

    @classmethod
    def from_secret_bytes(cls, role: Role, blob: bytes) -> "KeyPair":
        if len(blob) != 64:
            raise CryptoError("secret key blob must be 64 bytes")
        return cls(
            role,
            Ed25519PrivateKey.from_private_bytes(blob[:32]),
            X25519PrivateKey.from_private_bytes(blob[32:]),
        )

    def sign(self, payload: bytes) -> bytes:
        return self._sign_key.sign(payload)

    def accept(self, ephemeral_pub: bytes) -> "Session":
        """The recipient's handshake: X25519 with a sender's ephemeral key, then HKDF."""
        try:
            shared = self._enc_key.exchange(X25519PublicKey.from_public_bytes(ephemeral_pub))
        except ValueError as e:
            raise CryptoError("envelope authentication failed") from e
        return Session(ephemeral_pub, _envelope_key(shared, ephemeral_pub, self.public.encrypt_key))

    def open_sealed(self, ciphertext: bytes) -> bytes:
        """Open any one message from `seal_to` or a `Session`; raises CryptoError if tampered."""
        if len(ciphertext) < ENVELOPE_OVERHEAD:
            raise CryptoError("envelope too short")
        return self.accept(ciphertext[:32]).open(ciphertext)


def verify(public: PublicKeys, payload: bytes, signature: bytes) -> bool:
    """True iff `signature` is a valid Ed25519 signature on `payload`."""
    if len(signature) != SIGNATURE_LEN:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public.verify_key).verify(signature, payload)
        return True
    except (InvalidSignature, ValueError):
        return False


def _envelope_key(shared: bytes, ephemeral_pub: bytes, recipient_pub: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(),
        length=32,
        salt=ephemeral_pub + recipient_pub,
        info=_SEAL_INFO,
    ).derive(shared)


class Session:
    """One transport session: an ephemeral X25519 key and the AEAD key it
    shares with the recipient.

    Every message is ephemeral_pub(32) || nonce(12) || AEAD ciphertext,
    with the ephemeral public key as associated data, so each one also
    opens on its own with `KeyPair.open_sealed`. The sender's nonce is
    its message counter, `seq.to_bytes(12, "big")` from 0, so no nonce
    repeats under one key and the counter itself is authenticated.
    """

    __slots__ = ("ephemeral_pub", "_seq", "_aead")

    def __init__(self, ephemeral_pub: bytes, key: bytes):
        self.ephemeral_pub = ephemeral_pub
        self._seq = 0
        self._aead = ChaCha20Poly1305(key)

    @classmethod
    def start(cls, recipient: PublicKeys, rand: RandomSource | None = None) -> "Session":
        """The sender's side: one ephemeral key from `rand` (OS entropy by default)."""
        eph = X25519PrivateKey.from_private_bytes(fresh_random_string(rand))
        eph_pub = eph.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )
        shared = eph.exchange(X25519PublicKey.from_public_bytes(recipient.encrypt_key))
        return cls(eph_pub, _envelope_key(shared, eph_pub, recipient.encrypt_key))

    def seal(self, plaintext: bytes) -> bytes:
        """Encrypt the session's next message under the counter nonce."""
        nonce = self._seq.to_bytes(12, "big")
        self._seq += 1
        return self.ephemeral_pub + nonce + self._aead.encrypt(nonce, plaintext, self.ephemeral_pub)

    def open(self, message: bytes) -> bytes:
        """Decrypt one message of this session; raises CryptoError if tampered."""
        try:
            return self._aead.decrypt(message[32:44], message[44:], self.ephemeral_pub)
        except InvalidTag as e:
            raise CryptoError("envelope authentication failed") from e


def seal_to(recipient: PublicKeys, plaintext: bytes, rand: RandomSource | None = None) -> bytes:
    """Encrypt `plaintext` so only the recipient's private key can open it.

    A one-message session: randomized by its fresh ephemeral key (drawn
    from `rand`, OS entropy by default) and authenticated, so any bit
    flip fails authentication on open.
    """
    return Session.start(recipient, rand).seal(plaintext)


class SessionReceiver:
    """The recipient's side of the transport: the one live session and
    the next counter it expects.

    A message of the live session is rejected if its counter is below
    the next expected one (a replay or a reorder), and otherwise only
    decrypted. Any other message pays the full handshake, and once it
    authenticates its session becomes the live one. A rejected message
    leaves the live session as it was.
    """

    __slots__ = ("_keys", "_live", "_next")

    def __init__(self, keys: KeyPair):
        self._keys = keys
        self._live: Session | None = None
        self._next = 0

    def open(self, message: bytes) -> tuple[bytes, range]:
        """Open one message; return its plaintext and the counters it skipped
        in the live session (an empty range when none)."""
        if len(message) < ENVELOPE_OVERHEAD:
            raise CryptoError("envelope too short")
        seq = int.from_bytes(message[32:44], "big")
        live = self._live
        if live is not None and message[:32] == live.ephemeral_pub:
            if seq < self._next:
                raise CryptoError(
                    f"session counter {seq} below the next expected {self._next} (replay or reorder)")
            plaintext = live.open(message)
            skipped = range(self._next, seq)
        else:
            live = self._keys.accept(message[:32])
            plaintext = live.open(message)
            self._live = live
            skipped = range(0)
        self._next = seq + 1
        return plaintext, skipped
