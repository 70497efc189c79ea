"""Untrusted persistence: chunk files, manifest, notices, and verifier bundles.

Nothing here is trusted; the whole point is that this layer can be
corrupted and the verifiers must notice. The chunk file format is
normative (see docs/FORMATS.md): one file per sealed chunk, sectioned
and length-prefixed with little-endian section headers, magic bytes and
a format version, so the tamper harness can corrupt it surgically and
parsers can reject anything non-canonical. A chunk's record sections
are the record encodings the sealer already built, joined; parsing
gives back the same `SealedChunk` the sealer closed.

Bundles implement log minimality: a verifier receives exactly the
requested chunks plus the neighbor random strings its proofs need
(the published seed and terminal strings at the stream boundaries),
never the rest of the log. Deleted chunks appear as explicit gap
markers so verifiers flag them instead of silently skipping.
"""

from __future__ import annotations

import functools
import hmac
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .codec import Cursor, FormatError, listed
from .events import RedactedRecord, SensorState, decode_redacted, record_time, redact, walk_records
from .notices import (
    Acknowledgment,
    NoticeEnvelope,
    NoticeMessage,
    decode_ack,
    decode_notice,
    encode_ack,
    encode_envelope,
    encode_notice,
)
from .sealing import ChunkProof, SealedChunk

CHUNK_MAGIC = b"SSC1"
BUNDLE_MAGIC = b"SSB1"
FORMAT_VERSION = 1

SEC_ACTIVE = 1
SEC_REDACTED = 2
SEC_ORDER = 3
SEC_CHECKPOINTS = 4
SEC_INTEGRITY_PROOF = 5
SEC_USER_PROOF = 6
SEC_RULESET = 7
_SECTION_IDS = (SEC_ACTIVE, SEC_REDACTED, SEC_ORDER, SEC_CHECKPOINTS,
                SEC_INTEGRITY_PROOF, SEC_USER_PROOF, SEC_RULESET)

_HEADER = struct.Struct("<4sHQH")          # magic, version, chunk index, n_sections
_TABLE_ENTRY = struct.Struct("<HQQQ")      # section id, offset, length, count
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class StoreError(Exception):
    pass


class AuthError(StoreError):
    """Verifier authentication refused."""


ChunkFormatError = FormatError  # what `parse_chunk` raises, with its `record`


# --- chunk file serialization ----------------------------------------------

def checkpoint_positions(n: int, every: int) -> list[int]:
    """Record ordinals at which running chain digests are stored."""
    positions = list(range(every, n + 1, every))
    if not positions or positions[-1] != n:
        positions.append(n)
    return positions


def _unpack_order(data: bytes, n: int) -> bytes:
    c = Cursor(data)
    bits = np.unpackbits(np.frombuffer(c.take((n + 7) // 8), np.uint8))
    c.done("order section")
    if bits[n:].any():
        raise FormatError("order section has nonzero padding bits")
    return bits[:n].tobytes()


def _proof_bytes(proof: ChunkProof) -> bytes:
    return proof.string + len(proof.sig).to_bytes(2, "little") + proof.sig


def _read_proof(c: Cursor) -> ChunkProof:
    string = c.take(32)
    (sig_len,) = c.unpack(_U16)
    if sig_len != 64:
        raise FormatError(f"proof signature length {sig_len}, expected 64")
    return ChunkProof(string, c.take(sig_len))


def _parse_proof(data: bytes) -> ChunkProof:
    c = Cursor(data)
    proof = _read_proof(c)
    c.done("proof section")
    return proof


def serialize_chunk(sc: SealedChunk) -> bytes:
    """The chunk file: header, section table, then the sections in id order."""
    checkpoints = sc.checkpoint_every.to_bytes(4, "little") + b"".join(sc.checkpoints)
    sections = (
        (SEC_ACTIVE, b"".join(sc.active_encs), len(sc.active_encs)),
        (SEC_REDACTED, b"".join(sc.redacted_encs), len(sc.redacted_encs)),
        (SEC_ORDER, np.packbits(np.frombuffer(sc.order, np.uint8)).tobytes(), len(sc.order)),
        (SEC_CHECKPOINTS, checkpoints, len(sc.checkpoints)),
        (SEC_INTEGRITY_PROOF, _proof_bytes(sc.integrity_proof), 1),
        (SEC_USER_PROOF, _proof_bytes(sc.user_proof), 1),
        (SEC_RULESET, sc.ruleset_digest, 1),
    )
    out = [_HEADER.pack(CHUNK_MAGIC, FORMAT_VERSION, sc.index, len(sections))]
    offset = _HEADER.size + _TABLE_ENTRY.size * len(sections)
    for sec_id, data, count in sections:
        out.append(_TABLE_ENTRY.pack(sec_id, offset, len(data), count))
        offset += len(data)
    out.extend(data for _, data, _ in sections)
    return b"".join(out)


def read_sections(blob: bytes) -> tuple[int, dict[int, tuple[bytes, int]]]:
    """Structural read of a chunk file: header checks plus exact section slicing."""
    c = Cursor(blob)
    magic, version, index, n_sections = c.unpack(_HEADER)
    if magic != CHUNK_MAGIC:
        raise FormatError("bad magic")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if n_sections != len(_SECTION_IDS):
        raise FormatError("unexpected section count")
    table = [c.unpack(_TABLE_ENTRY) for _ in _SECTION_IDS]
    sections: dict[int, tuple[bytes, int]] = {}
    for sec_id, (sid, offset, length, count) in zip(_SECTION_IDS, table):
        if sid != sec_id:
            raise FormatError(f"section id {sid} out of order")
        if offset != c.pos:
            raise FormatError("section offsets not contiguous")
        sections[sec_id] = (c.take(length), count)
    c.done("chunk file")
    return index, sections


def _record_section(section: str, data: bytes, count: int, tagged: bool,
                    state: SensorState) -> tuple[bytes, ...]:
    """The encodings of a record section's `count` records, all in `state`."""
    c = Cursor(data)
    try:
        encs = walk_records(c, count, tagged, state)
    except FormatError as e:
        raise FormatError(f"{section} {e}", e.record) from e
    c.done(f"{section} section")
    return tuple(encs)


def parse_chunk(blob: bytes) -> SealedChunk:
    """Strict parse: any non-canonical byte is a format error.

    Strictness is load-bearing: semantically dead bytes (padding,
    section slack) would otherwise be mutable without flipping any
    verifier's verdict. Every record is checked here by one walk over
    its section's bytes, which the chunk then holds as they are.
    """
    index, sections = read_sections(blob)

    active_data, n_active = sections[SEC_ACTIVE]
    red_data, n_passive = sections[SEC_REDACTED]
    active_encs = _record_section("active", active_data, n_active, False, SensorState.ACTIVE)
    redacted_encs = _record_section("redacted", red_data, n_passive, True, SensorState.PASSIVE)

    order_data, n = sections[SEC_ORDER]
    if n != n_active + n_passive or n == 0:
        raise FormatError("order count disagrees with record counts")
    order = _unpack_order(order_data, n)
    if order.count(1) != n_active:
        raise FormatError("order bits disagree with record counts")

    cp_data, n_cp = sections[SEC_CHECKPOINTS]
    c = Cursor(cp_data)
    (every,) = c.unpack(_U32)
    if every == 0:
        raise FormatError("checkpoint interval must be positive")
    if n_cp != len(checkpoint_positions(n, every)):
        raise FormatError("checkpoint count disagrees with record count")
    checkpoints = [c.take(32) for _ in range(n_cp)]
    c.done("checkpoint section")

    integrity_proof = _parse_proof(sections[SEC_INTEGRITY_PROOF][0])
    user_proof = _parse_proof(sections[SEC_USER_PROOF][0])
    if (sections[SEC_INTEGRITY_PROOF][1] != 1 or sections[SEC_USER_PROOF][1] != 1
            or sections[SEC_RULESET][1] != 1):
        raise FormatError("proof/digest sections must have count 1")
    if integrity_proof.string != user_proof.string:
        raise FormatError("integrity and user proofs carry different strings")

    c = Cursor(sections[SEC_RULESET][0])
    digest = c.take(32)
    c.done("ruleset digest section")

    return SealedChunk(
        index=index, active_encs=active_encs, redacted_encs=redacted_encs,
        order=order, checkpoints=tuple(checkpoints), checkpoint_every=every,
        integrity_proof=integrity_proof, user_proof=user_proof, ruleset_digest=digest,
    )


# --- verifier bundles -------------------------------------------------------

@dataclass(frozen=True)
class BundleStrings:
    """Neighbor random strings a bundle ships alongside its chunks."""

    seed: bytes | None
    terminal: bytes | None
    by_index: dict[int, bytes]
    log_first: int | None
    log_last: int | None

    def resolve(self, index: int) -> tuple[bytes | None, bytes | None, bytes | None]:
        """(previous, own, next) strings for a chunk, None where unavailable."""
        own = self.by_index.get(index)
        prev = self.by_index.get(index - 1)
        if prev is None and index == self.log_first:
            prev = self.seed
        nxt = self.by_index.get(index + 1)
        if nxt is None and index == self.log_last:
            nxt = self.terminal
        return prev, own, nxt


@dataclass(frozen=True)
class AuditorEntry:
    index: int
    raw: bytes | None  # None marks a gap: the store could not produce the chunk


@dataclass(frozen=True)
class UserEntry:
    """One chunk as a user sees it: every record's redacted encoding, in
    sealing order, and the user proof. `records` is a view decoded from them."""

    index: int
    encs: tuple[bytes, ...] | None
    proof: ChunkProof | None
    malformed: str | None = None  # why the chunk or its bundle entry failed to decode

    @functools.cached_property
    def records(self) -> tuple[RedactedRecord, ...] | None:
        if self.encs is None:
            return None
        return tuple(decode_redacted(Cursor(enc)) for enc in self.encs)


@dataclass
class Bundle:
    kind: str  # "auditor" | "user"
    first: int
    last: int
    strings: BundleStrings
    notices: list[NoticeMessage]
    entries: Iterable


class Authenticator:
    """Pluggable verifier authentication hook for user-bundle requests."""

    def allow(self, credential: bytes | None) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class PresharedKeyAuth(Authenticator):
    def __init__(self, key: bytes):
        self._key = bytes(key)

    def allow(self, credential: bytes | None) -> bool:
        return credential is not None and hmac.compare_digest(self._key, credential)


def derive_user_records(parsed: SealedChunk) -> tuple[bytes, ...]:
    """Every record's redacted encoding, in sealing order, device ids stripped.

    Passive records are already redacted; an active record's tag is
    recomputed from its stored cleartext. The user proof was signed over
    the seal-time values, so recomputing from tampered cleartext cannot
    go unnoticed.
    """
    active, redacted = iter(parsed.active_encs), iter(parsed.redacted_encs)
    return tuple(redact(next(active)) if bit else next(redacted) for bit in parsed.order)


# --- the store --------------------------------------------------------------

def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _append_record(path: Path, record: bytes) -> None:
    with open(path, "ab") as f:
        f.write(len(record).to_bytes(4, "little") + record)


def _read_records(path: Path) -> Iterator[bytes]:
    if not path.exists():
        return
    c = Cursor(path.read_bytes())
    while c.pos < c.end:
        yield c.take(c.unpack(_U32)[0])


def _reads_manifest(method):
    """The manifest is untrusted JSON: a field it lacks or mistypes is a `FormatError`."""
    @functools.wraps(method)
    def read(self, *args):
        try:
            return method(self, *args)
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise FormatError(f"malformed manifest: {e!r}") from None
    return read


class ChunkStore:
    """Single-writer, many-reader on-disk store rooted at one directory.

    Writes are atomic (write-then-rename), so readers never observe a
    partially written chunk or manifest. The store keeps the manifest
    text it last wrote: a live chunk close JSON-encodes only its own new
    entry and splices it in before the closing braces, so the file stays
    byte-identical to `json.dumps` of the whole manifest while a close
    costs one copy of that text, not an encode of every entry
    (BENCH_seal_path.json has the figures). Any other change encodes
    the whole manifest again. A direct edit of `manifest` must
    therefore be written with `_save_manifest()` before the next
    `put_chunk`, which would otherwise splice onto stale text.
    """

    def __init__(self, root: str | Path, user_auth: Authenticator | None = None):
        self.root = Path(root)
        self.user_auth = user_auth
        self._defer_manifest = False
        self._manifest: dict | None = None
        self._manifest_text: str | None = None  # what manifest.json holds, when this store wrote it
        if self.manifest_path.exists():
            try:
                self._manifest = json.loads(self.manifest_path.read_text())
            except ValueError as e:
                raise FormatError(f"manifest.json does not decode: {e}") from None

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def manifest(self) -> dict:
        if self._manifest is None:
            raise StoreError(f"store at {self.root} is not initialized")
        return self._manifest

    def initialize(self, seed_string: bytes) -> None:
        if self.manifest_path.exists():
            raise StoreError(f"store at {self.root} already initialized")
        (self.root / "chunks").mkdir(parents=True, exist_ok=True)
        self._manifest = {
            "format": FORMAT_VERSION,
            "seed_string": seed_string.hex(),
            "terminal": None,
            "chunks": {},
        }
        self._save_manifest()

    def _save_manifest(self, new_key: str | None = None) -> None:
        """Write the manifest. `new_key` names a chunk entry just added as the
        last key of `chunks`, itself the manifest's last key: only that
        entry is encoded, and spliced into the text last written."""
        if self._defer_manifest:
            return
        text, self._manifest_text = self._manifest_text, None
        if new_key is None or text is None:
            # no indent: with one, the json module falls back to its pure-Python encoder
            text = json.dumps(self._manifest, separators=(",", ":"))
        else:
            chunks = self._manifest["chunks"]
            entry = json.dumps(chunks[new_key], separators=(",", ":"))
            sep = "," if len(chunks) > 1 else ""
            text = f'{text[:-2]}{sep}"{new_key}":{entry}' + "}}"
        _atomic_write(self.manifest_path, text.encode())
        self._manifest_text = text

    @contextmanager
    def bulk(self):
        """Defer manifest rewrites across many chunk writes.

        A live close still writes the whole manifest text, so N closes
        copy O(N^2) bytes; `bulk()` writes it once at the end. Chunks
        stay invisible to readers until the manifest lands.
        """
        self._defer_manifest = True
        try:
            yield self
        finally:
            self._defer_manifest = False
            self._save_manifest()

    # --- chunk writes ---

    def put_sealed_chunk(self, sc: SealedChunk) -> dict:
        return self.put_chunk(f"chunks/{sc.index:08d}.ssc", sc)

    def put_chunk(self, name: str, chunk: SealedChunk) -> dict:
        """Serialize a chunk into file `name` and record its manifest entry."""
        blob = serialize_chunk(chunk)
        _atomic_write(self.root / name, blob)
        # the section table just framed: (id, offset, length, count) per section
        table = _TABLE_ENTRY.iter_unpack(
            blob[_HEADER.size:_HEADER.size + _TABLE_ENTRY.size * len(_SECTION_IDS)])
        first = (chunk.active_encs if chunk.order[0] else chunk.redacted_encs)[0]
        last = (chunk.active_encs if chunk.order[-1] else chunk.redacted_encs)[-1]
        entry = {
            "file": name,
            "string": chunk.integrity_proof.string.hex(),
            "n": chunk.n_readings,
            "n_active": len(chunk.active_encs),
            "n_passive": len(chunk.redacted_encs),
            "bytes": len(blob),
            "ruleset_digest": chunk.ruleset_digest.hex(),
            "first_t": record_time(first),
            "last_t": record_time(last),
            "sections": {str(sid): [length, count] for sid, _, length, count in table},
        }
        key, chunks = str(chunk.index), self.manifest["chunks"]
        appended = key not in chunks and next(reversed(self.manifest)) == "chunks"
        chunks[key] = entry
        self._save_manifest(key if appended else None)
        return entry

    def set_terminal(self, g: bytes) -> None:
        self.manifest["terminal"] = g.hex()
        self._save_manifest()

    # --- chunk reads ---

    @_reads_manifest
    def indices(self) -> list[int]:
        return sorted(int(k) for k in self.manifest["chunks"])

    @_reads_manifest
    def chunk_raw(self, index: int) -> bytes | None:
        entry = self.manifest["chunks"].get(str(index))
        if entry is None:
            return None
        path = self.root / entry["file"]
        if not path.exists():
            return None
        return path.read_bytes()

    def chunk_string(self, index: int) -> bytes | None:
        entry = self.manifest["chunks"].get(str(index))
        return bytes.fromhex(entry["string"]) if entry else None

    def seed_string(self) -> bytes:
        return bytes.fromhex(self.manifest["seed_string"])

    def terminal(self) -> bytes | None:
        t = self.manifest["terminal"]
        return bytes.fromhex(t) if t else None

    # --- notices / acks / rules ---

    def append_notice(self, notice: NoticeMessage) -> None:
        _append_record(self.root / "notices.bin", encode_notice(notice))

    def notices(self) -> list[NoticeMessage]:
        return [decode_notice(rec) for rec in _read_records(self.root / "notices.bin")]

    def append_ack(self, ack: Acknowledgment) -> None:
        _append_record(self.root / "acks.bin", encode_ack(ack))

    def acks(self) -> list[Acknowledgment]:
        return [decode_ack(rec) for rec in _read_records(self.root / "acks.bin")]

    def put_rule_envelope(self, envelope: NoticeEnvelope) -> None:
        """Persist the sealer's encrypted rule batch (ciphertext only)."""
        path = self.root / "rules"
        path.mkdir(exist_ok=True)
        _atomic_write(path / f"{envelope.rules_digest.hex()}.env", encode_envelope(envelope))

    # --- bundles ---

    @_reads_manifest
    def _strings_for(self, first: int, last: int) -> BundleStrings:
        present = self.indices()
        strings = ((i, self.chunk_string(i)) for i in range(first - 1, last + 2))
        return BundleStrings(
            seed=self.seed_string(),
            terminal=self.terminal(),
            by_index={i: string for i, string in strings if string is not None},
            log_first=present[0] if present else None,
            log_last=present[-1] if present else None,
        )

    def get_auditor_bundle(self, first: int, last: int) -> Bundle:
        """Full-payload bundle: cleartext + redacted records and both proofs."""
        if first < 1 or last < first:
            raise StoreError("bad chunk range")
        entries = [AuditorEntry(i, self.chunk_raw(i)) for i in range(first, last + 1)]
        return Bundle("auditor", first, last, self._strings_for(first, last),
                      self.notices(), entries)

    def get_user_bundle(self, first: int, last: int, credential: bytes | None = None) -> Bundle:
        """Privacy-preserving bundle: per-reading tags, never raw device ids."""
        if self.user_auth is None or not self.user_auth.allow(credential):
            raise AuthError("user bundle request refused: authentication failed")
        if first < 1 or last < first:
            raise StoreError("bad chunk range")
        entries = []
        for i in range(first, last + 1):
            raw = self.chunk_raw(i)
            if raw is None:
                entries.append(UserEntry(i, None, None))
                continue
            try:
                parsed = parse_chunk(raw)
            except FormatError as e:
                entries.append(UserEntry(i, None, None, malformed=f"malformed chunk file: {e}"))
                continue
            entries.append(UserEntry(i, derive_user_records(parsed), parsed.user_proof))
        return Bundle("user", first, last, self._strings_for(first, last),
                      self.notices(), entries)


# --- bundle files (offline transport) ---------------------------------------

_BUNDLE_HEADER = struct.Struct("<4sHBQQB")  # magic, version, kind, first, last, flags
_BUNDLE_KINDS = {1: "auditor", 2: "user"}
_STRING = struct.Struct("<Q32s")              # chunk index, its random string
_ENTRY = struct.Struct("<QB")                 # chunk index, status (1 = payload follows)
_U64 = struct.Struct("<Q")


def _encode_user_entry(entry: UserEntry) -> bytes:
    n = len(entry.encs).to_bytes(4, "little")
    return b"".join((n, *entry.encs, _proof_bytes(entry.proof)))


def _decode_user_entry(index: int, payload: bytes) -> UserEntry:
    c = Cursor(payload)
    (n,) = c.unpack(_U32)
    encs = tuple(walk_records(c, n, tagged=True))
    proof = _read_proof(c)
    c.done("user entry")
    return UserEntry(index, encs, proof)


def write_bundle_file(path: str | Path, bundle: Bundle) -> None:
    """Serialize a bundle for offline verification (streaming-readable)."""
    strings = bundle.strings
    flags = (
        (1 if strings.seed is not None else 0)
        | (2 if strings.terminal is not None else 0)
        | (4 if strings.log_first is not None else 0)
        | (8 if strings.log_last is not None else 0)
    )
    kind = 1 if bundle.kind == "auditor" else 2
    entries = list(bundle.entries)
    with open(path, "wb") as f:
        f.write(_BUNDLE_HEADER.pack(BUNDLE_MAGIC, FORMAT_VERSION, kind,
                                    bundle.first, bundle.last, flags))
        if strings.seed is not None:
            f.write(strings.seed)
        if strings.terminal is not None:
            f.write(strings.terminal)
        if strings.log_first is not None:
            f.write(strings.log_first.to_bytes(8, "little"))
        if strings.log_last is not None:
            f.write(strings.log_last.to_bytes(8, "little"))
        f.write(len(bundle.notices).to_bytes(2, "little"))
        for notice in bundle.notices:
            rec = encode_notice(notice)
            f.write(len(rec).to_bytes(4, "little") + rec)
        f.write(len(strings.by_index).to_bytes(4, "little"))
        for i in sorted(strings.by_index):
            f.write(i.to_bytes(8, "little") + strings.by_index[i])
        f.write(len(entries).to_bytes(4, "little"))
        for entry in entries:
            if bundle.kind == "auditor":
                payload = entry.raw
            else:
                payload = _encode_user_entry(entry) if entry.encs is not None else None
            status = 1 if payload is not None else 0
            f.write(entry.index.to_bytes(8, "little") + bytes([status]))
            if payload is not None:
                f.write(len(payload).to_bytes(4, "little") + payload)


def read_bundle_file(path: str | Path) -> Bundle:
    """Open a bundle file; entries stream lazily to keep memory flat.

    A malformed header raises `FormatError`, as does a framing error while
    streaming, which ends the stream; an entry whose payload does not
    decode streams out marked `malformed`.
    """
    f = open(path, "rb")
    size = left = os.fstat(f.fileno()).st_size

    def read(n: int) -> bytes:
        nonlocal left
        if n > left:
            raise FormatError(f"bundle file truncated: {n} bytes needed at offset {size - left}")
        left -= n
        return f.read(n)

    def unpack(layout: struct.Struct) -> tuple:
        return layout.unpack(read(layout.size))

    try:
        magic, version, kind, first, last, flags = unpack(_BUNDLE_HEADER)
        if magic != BUNDLE_MAGIC or version != FORMAT_VERSION:
            raise FormatError("not a bundle file")
        kind_name = listed(_BUNDLE_KINDS, kind, "bundle kind")
        if flags & ~0x0F:
            raise FormatError(f"bad bundle flags {flags:#x}")
        seed = read(32) if flags & 1 else None
        terminal = read(32) if flags & 2 else None
        log_first = unpack(_U64)[0] if flags & 4 else None
        log_last = unpack(_U64)[0] if flags & 8 else None
        (n_notices,) = unpack(_U16)
        notices = [decode_notice(read(unpack(_U32)[0])) for _ in range(n_notices)]
        (n_strings,) = unpack(_U32)
        by_index = dict(unpack(_STRING) for _ in range(n_strings))
        (n_entries,) = unpack(_U32)
    except BaseException:
        f.close()
        raise

    def entry_stream() -> Iterator:
        with f:
            for _ in range(n_entries):
                idx, status = unpack(_ENTRY)
                if status not in (0, 1):
                    raise FormatError(f"bad entry status {status}")
                if kind == 1:
                    yield AuditorEntry(idx, read(unpack(_U32)[0]) if status else None)
                elif not status:
                    yield UserEntry(idx, None, None)
                else:
                    payload = read(unpack(_U32)[0])
                    try:
                        entry = _decode_user_entry(idx, payload)
                    except FormatError as e:
                        entry = UserEntry(idx, None, None, malformed=f"malformed bundle entry: {e}")
                    yield entry
            if left:
                raise FormatError(f"bundle file has {left} trailing bytes")

    strings = BundleStrings(seed, terminal, by_index, log_first, log_last)
    return Bundle(kind_name, first, last, strings, notices, entry_stream())
