"""Decoding untrusted bytes: any mutation of a valid bundle, chunk file or
persisted record yields verdicts or a `FormatError`, never another
exception, and enum bytes outside their listed values are rejected."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALLOW_ALL, PSK, make_actors, sealed_run
from sensorseal.codec import FormatError
from sensorseal.notices import (
    NotificationModel,
    decode_envelope,
    decode_notice,
    decode_receipt,
    encode_envelope,
    encode_notice,
    encode_receipt,
)
from sensorseal.sealing import Sealer
from sensorseal.store import ChunkStore, parse_chunk, read_bundle_file, write_bundle_file
from sensorseal.verify import Outcome, audit_range, verify_user_range


class Fixture:
    """One sealed NaM store (notices and acks persisted) and its artefacts."""

    def __init__(self, root: Path):
        self.actors = actors = make_actors()
        store, _, _ = sealed_run(root, actors, model=NotificationModel.NAM)
        self.store = store
        self.device = actors.devices[0]
        first, last = store.indices()[0], store.indices()[-1]
        self.scratch = root / "mutated"
        self.blobs = {"chunk": store.chunk_raw(first)}
        for kind, bundle in [("auditor", store.get_auditor_bundle(first, last)),
                             ("user", store.get_user_bundle(first, last, PSK))]:
            path = root / f"{kind}.bundle"
            write_bundle_file(path, bundle)
            self.blobs[kind] = path.read_bytes()
        for name in ("notices.bin", "acks.bin"):
            self.blobs[name] = (store.root / name).read_bytes()
        sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry,
                        ChunkStore(root / "envelope"), model=NotificationModel.NAM)
        envelope = sealer.install_ruleset(ALLOW_ALL)
        notice, _, receipt = actors.notifier.publish(envelope, actors.registrations, "n2", 9)
        self.blobs["notice"] = encode_notice(notice)
        self.blobs["receipt"] = encode_receipt(receipt)
        self.blobs["envelope"] = encode_envelope(envelope)

    def load(self, target: str, blob: bytes):
        """Decode `blob` as `target`, running verifiers over bundles."""
        if target == "chunk":
            return parse_chunk(blob)
        if target in ("notices.bin", "acks.bin"):
            root = self.scratch / "store"
            root.mkdir(parents=True, exist_ok=True)
            (root / target).write_bytes(blob)
            store = ChunkStore(root)
            return store.notices() if target == "notices.bin" else store.acks()
        if target in ("notice", "receipt", "envelope"):
            decode = {"notice": decode_notice, "receipt": decode_receipt,
                      "envelope": decode_envelope}[target]
            return decode(blob)
        path = self.scratch / "bundle"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
        bundle = read_bundle_file(path)
        enclave_pub = self.actors.enclave.public
        if bundle.kind == "auditor":
            return audit_range(bundle, enclave_pub, self.actors.notifier.public)
        return verify_user_range(bundle, self.device, enclave_pub)


@pytest.fixture(scope="module")
def fx(tmp_path_factory) -> Fixture:
    return Fixture(tmp_path_factory.mktemp("codec"))


TARGETS = ["auditor", "user", "chunk", "notices.bin", "acks.bin", "notice", "receipt", "envelope"]


def mutate(blob: bytes, flip: bool, k: int) -> bytes:
    """Flip bit k (mod the bit length), or truncate to k (mod the length) bytes."""
    if flip:
        bit = k % (8 * len(blob))
        out = bytearray(blob)
        out[bit // 8] ^= 0x80 >> (bit % 8)
        return bytes(out)
    return blob[:k % len(blob)]


@pytest.mark.parametrize("target", TARGETS)
def test_unmutated_artefacts_decode(fx, target):
    result = fx.load(target, fx.blobs[target])
    if target in ("auditor", "user"):
        verdicts = [v if target == "auditor" else v[0] for v in result[0]]
        assert verdicts and all(v.outcome is Outcome.INTACT for v in verdicts)


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=60, deadline=None)
@given(flip=st.booleans(), k=st.integers(min_value=0, max_value=2**32))
def test_any_mutation_gives_verdicts_or_format_error(fx, target, flip, k):
    try:
        fx.load(target, mutate(fx.blobs[target], flip, k))
    except FormatError:
        pass


def _at(blob: bytes, offset: int, value: int) -> bytes:
    return blob[:offset] + bytes([value]) + blob[offset + 1:]


def _last_entry_status(fx) -> int:
    raw = fx.store.chunk_raw(fx.store.indices()[-1])
    return len(fx.blobs["auditor"]) - len(raw) - 4 - 1


@pytest.mark.parametrize("target, offset, value", [
    ("notice", lambda fx: 2 + len("n2"), 0x07),         # model byte
    ("envelope", lambda fx: 32, 0x07),                   # model byte
    ("auditor", lambda fx: 6, 3),                        # bundle kind
    ("auditor", lambda fx: 23, 0x1F),                    # flags above 0x0F
    ("auditor", _last_entry_status, 2),                  # entry status
], ids=["notice-model", "envelope-model", "bundle-kind", "bundle-flags", "entry-status"])
def test_non_canonical_enum_bytes_rejected(fx, target, offset, value):
    blob = _at(fx.blobs[target], offset(fx), value)
    with pytest.raises(FormatError):
        if target == "auditor":
            path = fx.scratch / "enum.bundle"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(blob)
            list(read_bundle_file(path).entries)
        else:
            fx.load(target, blob)


def test_stream_framing_error_is_one_tampered_verdict(fx):
    """A bundle cut inside its last entry verifies up to the cut and
    reports one Tampered verdict at the entry the cut broke."""
    cut = fx.blobs["auditor"][:-10]
    verdicts, summary = fx.load("auditor", cut)
    last = fx.store.indices()[-1]
    assert [v.outcome for v in verdicts[:-1]] == [Outcome.INTACT] * (len(verdicts) - 1)
    assert verdicts[-1].outcome is Outcome.TAMPERED and verdicts[-1].chunk_index == last
    assert summary["tampered"] == 1


def test_malformed_user_entry_is_tampered_for_its_chunk(fx):
    """A user entry whose payload fails to decode flags its own chunk;
    the entries after it still verify."""
    blob = bytearray(fx.blobs["user"])
    first_sig = parse_chunk(fx.store.chunk_raw(fx.store.indices()[0])).user_proof.sig
    start = blob.index(first_sig)
    blob[start - 2] ^= 0x01                              # proof signature length 64 -> 65
    results, _ = fx.load("user", bytes(blob))
    outcomes = [v.outcome for v, _ in results]
    assert outcomes[0] is Outcome.TAMPERED and "malformed" in results[0][0].detail
    assert outcomes[1:] == [Outcome.INTACT] * (len(outcomes) - 1)
