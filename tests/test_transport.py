"""The controller-to-sealer transport: one handshake per session, a
counter nonce per message, and what `Sealer.ingest` does with each."""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import make_actors
from sensorseal import ChunkStore, KeyPair, Sealer, SensorReading, Session
from sensorseal.crypto import ENVELOPE_OVERHEAD, SessionReceiver
from sensorseal.events import decode_wire_reading, encode_wire_reading

ACTORS = make_actors()


def wire(t: int) -> bytes:
    return encode_wire_reading(SensorReading(ACTORS.devices[0], ACTORS.sensors[0], t))


def new_sealer(root: Path) -> Sealer:
    return Sealer(ACTORS.enclave, ACTORS.notifier.public, ACTORS.registry, ChunkStore(root))


def test_session_messages_open_with_one_shot_open():
    session = Session.start(ACTORS.enclave.public)
    for seq in range(3):
        message = session.seal(wire(1_000 + seq))
        assert message[:32] == session.ephemeral_pub
        assert message[32:44] == seq.to_bytes(12, "big")
        assert len(message) == ENVELOPE_OVERHEAD + len(wire(1))
        assert decode_wire_reading(ACTORS.enclave.open_sealed(message)).time == 1_000 + seq


def test_one_handshake_per_session(monkeypatch):
    handshakes = []
    accept = KeyPair.accept

    def counting_accept(self, ephemeral_pub):
        handshakes.append(ephemeral_pub)
        return accept(self, ephemeral_pub)

    monkeypatch.setattr(KeyPair, "accept", counting_accept)
    receiver = SessionReceiver(ACTORS.enclave)
    a, b = Session.start(ACTORS.enclave.public), Session.start(ACTORS.enclave.public)
    for session in (a, a, a, b, b):
        receiver.open(session.seal(b"m"))
    assert handshakes == [a.ephemeral_pub, b.ephemeral_pub]


def test_new_ephemeral_key_switches_session(tmp_path):
    sealer = new_sealer(tmp_path / "s")
    a, b = Session.start(ACTORS.enclave.public), Session.start(ACTORS.enclave.public)
    a0, a1 = a.seal(wire(1_000)), a.seal(wire(1_001))
    b0, b1 = b.seal(wire(2_000)), b.seal(wire(2_001))
    assert all(sealer.ingest(m) is not None for m in (a0, a1, b0, b1))
    assert sealer.alerts == []
    # the live session's counter turns a replay away
    assert sealer.ingest(b1) is None
    assert "below the next expected 2" in sealer.alerts[-1].reason
    # a message of an ended session opens again; its timestamp turns it away
    assert sealer.ingest(a1) is None
    assert "stale" in sealer.alerts[-1].reason
    assert sealer.ingest(b.seal(wire(2_002))) is not None
    assert len(sealer.alerts) == 2


def test_counter_gap_is_sealed_with_one_alert(tmp_path):
    sealer = new_sealer(tmp_path / "s")
    session = Session.start(ACTORS.enclave.public)
    messages = [session.seal(wire(1_000 + i)) for i in range(5)]
    assert all(sealer.ingest(messages[i]) is not None for i in (0, 1, 4))
    assert [a.reason for a in sealer.alerts] == ["transport gap: session messages 2..3 missing"]


MAX_LEN = ENVELOPE_OVERHEAD + len(wire(1))
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 8 * MAX_LEN - 1)),
    st.tuples(st.just("truncate"), st.integers(0, MAX_LEN - 1)),
    st.tuples(st.just("bytes"), st.binary(max_size=2 * MAX_LEN)),
)


@settings(max_examples=150, deadline=None)
@given(MUTATIONS)
def test_rejected_message_leaves_the_live_session_usable(mutation):
    kind, arg = mutation
    session = Session.start(ACTORS.enclave.public)
    first, second = session.seal(wire(1_000)), session.seal(wire(1_001))
    if kind == "flip":
        bad = bytearray(second)
        bad[arg // 8] ^= 1 << (arg % 8)
    elif kind == "truncate":
        bad = second[:arg]
    else:
        bad = arg
    with tempfile.TemporaryDirectory() as root:
        sealer = new_sealer(Path(root) / "s")
        assert sealer.ingest(first) is not None
        assert sealer.ingest(bytes(bad)) is None
        assert sealer.ingest(second) is not None
        assert len(sealer.alerts) == 1
