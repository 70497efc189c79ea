"""Primitive contracts: hashes against published vectors, XOR algebra,
signature unforgeability at test scale, envelope authentication."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sensorseal.crypto import (
    CryptoError,
    KeyPair,
    RandomSource,
    Role,
    SeededRandomSource,
    fresh_random_string,
    seal_to,
    sha256,
    verify,
    xor_bytes,
)

b32 = st.binary(min_size=32, max_size=32)


# --- SHA-256 -----------------------------------------------------------------

def test_sha256_nist_vectors():
    # FIPS 180-2 examples plus the empty string
    assert sha256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    assert sha256(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    assert sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex() == (
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")


def test_sha256_length_extension_inputs_differ():
    assert sha256(b"\x00") != sha256(b"\x00\x00")


# --- XOR ---------------------------------------------------------------------

@given(b32)
def test_xor_self_inverse(x):
    assert xor_bytes(x, x) == bytes(32)


@given(b32, b32)
def test_xor_involution(a, b):
    assert xor_bytes(xor_bytes(a, b), b) == a


@given(b32, b32, b32)
def test_xor_associative_commutative(a, b, c):
    assert xor_bytes(a, xor_bytes(b, c)) == xor_bytes(xor_bytes(a, b), c)
    assert xor_bytes(a, b) == xor_bytes(b, a)


def test_xor_length_mismatch():
    with pytest.raises(CryptoError):
        xor_bytes(b"\x00" * 32, b"\x00" * 31)


# --- signatures ----------------------------------------------------------------

def test_sign_verify_round_trip():
    pair = KeyPair.generate(Role.ENCLAVE)
    sig = pair.sign(b"payload")
    assert verify(pair.public, b"payload", sig)


@given(st.binary(min_size=1, max_size=128), st.integers(min_value=0))
def test_flipped_payload_rejected(payload, bit):
    pair = KeyPair.generate(Role.ENCLAVE)
    sig = pair.sign(payload)
    mutated = bytearray(payload)
    mutated[(bit // 8) % len(payload)] ^= 1 << (bit % 8)
    assert not verify(pair.public, bytes(mutated), sig)


@given(st.integers(min_value=0, max_value=511))
def test_flipped_signature_rejected(bit):
    pair = KeyPair.generate(Role.ENCLAVE)
    sig = bytearray(pair.sign(b"msg"))
    sig[bit // 8] ^= 1 << (bit % 8)
    assert not verify(pair.public, b"msg", bytes(sig))


def test_wrong_key_rejected():
    a, b = KeyPair.generate(Role.ENCLAVE), KeyPair.generate(Role.ENCLAVE)
    assert not verify(b.public, b"msg", a.sign(b"msg"))


def test_signatures_deterministic():
    pair = KeyPair.generate(Role.ENCLAVE)
    assert pair.sign(b"x") == pair.sign(b"x")


def test_keypair_from_seed_deterministic():
    a = KeyPair.from_seed(Role.DEVICE, b"\x07" * 32)
    b = KeyPair.from_seed(Role.DEVICE, b"\x07" * 32)
    assert a.public == b.public
    assert a.sign(b"m") == b.sign(b"m")


def test_keypair_secret_round_trip():
    pair = KeyPair.generate(Role.NOTIFIER)
    again = KeyPair.from_secret_bytes(Role.NOTIFIER, pair.to_secret_bytes())
    assert again.public == pair.public
    assert verify(pair.public, b"m", again.sign(b"m"))


# --- envelope ------------------------------------------------------------------

def test_envelope_round_trip():
    pair = KeyPair.generate(Role.ENCLAVE)
    assert pair.open_sealed(seal_to(pair.public, b"reading")) == b"reading"


def test_envelope_truncated_rejected():
    pair = KeyPair.generate(Role.ENCLAVE)
    ct = seal_to(pair.public, b"reading")
    with pytest.raises(CryptoError):
        pair.open_sealed(ct[:-1])


@given(st.integers(min_value=0, max_value=4095))
def test_envelope_bitflip_rejected(bit):
    pair = KeyPair.generate(Role.ENCLAVE)
    ct = bytearray(seal_to(pair.public, b"a sensor reading payload"))
    ct[(bit // 8) % len(ct)] ^= 1 << (bit % 8)
    with pytest.raises(CryptoError):
        pair.open_sealed(bytes(ct))


def test_envelope_randomized():
    pair = KeyPair.generate(Role.ENCLAVE)
    assert seal_to(pair.public, b"m") != seal_to(pair.public, b"m")


def test_envelope_seeded_by_the_callers_source():
    pair = KeyPair.generate(Role.ENCLAVE)
    a, b = SeededRandomSource(b"seed"), SeededRandomSource(b"seed")
    assert seal_to(pair.public, b"m", a) == seal_to(pair.public, b"m", b)
    assert seal_to(pair.public, b"m", a) != seal_to(pair.public, b"m", SeededRandomSource(b"seed"))


def test_envelope_wrong_recipient():
    a, b = KeyPair.generate(Role.ENCLAVE), KeyPair.generate(Role.ENCLAVE)
    with pytest.raises(CryptoError):
        b.open_sealed(seal_to(a.public, b"m"))


# --- random strings --------------------------------------------------------------

def test_random_strings_unique():
    src = RandomSource()
    draws = {src.random32() for _ in range(10_000)}
    assert len(draws) == 10_000


def test_random_string_length():
    assert len(fresh_random_string()) == 32


def test_bit_balance_of_a_million_draws():
    src = RandomSource()
    n_draws = 1_000_000
    ones = sum(int.from_bytes(src.random32(), "big").bit_count() for _ in range(n_draws))
    n_bits = n_draws * 256
    mean, sigma = n_bits / 2, (n_bits * 0.25) ** 0.5
    # 4 sigma rather than 3: same balance claim, negligible flake rate
    assert abs(ones - mean) < 4 * sigma


def test_seeded_source_reproducible_and_distinct():
    a, b = SeededRandomSource(b"seed"), SeededRandomSource(b"seed")
    first = [a.random32() for _ in range(5)]
    assert first == [b.random32() for _ in range(5)]
    assert len(set(first)) == 5
    assert SeededRandomSource(b"other").random32() != first[0]
