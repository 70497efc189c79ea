"""Offline verification: full-chunk audit and privacy-preserving user checks.

Both verifiers work from a bundle alone (payloads, proofs, neighbor
strings) plus the sealer's public key; no trust in the store. The
auditor refolds the chunk's hash chain and checks the integrity proof
against the end-of-chunk mask rebuilt from the neighbor strings; a
user refolds the
tag/state chain for the user proof and recognizes their own entries by
recomputing their presence tags.

Verdict semantics: Missing means the store could not produce the chunk;
Tampered means the served data contradicts itself or the proof, or
does not decode;
BadProof means the data is self-consistent but the proof side fails
(wrong signing key, unavailable neighbor string, string mismatch) —
which is also what a deleted neighbor looks like from here. Failure
localization reports the first record of the earliest chain segment
whose stored running digest diverges, so it never overshoots the true
first divergence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from .codec import Cursor, FormatError
from .crypto import PublicKeys, verify
from .events import DeviceId, SensorId, SensorState, decode_redacted, lp, presence_tag
from .notices import NoticeMessage, verify_notice
from .rules import EMPTY_RULESET_DIGEST
from .sealing import CHAIN_SEED, chain_step, proof_payload, user_step
from .store import (
    AuditorEntry,
    Bundle,
    BundleStrings,
    UserEntry,
    checkpoint_positions,
    parse_chunk,
)


class Outcome(Enum):
    INTACT = "Intact"
    TAMPERED = "Tampered"
    MISSING = "Missing"
    BAD_PROOF = "BadProof"


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    chunk_index: int
    detail: str
    first_bad_record: int | None = None

    @property
    def ok(self) -> bool:
        return self.outcome is Outcome.INTACT


@dataclass(frozen=True)
class PresenceEntry:
    time: int
    sensor: SensorId
    state: SensorState


@dataclass(frozen=True)
class PresenceReport:
    """The querying device's own occurrences in one chunk."""

    chunk_index: int
    entries: tuple[PresenceEntry, ...] = ()


def expected_rule_digests(notices: list[NoticeMessage], notifier_pub: PublicKeys) -> frozenset[bytes]:
    """Rule-set digests an honest chunk may carry: published notices plus
    the empty bootstrap set (chunks sealed before any notice)."""
    digests = {EMPTY_RULESET_DIGEST}
    digests.update(n.rules_digest for n in notices if verify_notice(n, notifier_pub))
    return frozenset(digests)


def audit_chunk(
    entry: AuditorEntry,
    strings: BundleStrings,
    enclave_pub: PublicKeys,
    expected_digests: frozenset[bytes] | None = None,
) -> Verdict:
    """Recompute one chunk's hash chain and check its integrity proof."""
    x = entry.index
    if entry.raw is None:
        return Verdict(Outcome.MISSING, x, "chunk absent from store")
    try:
        parsed = parse_chunk(entry.raw)
    except FormatError as e:
        return Verdict(Outcome.TAMPERED, x, f"malformed chunk file: {e}", e.record)
    if parsed.index != x:
        return Verdict(Outcome.TAMPERED, x, f"chunk file claims index {parsed.index}")
    if expected_digests is not None and parsed.ruleset_digest not in expected_digests:
        return Verdict(Outcome.TAMPERED, x, "ruleset digest matches no published notice")

    prev_string, own_string, next_string = strings.resolve(x)
    if own_string is None:
        return Verdict(Outcome.BAD_PROOF, x, "chunk random string unavailable")
    if prev_string is None or next_string is None:
        return Verdict(Outcome.BAD_PROOF, x, "neighbor random string unavailable")
    if parsed.integrity_proof.string != own_string:
        return Verdict(Outcome.BAD_PROOF, x, "proof string differs from served chain string")

    positions = checkpoint_positions(parsed.n_readings, parsed.checkpoint_every)
    h = CHAIN_SEED
    cp = 0
    last_verified = 0
    prev_t = 0
    for i, (_, enc, t) in enumerate(parsed.merged(), 1):
        if t < prev_t:
            # the raised/lowered record may be this one or an earlier one in
            # the same unverified segment; report the segment start
            return Verdict(Outcome.TAMPERED, x,
                           f"timestamp regression observed at record {i}",
                           last_verified + 1)
        prev_t = t
        h = chain_step(enc, h)
        if cp < len(positions) and positions[cp] == i:
            if parsed.checkpoints[cp] != h:
                first_bad = last_verified + 1
                return Verdict(
                    Outcome.TAMPERED, x,
                    f"chain diverges within records {first_bad}..{i}", first_bad,
                )
            last_verified = i
            cp += 1

    if not verify(enclave_pub, proof_payload(h, prev_string, own_string, next_string),
                  parsed.integrity_proof.sig):
        return Verdict(Outcome.BAD_PROOF, x, "integrity proof does not verify under the sealer key")
    return Verdict(Outcome.INTACT, x, "ok")


def verify_user_chunk(
    entry: UserEntry,
    device: DeviceId,
    strings: BundleStrings,
    enclave_pub: PublicKeys,
) -> tuple[Verdict, PresenceReport]:
    """Check one chunk's user proof and report the device's own entries.

    Absence is a valid, provable outcome: an empty report with an Intact
    verdict says the device does not occur in the chunk.
    """
    x = entry.index
    if entry.malformed is not None:
        return Verdict(Outcome.TAMPERED, x, entry.malformed), PresenceReport(x)
    if entry.encs is None or entry.proof is None:
        return Verdict(Outcome.MISSING, x, "chunk absent from store"), PresenceReport(x)

    # each encoding is tag(32) || LP(sensor) || state || t8
    fold = 0
    mine = []
    lp_device = lp(device.id)
    for enc in entry.encs:
        tag = enc[:32]
        fold = user_step(fold, tag, enc[-9])
        if presence_tag(lp_device, enc[-8:]) == tag:
            rec = decode_redacted(Cursor(enc))
            mine.append(PresenceEntry(rec.time, rec.sensor, rec.state))
    report = PresenceReport(x, tuple(mine))

    prev_string, own_string, next_string = strings.resolve(x)
    if own_string is None or prev_string is None or next_string is None:
        return Verdict(Outcome.BAD_PROOF, x, "neighbor random string unavailable"), report
    if entry.proof.string != own_string:
        return Verdict(Outcome.BAD_PROOF, x, "proof string differs from served chain string"), report

    payload = proof_payload(fold.to_bytes(32, "big"), prev_string, own_string, next_string)
    if not verify(enclave_pub, payload, entry.proof.sig):
        return Verdict(Outcome.TAMPERED, x, "user records do not match the user proof"), report
    return Verdict(Outcome.INTACT, x, "ok"), report


def _summary(verdicts: list[Verdict], seconds: float) -> dict:
    counts = {outcome: 0 for outcome in Outcome}
    for v in verdicts:
        counts[v.outcome] += 1
    return {
        "chunks": len(verdicts),
        "intact": counts[Outcome.INTACT],
        "tampered": counts[Outcome.TAMPERED],
        "missing": counts[Outcome.MISSING],
        "bad_proof": counts[Outcome.BAD_PROOF],
        "seconds": seconds,
    }


def _check_entries(bundle: Bundle, check, broken) -> list:
    """`check` each entry as the bundle streams it; the entries must be
    exactly `bundle.first..bundle.last`, each once and in order.

    Everything else is a Tampered verdict, passed through `broken`: an
    entry outside the range, repeated or out of order at its own index,
    a run of absent entries at the run's first index. A framing error
    ends the stream with one Tampered verdict at the next index expected.
    """
    results = []
    expected = bundle.first

    def tampered(index: int, detail: str) -> None:
        results.append(broken(Verdict(Outcome.TAMPERED, index, detail)))

    def absent_before(index: int) -> None:
        if expected < index:
            tampered(expected, f"entries {expected}..{index - 1} absent from the bundle")

    try:
        for entry in bundle.entries:
            x = entry.index
            if not bundle.first <= x <= bundle.last:
                tampered(x, f"entry outside the bundle's range {bundle.first}..{bundle.last}")
            elif x < expected:
                tampered(x, "entry repeated or out of order in the bundle")
            else:
                absent_before(x)
                results.append(check(entry))
                expected = x + 1
    except FormatError as e:
        tampered(expected, f"malformed bundle: {e}")
        return results
    absent_before(bundle.last + 1)
    return results


def audit_range(
    bundle: Bundle,
    enclave_pub: PublicKeys,
    notifier_pub: PublicKeys | None = None,
) -> tuple[list[Verdict], dict]:
    """Audit every chunk in a bundle; returns per-chunk verdicts + summary."""
    expected = (
        expected_rule_digests(bundle.notices, notifier_pub) if notifier_pub is not None else None
    )
    started = time.perf_counter()
    verdicts = _check_entries(
        bundle, lambda entry: audit_chunk(entry, bundle.strings, enclave_pub, expected),
        lambda verdict: verdict)
    return verdicts, _summary(verdicts, time.perf_counter() - started)


def verify_user_range(
    bundle: Bundle,
    device: DeviceId,
    enclave_pub: PublicKeys,
) -> tuple[list[tuple[Verdict, PresenceReport]], dict]:
    """User-verify every chunk in a bundle (streaming-friendly)."""
    started = time.perf_counter()
    results = _check_entries(
        bundle, lambda entry: verify_user_chunk(entry, device, bundle.strings, enclave_pub),
        lambda verdict: (verdict, PresenceReport(verdict.chunk_index)))
    verdicts = [v for v, _ in results]
    summary = _summary(verdicts, time.perf_counter() - started)
    summary["occurrences"] = sum(len(r.entries) for _, r in results)
    return results, summary
