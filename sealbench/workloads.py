"""The two workloads: set-up, the timed rounds, and the output checks.

A run is:

- set-up, timed as `setup_s`: key derivation, rule publication and
  input generation. Where set-up is short it runs several times and
  only the last one's inputs are kept;
- rounds, until their timed work reaches `--seconds` (checked after
  every read pass; a run always makes at least one), each of:
  - seal: feed the inputs to a fresh sealer and store, the first
    round's made by the set-up;
  - `passes` read passes over the round's store (or, when `passes` is
    None, read passes until the run's time is up), each of:
    - audit: `AUDITS` whole-log audits;
    - users: user requests, each for one day's chunks (bundle build
      and write, then read and verify), cycling through the log's days.

On a shared machine the processor's speed drifts over seconds, so
every metric takes its samples from as much of the run as it can and
reports their median. After timing, the last round's store gets one
modified record.

The program is reached only through module attributes looked up at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from sensorseal import crypto, harness
from sensorseal import store as store_mod
from sensorseal import verify as verify_mod
from sensorseal.crypto import KeyPair, Role, SeededRandomSource
from sensorseal.events import DeviceId, SensorState
from sensorseal.notices import Notifier
from sensorseal.sealing import Sealer
from sensorseal.store import ChunkStore, PresharedKeyAuth
from sensorseal.verify import Outcome

from . import oracle
from .oracle import check
from .tracer import Tracer

PSK = b"sealbench-user-psk"
MS_PER_MIN = 60_000
MS_PER_HOUR = 60 * MS_PER_MIN
MS_PER_DAY = 24 * MS_PER_HOUR
USER_STRIDE = 37  # user request k is made by device k * 37 of the pool; device 0 opted out
AUDITS = 2  # whole-log audits per round
ACTIVE = SensorState.ACTIVE

# (record kind, field) whose modification the user proof must catch
USER_BOUND_FIELDS = {("active", "device"), ("active", "time"), ("redacted", "tag")}


@dataclass(frozen=True)
class Workload:
    name: str
    start_hour: int
    duration_ms: int
    rate_scale: float
    feed: str             # "ingest": ciphertexts via Sealer.ingest; "submit": readings
    setups: int           # timed set-ups; all but the last are discarded
    passes: int | None    # read passes per round; None: one round, read until time is up
    users: int            # user requests per read pass

    def spec(self, seed: int) -> harness.WorkloadSpec:
        return harness.WorkloadSpec(
            start_ms=harness.DEFAULT_START_MS + self.start_hour * MS_PER_HOUR,
            duration_ms=self.duration_ms, rate_scale=self.rate_scale, seed=seed)


WORKLOADS = {
    # One peak half hour at full campus rate: one chunk of ~37K readings,
    # encrypted by the controller stand-in during set-up. Its only chunk
    # close is a round's finalize(), so a run makes as many rounds as fit.
    "ingest_peak": Workload("ingest_peak", 9, 30 * MS_PER_MIN, 1.0, "ingest",
                            setups=1, passes=1, users=1),
    # A fortnight at 1% rate: ~670 chunks of ~130 readings, each published
    # on close. A run seals once; read passes over that store fill the
    # rest of it, so the read figures are not taken from one short stretch.
    "live_seal": Workload("live_seal", 0, 14 * MS_PER_DAY, 0.01, "submit",
                          setups=2, passes=None, users=14),
}


@dataclass
class Keys:
    enclave: KeyPair
    notifier: KeyPair


def derive_keys(seed: int) -> Keys:
    base = seed.to_bytes(8, "big")
    return Keys(KeyPair.from_seed(Role.ENCLAVE, crypto.sha256(b"enclave" + base)),
                KeyPair.from_seed(Role.NOTIFIER, crypto.sha256(b"notifier" + base)))


@dataclass
class Counts:
    """Operations attempted and failed: sealer calls, audited chunks, user verifications."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


@dataclass
class SealRound:
    calls: int
    seconds: float
    closes: list[float]
    store_bytes: int


@dataclass
class Setup:
    spec: harness.WorkloadSpec
    keys: Keys
    inputs: list
    root: Path
    store: ChunkStore
    sealer: Sealer


@dataclass
class UserResult:
    bundle_s: float
    verify_s: float
    records: int
    active_records: int
    file_bytes: int
    verdicts: list
    occurrences: int


@dataclass
class Samples:
    setup_s: list[float] = field(default_factory=list)
    seal: list[SealRound] = field(default_factory=list)
    audit_s: list[float] = field(default_factory=list)
    bundle_s: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    bundle_bytes_per_record: list[float] = field(default_factory=list)
    timed_s: float = 0.0  # set-up, seal, audit and user time of the run


@contextmanager
def settled():
    """Collect garbage and freeze the survivors, so the inputs and earlier
    phases add nothing to the collector's work inside the timed region."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def store_bytes(root: Path) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)


def open_sealer(spec: harness.WorkloadSpec, keys: Keys, root: Path) -> tuple[ChunkStore, Sealer]:
    """A fresh store and sealer with the campus policy published and confirmed."""
    store = ChunkStore(root, user_auth=PresharedKeyAuth(PSK))
    rand = SeededRandomSource(crypto.sha256(b"strings" + spec.seed.to_bytes(8, "big")))
    sealer = Sealer(keys.enclave, keys.notifier.public, {}, store, rand=rand)
    envelope = sealer.install_ruleset(oracle.campus_policy(spec))
    notice, _, receipt = Notifier(keys.notifier).publish(envelope, [], "campus-policy", spec.start_ms)
    store.append_notice(notice)
    sealer.confirm_notice_receipt(receipt)
    return store, sealer


def prepare(wl: Workload, seed: int, root: Path) -> Setup:
    """Set-up: keys, a store and sealer with the campus policy published, inputs."""
    spec = wl.spec(seed)
    keys = derive_keys(seed)
    store, sealer = open_sealer(spec, keys, root)
    if wl.feed == "ingest":
        inputs = list(harness.generate(spec, keys.enclave.public))
    else:
        inputs = list(harness.generate_readings(spec))
    return Setup(spec, keys, inputs, root, store, sealer)


def _feed(call, items, errors: list[str]) -> tuple[int, int]:
    failed = active = 0
    for item in items:
        try:
            sr = call(item)
        except Exception as e:  # a failed operation: counted, and the first one reported
            failed += 1
            if not errors:
                errors.append(repr(e))
            continue
        if sr is None:
            failed += 1
        elif sr.state is ACTIVE:
            active += 1
    return failed, active


def seal_round(wl: Workload, setup: Setup, expected: oracle.Expected, counts: Counts) -> SealRound:
    """Feed every input to the setup's sealer; time the calls that close a chunk.

    The first reading past a window boundary closes the open chunk, and
    so does finalize(); the window grid says in advance which calls
    those are, so the other calls carry no per-call timing.
    """
    call = setup.sealer.ingest if wl.feed == "ingest" else setup.sealer.submit_reading
    items = setup.inputs
    errors: list[str] = []
    closes: list[float] = []
    failed = active = 0
    clock = time.perf_counter
    started = clock()
    for k, (lo, hi) in enumerate(expected.window_bounds):
        if k:
            t = clock()
            f, a = _feed(call, items[lo:lo + 1], errors)
            closes.append(clock() - t)
            failed += f
            active += a
            lo += 1
        f, a = _feed(call, items[lo:hi], errors)
        failed += f
        active += a
    t = clock()
    setup.sealer.finalize()
    done = clock()
    closes.append(done - t)
    counts.add(len(items), failed)
    check("readings_sealed", failed == 0 and len(items) == expected.readings,
          f"{len(items) - failed} of {expected.readings} generated readings sealed"
          + (f"; first error {errors[0]}" if errors else ""))
    check("active_count", active == expected.active,
          f"sealer returned {active} active readings, the policy gives {expected.active}")
    chunks = len(setup.store.indices())
    check("chunk_count", chunks == expected.chunks,
          f"store holds {chunks} chunks, {expected.chunks} windows hold readings")
    return SealRound(len(items), done - started, closes, store_bytes(setup.root))


def audit(setup: Setup, expected: oracle.Expected) -> tuple[float, list]:
    start = time.perf_counter()
    bundle = setup.store.get_auditor_bundle(1, expected.chunks)
    verdicts, _ = verify_mod.audit_range(bundle, setup.keys.enclave.public, setup.keys.notifier.public)
    return time.perf_counter() - start, verdicts


def user_request(setup: Setup, day: oracle.Day, device: DeviceId, path: Path) -> UserResult:
    clock = time.perf_counter
    start = clock()
    bundle = setup.store.get_user_bundle(day.first_chunk, day.last_chunk, PSK)
    store_mod.write_bundle_file(path, bundle)
    built = clock()
    records = [e.records for e in bundle.entries if e.records is not None]
    n_records = sum(len(r) for r in records)
    n_active = sum(rec.state is ACTIVE for r in records for rec in r)
    del bundle, records  # released before verification, as a serving store would
    verify_start = clock()
    streamed = store_mod.read_bundle_file(path)
    results, summary = verify_mod.verify_user_range(streamed, device, setup.keys.enclave.public)
    done = clock()
    return UserResult(built - start, done - verify_start, n_records, n_active,
                      path.stat().st_size, [v for v, _ in results], summary["occurrences"])


def user_device(spec: harness.WorkloadSpec, k: int) -> DeviceId:
    """The device making the k-th user request."""
    pool = harness.device_pool(spec.seed, spec.n_devices)
    return pool[(k * USER_STRIDE) % len(pool)]


def timed_run(wl: Workload, seed: int, root: Path, expected: oracle.Expected,
              counts: Counts, samples: Samples, seconds: float) -> Setup:
    """The set-ups, then rounds until the timed work reaches `seconds` at
    the end of a read pass; returns the last round's sealed setup."""
    setup = None
    for _ in range(wl.setups):
        if setup is not None:
            shutil.rmtree(setup.root, ignore_errors=True)
            setup = None
        with settled():
            start = time.perf_counter()
            setup = prepare(wl, seed, root)
            samples.setup_s.append(time.perf_counter() - start)
        samples.timed_s += samples.setup_s[-1]
    while True:
        if samples.seal:  # every round after the first seals into a fresh store
            shutil.rmtree(setup.root, ignore_errors=True)
            setup.root = root.with_name(f"{root.name}.round{len(samples.seal)}")
            setup.store, setup.sealer = open_sealer(setup.spec, setup.keys, setup.root)
        with settled():
            sealed = seal_round(wl, setup, expected, counts)
        samples.seal.append(sealed)
        samples.timed_s += sealed.seconds
        if wl.passes is None:
            setup.inputs = []  # the only round's inputs, released before its reads
        passes = 0
        while wl.passes is None or passes < wl.passes:
            read_side(wl, setup, expected, counts, samples)
            passes += 1
            if samples.timed_s >= seconds:
                return setup


def read_side(wl: Workload, setup: Setup, expected: oracle.Expected,
              counts: Counts, samples: Samples) -> None:
    """One read pass: timed whole-log audits and user requests, each checked."""
    root = setup.root
    for _ in range(AUDITS):
        with settled():
            seconds, verdicts = audit(setup, expected)
        bad = sum(v.outcome is not Outcome.INTACT for v in verdicts)
        counts.add(len(verdicts), bad)
        check("audit_intact", bad == 0 and len(verdicts) == expected.chunks,
              f"{bad} of {len(verdicts)} chunks not Intact in a whole-log audit of {expected.chunks}")
        samples.audit_s.append(seconds)
        samples.timed_s += seconds
        del verdicts

    path = root.with_name(root.name + ".ssb")
    for _ in range(wl.users):
        k = len(samples.bundle_s)
        day, device = expected.days[k % len(expected.days)], user_device(setup.spec, k)
        with settled():
            result = user_request(setup, day, device, path)
        want = day.per_device[device.id]
        ok = all(v.outcome is Outcome.INTACT for v in result.verdicts) and result.occurrences == want
        counts.add(1, 0 if ok else 1)
        check("user_occurrences", ok,
              f"device {device}, chunks {day.first_chunk}..{day.last_chunk}: "
              f"{result.occurrences} occurrences (want {want}), "
              f"{sum(v.outcome is not Outcome.INTACT for v in result.verdicts)} chunks not Intact")
        check("bundle_records", result.records == day.readings and result.active_records == day.active,
              f"user bundle for chunks {day.first_chunk}..{day.last_chunk} carries {result.records} "
              f"records ({result.active_records} active); {day.readings} ({day.active} active) "
              f"were generated")
        samples.bundle_s.append(result.bundle_s)
        samples.verify_s.append(result.verify_s)
        samples.bundle_bytes_per_record.append(result.file_bytes / result.records)
        samples.timed_s += result.bundle_s + result.verify_s
    path.unlink(missing_ok=True)


def _record_fields(parsed, ordinal: int) -> tuple[str, dict]:
    before = sum(parsed.order[:ordinal - 1])
    if parsed.order[ordinal - 1]:
        r = parsed.active[before].reading
        return "active", {"device": r.device.id, "sensor": r.sensor.id, "time": r.time}
    rec = parsed.redacted[ordinal - 1 - before]
    return "redacted", {"tag": rec.tag, "sensor": rec.sensor.id, "time": rec.time}


def tamper_check(setup: Setup, expected: oracle.Expected, log) -> None:
    """Modify one record of one chunk; the audit must flag exactly that chunk.

    User verification must flag it too when the modified field is one
    the user proof binds (a tag, or an active record's device or time);
    a flip that makes the chunk unparseable is caught on both sides.
    """
    seed = setup.spec.seed
    chunk = random.Random(seed).randint(1, expected.chunks)
    before = store_mod.parse_chunk(setup.store.chunk_raw(chunk))
    report = harness.apply_tamper(setup.root, harness.TamperAction(
        harness.TamperKind.MODIFY_READING, chunk=chunk), rng=random.Random(seed))
    try:
        after = store_mod.parse_chunk(setup.store.chunk_raw(chunk))
    except store_mod.ChunkFormatError:
        kind, changed = "format", "unparseable"
    else:
        kind, old = _record_fields(before, report.record)
        _, new = _record_fields(after, report.record)
        changed = ",".join(k for k in old if old[k] != new[k]) or "none"
        del after
    del before

    _, verdicts = audit(setup, expected)
    flagged = [v.chunk_index for v in verdicts if v.outcome is not Outcome.INTACT]
    check("tamper_audit", flagged == [chunk],
          f"modified record {report.record} of chunk {chunk}; the audit flagged chunks {flagged}")
    note = f"tamper: chunk {chunk} record {report.record} ({kind} {changed}); audit flagged {flagged}"
    if kind == "format" or (kind, changed) in USER_BOUND_FIELDS:
        day = next(d for d in expected.days if d.first_chunk <= chunk <= d.last_chunk)
        path = setup.root.with_name(setup.root.name + ".tampered.ssb")
        result = user_request(setup, day, user_device(setup.spec, 0), path)
        path.unlink(missing_ok=True)
        user_flagged = [v.chunk_index for v in result.verdicts if v.outcome is not Outcome.INTACT]
        check("tamper_user", user_flagged == [chunk],
              f"modified {kind} {changed} of record {report.record} in chunk {chunk}; "
              f"user verification flagged chunks {user_flagged}")
        note += f"; user verification flagged {user_flagged}"
    else:
        note += "; user side not checked: the user proof does not bind this field"
    log(note)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def percentile(samples: list[float], p: int) -> float:
    """The p-th percentile, interpolated between order statistics."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(s: Samples, expected: oracle.Expected) -> dict[str, tuple[float, str]]:
    closes = [c for r in s.seal for c in r.closes]
    return {
        "setup_s": (statistics.median(s.setup_s), "s"),
        "seal_readings_per_s": (statistics.median(r.calls / r.seconds for r in s.seal), "1/s"),
        "chunk_close_ms_p50": (1000 * statistics.median(closes), "ms"),
        "chunk_close_ms_p95": (1000 * percentile(closes, 95), "ms"),
        "store_bytes_per_reading": (statistics.median(r.store_bytes / r.calls for r in s.seal), "B"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "audit_records_per_s": (statistics.median(expected.readings / t for t in s.audit_s), "1/s"),
        "user_bundle_s": (statistics.median(s.bundle_s), "s"),
        "user_verify_s": (statistics.median(s.verify_s), "s"),
        "user_bundle_bytes_per_record": (statistics.median(s.bundle_bytes_per_record), "B"),
    }


@dataclass
class RunResult:
    metrics: dict  # name -> (value, unit)
    counts: Counts
    trace: dict | None = None


def run(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path, log) -> RunResult:
    """Run one workload.

    Untraced: rounds until `seconds` of timed work, then the end-to-end
    metrics. Traced: one untraced and one traced read pass, each after
    the set-ups and the first seal, then the per-layer metrics and the
    tracing overhead.
    """
    counts = Counts()
    expected = oracle.expect(wl.spec(seed))
    rundir = workdir / f"{wl.name}-{seed}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        untraced = Samples()
        limit = 0 if trace else seconds
        setup = timed_run(wl, seed, rundir / "run", expected, counts, untraced, limit)
        closes = sum(len(r.closes) for r in untraced.seal)
        log(f"{wl.name} seed={seed}: {expected.readings} readings, {expected.chunks} chunks, "
            f"{expected.active} active; {len(untraced.setup_s)} set-ups, "
            f"{len(untraced.seal)} seals: {closes} chunk closes, "
            f"{len(untraced.audit_s)} audits, {len(untraced.bundle_s)} user requests")
        metrics = end_to_end(untraced, expected)
        tamper_check(setup, expected, log)
        shutil.rmtree(setup.root, ignore_errors=True)
        del setup
        if not trace:
            return RunResult(metrics, counts)

        tracer = Tracer()
        tracer.install()
        try:
            traced = Samples()
            timed_run(wl, seed, rundir / "traced", expected, counts, traced, 0)
        finally:
            tracer.restore()
        metrics = tracer.metrics(traced.timed_s)
        metrics["trace.overhead"] = (traced.timed_s / untraced.timed_s, "ratio")
        if tracer.absent:
            log(f"absent layers (hook target missing): {sorted(tracer.absent)}")
        record = {"workload": wl.name, "seed": seed, "traced_s": traced.timed_s,
                  "untraced_s": untraced.timed_s, "absent": sorted(tracer.absent),
                  "layers": {k: dict(zip(("calls", "total_s", "self_s"), v))
                             for k, v in tracer.stats.items()},
                  "spans": tracer.span_records()}
        return RunResult(metrics, counts, record)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
