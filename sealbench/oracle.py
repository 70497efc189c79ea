"""The benchmark's capture policy and the expected results it is checked against.

The expected values are computed here from the generated readings
alone, without the program's rule evaluator, sealer or store: the
retention state comes from a closed-form reading of the four rules
below, chunks from the 30-minute window grid, and each user's
occurrences on a day from a plain count of that device's readings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from sensorseal import harness
from sensorseal.rules import DataCaptureRule, RuleAction, RuleSet

WINDOW_MS = 30 * 60 * 1000  # the default chunk policy's window
MS_PER_DAY = 24 * 3_600_000
MORNING = (9 * 3_600_000, 9 * 3_600_000 + 10 * 60_000)  # 09:00-09:10 UTC
CORE_BUILDINGS = 15      # buildings 0..14 are retained
QUIET_BUILDING = 5       # except this one
N_OPTED_OUT = 10         # the first devices of the pool opt out everywhere


class CheckFailed(Exception):
    """An output of the program disagrees with the expected value."""


def check(name: str, ok: bool, detail: str) -> None:
    if not ok:
        raise CheckFailed(f"check {name} failed: {detail}")


def campus_policy(spec: harness.WorkloadSpec) -> RuleSet:
    """Four rules: every precedence step of the evaluator decides some readings.

    A device-specific opt-out beats every generic rule; among generic
    rules the latest created wins, so the morning opt-in beats the quiet
    building's opt-out, which beats the core opt-in.
    """
    core = frozenset().union(*(harness.building_sensors(spec, b) for b in range(CORE_BUILDINGS)))
    opted_out = frozenset(harness.device_pool(spec.seed, spec.n_devices)[:N_OPTED_OUT])
    return RuleSet.of([
        DataCaptureRule("campus-core", RuleAction.OPT_IN, sensor_filter=core, created_at=10),
        DataCaptureRule("lab-quiet", RuleAction.OPT_OUT,
                        sensor_filter=harness.building_sensors(spec, QUIET_BUILDING), created_at=20),
        DataCaptureRule("morning-count", RuleAction.OPT_IN, daily_window=MORNING, created_at=30),
        DataCaptureRule("opted-out", RuleAction.OPT_OUT, device_filter=opted_out, created_at=5),
    ], RuleAction.OPT_OUT)


def expected_active(opted_out: frozenset[bytes], device: bytes, sensor: bytes, t: int) -> bool:
    """Whether `campus_policy` retains a reading, read off the rules directly."""
    if device in opted_out:
        return False
    if MORNING[0] <= t % MS_PER_DAY < MORNING[1]:
        return True
    building = int(sensor[1:3])  # sensor ids are "bNN-apMMM"
    return building < CORE_BUILDINGS and building != QUIET_BUILDING


@dataclass(frozen=True)
class Day:
    """One UTC day of the log: its chunks and what they must hold."""

    first_chunk: int
    last_chunk: int
    readings: int
    active: int
    per_device: Counter  # device id bytes -> readings that day


@dataclass(frozen=True)
class Expected:
    readings: int
    active: int
    chunks: int
    window_bounds: tuple[tuple[int, int], ...]  # [lo, hi) reading indices per chunk
    days: tuple[Day, ...]


def expect(spec: harness.WorkloadSpec) -> Expected:
    """Expected counts, from the generated readings alone.

    Windows and days both start at multiples of their length in epoch
    milliseconds, so no chunk straddles a day.
    """
    opted_out = frozenset(d.id for d in harness.device_pool(spec.seed, spec.n_devices)[:N_OPTED_OUT])
    n = 0
    bounds: list[list[int]] = []
    days: list[list] = []  # first chunk, last chunk, readings, active, per-device counts
    window = day = None
    for r in harness.generate_readings(spec):
        if r.time // WINDOW_MS != window:
            window = r.time // WINDOW_MS
            bounds.append([n, n])
            if r.time // MS_PER_DAY != day:
                day = r.time // MS_PER_DAY
                days.append([len(bounds), 0, 0, 0, Counter()])
            days[-1][1] = len(bounds)
        d = days[-1]
        d[2] += 1
        d[3] += expected_active(opted_out, r.device.id, r.sensor.id, r.time)
        d[4][r.device.id] += 1
        n += 1
        bounds[-1][1] = n
    return Expected(n, sum(d[3] for d in days), len(bounds),
                    tuple(tuple(b) for b in bounds), tuple(Day(*d) for d in days))
