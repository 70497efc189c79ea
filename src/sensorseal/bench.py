"""Verification benchmarks: scaling tables, linear fits, CSV reports.

Hardware differs, so the reproducible claim is the shape: auditor
verification time grows linearly with chunk count. `linear_fit` reports
the least-squares slope and R^2 over measured points; absolute seconds
are incidental.
"""

from __future__ import annotations

import csv
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .crypto import PublicKeys
from .events import DeviceId
from .store import ChunkStore, read_bundle_file, write_bundle_file
from .verify import audit_range, verify_user_range

MIN_SAMPLE_SECONDS = 0.02


class BenchError(Exception):
    pass


@dataclass(frozen=True)
class BenchPoint:
    chunks: int
    seconds: float
    readings: int


def auditor_scaling(
    store: ChunkStore,
    enclave_pub: PublicKeys,
    counts: tuple[int, ...] = (1, 50, 100, 500, 1000),
    repeats: int = 3,
) -> list[BenchPoint]:
    """Time auditor verification over prefixes of the stored log.

    Each point is the median of `repeats` samples, taken in rounds that
    visit every count in turn, so a slow spell of a shared machine falls
    on all points alike. A sample is the mean of as many audits as fill
    `MIN_SAMPLE_SECONDS`: a lone sub-millisecond run mostly times a cold cache.
    """
    indices = store.indices()
    if not indices:
        raise BenchError("store holds no chunks")
    if max(counts) > len(indices):
        raise BenchError(f"store has {len(indices)} chunks, need {max(counts)}")
    first = indices[0]
    samples: dict[int, list[float]] = {count: [] for count in counts}
    for _ in range(repeats):
        for count in counts:
            bundle = store.get_auditor_bundle(first, first + count - 1)
            runs = seconds = 0
            while seconds < MIN_SAMPLE_SECONDS:
                verdicts, summary = audit_range(bundle, enclave_pub)
                bad = [v for v in verdicts if not v.ok]
                if bad:
                    raise BenchError(f"benchmark store does not verify: {bad[0]}")
                runs += 1
                seconds += summary["seconds"]
            samples[count].append(seconds / runs)
    return [
        BenchPoint(count, statistics.median(samples[count]),
                   sum(store.manifest["chunks"][str(i)]["n"] for i in range(first, first + count)))
        for count in counts
    ]


def user_streaming_seconds(
    store: ChunkStore,
    enclave_pub: PublicKeys,
    device: DeviceId,
    first: int,
    last: int,
    credential: bytes | None = None,
    bundle_path: str | Path | None = None,
) -> float:
    """Single-threaded user verification through a streamed bundle file.

    The bundle is written to disk (to `bundle_path`, or to a temporary
    file removed afterwards) and re-read entry by entry, so peak memory
    stays flat in the number of chunks (the constrained-user profile).
    """
    bundle = store.get_user_bundle(first, last, credential)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "user.ssb" if bundle_path is None else bundle_path
        write_bundle_file(path, bundle)
        streamed = read_bundle_file(path)
        started = time.perf_counter()
        results, summary = verify_user_range(streamed, device, enclave_pub)
        elapsed = time.perf_counter() - started
    bad = [v for v, _ in results if not v.ok]
    if bad:
        raise BenchError(f"benchmark store does not verify: {bad[0]}")
    return elapsed


def linear_fit(points: list[BenchPoint]) -> tuple[float, float, float]:
    """Least-squares seconds-vs-chunks fit: (slope, intercept, r_squared)."""
    if len(points) < 2:
        raise BenchError("need at least two points to fit")
    x = np.array([p.chunks for p in points], dtype=float)
    y = np.array([p.seconds for p in points], dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def write_csv(points: list[BenchPoint], path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["chunks", "seconds", "readings"])
        for p in points:
            writer.writerow([p.chunks, f"{p.seconds:.6f}", p.readings])


def format_table(points: list[BenchPoint]) -> str:
    lines = [f"{'chunks':>8} {'seconds':>12} {'readings':>10}"]
    for p in points:
        lines.append(f"{p.chunks:>8} {p.seconds:>12.4f} {p.readings:>10}")
    slope, intercept, r2 = linear_fit(points)
    lines.append(f"linear fit: seconds = {slope:.6f} * chunks + {intercept:.6f}  (R^2 = {r2:.4f})")
    return "\n".join(lines)
