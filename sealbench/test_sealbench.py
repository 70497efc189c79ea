"""Fast tests of the benchmark itself: tiny workloads, failing checks, metric names.

Run with `python -m pytest sealbench` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from sensorseal import harness
from sensorseal import verify as verify_mod
from sensorseal.verify import Outcome, PresenceReport, Verdict

from sealbench import oracle, tracer, workloads
from sealbench.oracle import CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

TINY = {
    "ingest_peak": dict(rate_scale=0.01),
    "live_seal": dict(duration_ms=workloads.MS_PER_DAY, rate_scale=0.005),
}


def tiny(name: str, **overrides) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], **{**TINY[name], **overrides})


def sealed(tmp_path: Path, name: str = "live_seal", seed: int = 3):
    """A tiny workload's set-up, sealed, with its expected values."""
    wl = tiny(name)
    expected = oracle.expect(wl.spec(seed))
    setup = workloads.prepare(wl, seed, tmp_path / "store")
    workloads.seal_round(wl, setup, expected, workloads.Counts())
    return wl, setup, expected


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes_its_checks(tmp_path, name, trace):
    notes = []
    result = workloads.run(tiny(name), 3, 0, trace, tmp_path, notes.append)
    assert result.counts.attempted > 0 and result.counts.failed == 0
    section = "per_layer" if trace else "end_to_end"
    assert set(result.metrics) == {m["name"] for m in BENCHMARK[section]}
    for m in BENCHMARK[section]:
        assert result.metrics[m["name"]][1] == m["unit"]
    if not trace:
        assert all(value > 0 for value, _ in result.metrics.values())
    assert any(n.startswith("tamper:") for n in notes)
    assert not any(tmp_path.iterdir()), "scratch stores left behind"


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_expected_state_follows_rule_precedence():
    spec = harness.WorkloadSpec(seed=5)
    opted = frozenset(d.id for d in harness.device_pool(5, spec.n_devices)[:oracle.N_OPTED_OUT])
    other = harness.device_pool(5, spec.n_devices)[-1].id
    morning = harness.DEFAULT_START_MS + oracle.MORNING[0]
    noon = harness.DEFAULT_START_MS + 12 * workloads.MS_PER_HOUR
    assert not oracle.expected_active(opted, next(iter(opted)), b"b01-ap010", morning)
    assert oracle.expected_active(opted, other, b"b05-ap090", morning)
    assert not oracle.expected_active(opted, other, b"b05-ap090", noon)
    assert oracle.expected_active(opted, other, b"b14-ap240", noon)
    assert not oracle.expected_active(opted, other, b"b15-ap250", noon)


@pytest.mark.parametrize("field,check", [
    ("readings", "readings_sealed"), ("active", "active_count"), ("chunks", "chunk_count"),
])
def test_seal_checks_fail_on_a_wrong_expected_count(tmp_path, field, check):
    wl = tiny("live_seal")
    expected = oracle.expect(wl.spec(3))
    wrong = dataclasses.replace(expected, **{field: getattr(expected, field) + 1})
    setup = workloads.prepare(wl, 3, tmp_path / "store")
    with pytest.raises(CheckFailed, match=check):
        workloads.seal_round(wl, setup, wrong, workloads.Counts())


def test_audit_check_fails_on_a_modified_record(tmp_path):
    wl, setup, expected = sealed(tmp_path)
    harness.apply_tamper(setup.root, harness.TamperAction(harness.TamperKind.MODIFY_READING, chunk=2),
                         rng=random.Random(1))
    with pytest.raises(CheckFailed, match="audit_intact"):
        workloads.read_side(wl, setup, expected, workloads.Counts(), workloads.Samples())


def test_user_checks_fail_on_a_wrong_expected_count(tmp_path):
    wl, setup, expected = sealed(tmp_path)
    device = workloads.user_device(setup.spec, 0)
    day = expected.days[0]
    per_device = day.per_device.copy()
    per_device[device.id] += 1

    def with_first_day(**changes):
        days = (dataclasses.replace(day, **changes),) + expected.days[1:]
        return dataclasses.replace(expected, days=days)

    with pytest.raises(CheckFailed, match="user_occurrences"):
        workloads.read_side(wl, setup, with_first_day(per_device=per_device),
                               workloads.Counts(), workloads.Samples())
    with pytest.raises(CheckFailed, match="bundle_records"):
        workloads.read_side(wl, setup, with_first_day(active=day.active - 1),
                               workloads.Counts(), workloads.Samples())


def test_tamper_audit_check_fails_when_another_chunk_is_also_modified(tmp_path):
    _, setup, expected = sealed(tmp_path)
    target = random.Random(setup.spec.seed).randint(1, expected.chunks)
    other = 1 if target != 1 else 2
    harness.apply_tamper(setup.root, harness.TamperAction(harness.TamperKind.MODIFY_READING, chunk=other),
                         rng=random.Random(1))
    with pytest.raises(CheckFailed, match="tamper_audit"):
        workloads.tamper_check(setup, expected, lambda note: None)


def test_tamper_user_check_fails_when_user_verification_misses_it(tmp_path, monkeypatch):
    _, setup, expected = sealed(tmp_path)

    def blind(entry, device, strings, enclave_pub):
        return Verdict(Outcome.INTACT, entry.index, "ok"), PresenceReport(entry.index)

    monkeypatch.setattr(verify_mod, "verify_user_chunk", blind)
    monkeypatch.setattr(workloads, "USER_BOUND_FIELDS", {
        (kind, name) for kind in ("active", "redacted") for name in ("device", "sensor", "time", "tag")})
    with pytest.raises(CheckFailed, match="tamper_user"):
        workloads.tamper_check(setup, expected, lambda note: None)


def test_tracer_restores_targets_and_reports_missing_ones_absent(monkeypatch):
    from sensorseal import sealing

    original = sealing.seal_append
    monkeypatch.setattr(tracer, "HOOKS", tracer.HOOKS + (
        ("sealing.no_such_layer", "sensorseal.sealing", None, "no_such_function", tracer.COUNTER),))
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + ("sealing.no_such_layer",))
    t = tracer.Tracer()
    t.install()
    try:
        assert sealing.seal_append is not original
    finally:
        t.restore()
    assert sealing.seal_append is original
    assert t.absent == {"sealing.no_such_layer"}
    assert t.metrics(1.0)["sealing.no_such_layer.calls"] == (0, "count")


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "sealbench").mkdir(parents=True)
    for f in BENCH_DIR.glob("*.py"):
        (bare / "sealbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, "sealbench/run.py", "--workload", "live_seal", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
