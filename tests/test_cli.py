"""End-to-end CLI flows through main(): every subcommand, config file,
environment variable, exit codes."""

import hashlib
import json
import os

import pytest

from conftest import ALLOW_ALL, make_actors
from sensorseal import ChunkStore, KeyPair, Role, Sealer, SensorReading, seal_to
from sensorseal.cli import _seal_stream, main, parse_config, CliError
from sensorseal.events import encode_wire_reading
from sensorseal.notices import TransmissionReceipt, receipt_payload


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SENSORSEAL_STORE", raising=False)
    return tmp_path


RULES = """# test policy
default|optout
rule|retain-all|optin|*|*|*|1..9999999999999999|100
"""


def bootstrap(workdir, *, model="nom", days=0.02, rate_scale=0.05, devices=8, seed=3):
    (workdir / "rules.txt").write_text(RULES)
    assert run_cli("keygen", "--keys", "keys", "--devices", devices, "--seed", seed) == 0
    assert run_cli("rules", "--keys", "keys", "--file", "rules.txt") == 0
    assert run_cli("notify", "--keys", "keys", "--store", "store", "--model", model) == 0
    if model == "nam":
        assert run_cli("ack", "--keys", "keys", "--store", "store", "--all") == 0
    assert run_cli("gen", "--keys", "keys", "--out", "stream.bin", "--days", days,
                   "--rate-scale", rate_scale, "--devices", devices, "--seed", seed,
                   "--sensors", 12, "--buildings", 3) == 0
    assert run_cli("seal", "--keys", "keys", "--store", "store", "--stream", "stream.bin",
                   "--model", model, "--chunk-minutes", 5, "--seed", seed,
                   "--psk", "hunter2") == 0


def test_full_nom_flow(workdir, capsys):
    bootstrap(workdir)
    assert run_cli("verify-auditor", "--keys", "keys", "--store", "store") == 0
    out = capsys.readouterr().out
    assert "outcome=Intact" in out and "tampered=0" in out


def test_full_nam_flow_with_acks(workdir):
    bootstrap(workdir, model="nam")
    assert run_cli("verify-auditor", "--keys", "keys", "--store", "store") == 0


def test_bundle_export_and_offline_verify(workdir, capsys):
    bootstrap(workdir)
    assert run_cli("export-bundle", "--store", "store", "--kind", "auditor",
                   "--range", "1..3", "--out", "aud.ssb") == 0
    assert run_cli("verify-auditor", "--keys", "keys", "--bundle", "aud.ssb") == 0
    device = sorted(os.listdir(workdir / "keys" / "devices"))[0].removesuffix(".key")
    assert run_cli("export-bundle", "--store", "store", "--kind", "user",
                   "--range", "1..3", "--psk", "hunter2", "--out", "usr.ssb") == 0
    assert run_cli("verify-user", "--keys", "keys", "--device", device,
                   "--bundle", "usr.ssb") == 0
    out = capsys.readouterr().out
    assert "occurrences=" in out


@pytest.mark.parametrize("cut, code", [
    (lambda blob: blob[:40], 2),               # inside the header: unreadable input
    (lambda blob: blob[:len(blob) // 2], 1),   # inside an entry: a Tampered verdict
], ids=["header", "half"])
def test_truncated_bundle_exits_without_traceback(workdir, capsys, cut, code):
    bootstrap(workdir)
    assert run_cli("export-bundle", "--store", "store", "--kind", "auditor",
                   "--range", "1..3", "--out", "aud.ssb") == 0
    (workdir / "cut.ssb").write_bytes(cut((workdir / "aud.ssb").read_bytes()))
    capsys.readouterr()
    assert run_cli("verify-auditor", "--keys", "keys", "--bundle", "cut.ssb") == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err.startswith("error: bundle file truncated")
    else:
        assert "outcome=Tampered" in captured.out


@pytest.mark.parametrize("command", ["verify-auditor", "verify-user"])
def test_unreadable_bundle_path_exits_2(workdir, capsys, command):
    bootstrap(workdir)
    assert run_cli("export-bundle", "--store", "store", "--kind", "auditor",
                   "--range", "1..2", "--out", "aud.ssb") == 0
    device = sorted(os.listdir(workdir / "keys" / "devices"))[0].removesuffix(".key")
    extra = ["--device", device] if command == "verify-user" else []
    capsys.readouterr()
    # a directory, then a bundle of the other kind for verify-user
    assert run_cli(command, "--keys", "keys", "--bundle", "store", *extra) == 2
    assert "error:" in capsys.readouterr().err
    if command == "verify-user":
        assert run_cli(command, "--keys", "keys", "--bundle", "aud.ssb", *extra) == 2
        assert "not a user bundle" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-user", "ack"])
def test_bad_device_hex_exits_2(workdir, capsys, command):
    bootstrap(workdir)
    capsys.readouterr()
    assert run_cli(command, "--keys", "keys", "--store", "store", "--device", "zz") == 2
    assert capsys.readouterr().err.startswith("error: bad device id 'zz'")


def _drop_string(manifest: str) -> str:
    data = json.loads(manifest)
    del data["chunks"]["1"]["string"]
    return json.dumps(data)


@pytest.mark.parametrize("corrupt", [
    lambda manifest: '{"format":1,',   # cut off: not JSON
    _drop_string,                      # a chunk entry without its string
], ids=["truncated", "no-string"])
def test_corrupt_manifest_exits_2(workdir, capsys, corrupt):
    bootstrap(workdir)
    path = workdir / "store" / "manifest.json"
    path.write_text(corrupt(path.read_text()))
    capsys.readouterr()
    assert run_cli("verify-auditor", "--keys", "keys", "--store", "store") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_user_bundle_wrong_psk_refused(workdir, capsys):
    bootstrap(workdir)
    rc = run_cli("export-bundle", "--store", "store", "--kind", "user",
                 "--range", "1..2", "--psk", "wrong", "--out", "x.ssb")
    assert rc != 0 or "refused" in capsys.readouterr().err


def test_tamper_flips_exit_code(workdir):
    bootstrap(workdir)
    assert run_cli("verify-auditor", "--keys", "keys", "--store", "store") == 0
    assert run_cli("tamper", "--store", "store", "--kind", "modify-reading",
                   "--seed", 1) == 0
    assert run_cli("verify-auditor", "--keys", "keys", "--store", "store") == 1


def test_verify_user_detects_pu_forgery(workdir):
    bootstrap(workdir)
    device = sorted(os.listdir(workdir / "keys" / "devices"))[0].removesuffix(".key")
    assert run_cli("tamper", "--store", "store", "--kind", "forge-proof",
                   "--chunk", 1, "--target", "user") == 0
    assert run_cli("verify-user", "--keys", "keys", "--store", "store",
                   "--device", device, "--psk", "hunter2") == 1


def test_verify_user_reports_malformed_chunk_as_tampered(workdir, capsys):
    """A chunk on disk that does not parse is Tampered for the user, as for
    the auditor, not Missing."""
    bootstrap(workdir)
    device = sorted(os.listdir(workdir / "keys" / "devices"))[0].removesuffix(".key")
    assert run_cli("tamper", "--store", "store", "--kind", "truncate-chunk",
                   "--chunk", 2, "--seed", 1) == 0
    capsys.readouterr()
    assert run_cli("verify-user", "--keys", "keys", "--store", "store",
                   "--device", device, "--psk", "hunter2") == 1
    lines = capsys.readouterr().out.splitlines()
    chunk2 = next(line for line in lines if line.startswith("chunk=2 "))
    assert "outcome=Tampered" in chunk2 and "malformed chunk file" in chunk2
    others = [line for line in lines if line.startswith("chunk=") and line != chunk2]
    assert others and all("outcome=Intact" in line for line in others)


def test_env_var_store_root(workdir, monkeypatch):
    bootstrap(workdir)
    monkeypatch.setenv("SENSORSEAL_STORE", str(workdir / "store"))
    assert run_cli("verify-auditor", "--keys", "keys") == 0


def test_config_file(workdir, capsys):
    config = workdir / "run.cfg"
    config.write_text(
        "keys=keys\nstore=cfg-store\nmodel=nom\nseed=11\n"
        "days=0.02\nrate_scale=0.05\ndevices=6\nsensors=10\nbuildings=2\n"
        "chunk_minutes=5\npsk=hunter2\n"
    )
    assert run_cli("--config", "run.cfg", "pipeline") == 0
    out = capsys.readouterr().out
    assert "payload_digest=" in out
    assert run_cli("--config", "run.cfg", "verify-auditor") == 0


def test_config_rejects_unknown_keys(workdir):
    bad = workdir / "bad.cfg"
    bad.write_text("nonsense=1\n")
    with pytest.raises(CliError):
        parse_config(bad)


def test_pipeline_reproducible_store(workdir, capsys):
    args = ["pipeline", "--seed", "21", "--days", "0.02", "--rate-scale", "0.05",
            "--devices", "6", "--sensors", "10", "--buildings", "2",
            "--chunk-minutes", "5"]

    def digest_of(run_id: str) -> str:
        assert run_cli(*args, "--keys", f"k{run_id}", "--store", f"s{run_id}") == 0
        out = capsys.readouterr().out
        return next(line for line in out.splitlines() if line.startswith("payload_digest="))

    # the chunk bytes are pinned: a change to them is a format change
    pinned = "payload_digest=43d512c7d4c999f8bb40bc4b0d5a3a0dd73140e41b7c89d909d06191daa9d3b7"
    assert digest_of("a") == digest_of("b") == pinned


def test_pipeline_bundles_pinned(workdir, capsys):
    """The bundle files exported from the seed-21 store are pinned too: a
    change to their bytes is a format change."""
    assert run_cli("pipeline", "--seed", "21", "--days", "0.02", "--rate-scale", "0.05",
                   "--devices", "6", "--sensors", "10", "--buildings", "2",
                   "--chunk-minutes", "5", "--keys", "k", "--store", "s", "--psk", "hunter2") == 0
    assert "payload_digest=43d512c7d4c999f8bb40bc4b0d5a3a0dd73140e41b7c89d909d06191daa9d3b7" in (
        capsys.readouterr().out.splitlines())
    assert run_cli("export-bundle", "--store", "s", "--kind", "auditor",
                   "--range", "1..6", "--out", "aud.ssb") == 0
    assert run_cli("export-bundle", "--store", "s", "--kind", "user",
                   "--range", "1..6", "--psk", "hunter2", "--out", "usr.ssb") == 0
    digests = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
               for name in ("aud.ssb", "usr.ssb")}
    assert digests == {
        "aud.ssb": "17f4d924644847c41a9a9e21fff93eabce3bca7791d3791e7829a43042637cbe",
        "usr.ssb": "1fd30fd5ebee4de32f2e6603f9f96683c171dce672171ca32977d701dc3b89eb",
    }


def test_pipeline_nam_model(workdir, capsys):
    assert run_cli("pipeline", "--keys", "kn", "--store", "sn", "--model", "nam",
                   "--seed", "4", "--days", "0.02", "--rate-scale", "0.05",
                   "--devices", "5", "--sensors", "8", "--buildings", "2",
                   "--chunk-minutes", "5") == 0
    out = capsys.readouterr().out
    assert "model=nam" in out


def test_zero_rule_pipeline_all_passive(workdir, capsys):
    (workdir / "none.rules").write_text("default|optout\n")
    assert run_cli("pipeline", "--keys", "kz", "--store", "sz", "--rules", "none.rules",
                   "--seed", "5", "--days", "0.02", "--rate-scale", "0.05",
                   "--devices", "5", "--sensors", "8", "--buildings", "2",
                   "--chunk-minutes", "5") == 0
    out = capsys.readouterr().out
    assert "active=0" in out


def test_bench_table_and_csv(workdir, capsys):
    bootstrap(workdir, days=0.05, rate_scale=0.05)
    rc = run_cli("bench", "--keys", "keys", "--store", "store",
                 "--counts", "1,2,4", "--repeats", "2", "--csv", "bench.csv")
    assert rc == 0
    out = capsys.readouterr().out
    assert "linear fit" in out
    lines = (workdir / "bench.csv").read_text().splitlines()
    assert lines[0] == "chunks,seconds,readings"
    assert len(lines) == 4


def test_missing_store_is_an_error(workdir, capsys):
    assert run_cli("verify-auditor", "--keys", "nowhere") == 2
    assert "error:" in capsys.readouterr().err


def _pipeline_report(capsys, *extra) -> dict:
    assert run_cli("pipeline", "--seed", "9", "--rate-scale", "0.03",
                   "--devices", "6", "--sensors", "10", "--buildings", "2",
                   "--chunk-minutes", "30", *extra) == 0
    out = capsys.readouterr().out
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


def test_chunk_count_proportional_to_days(workdir, capsys):
    one = _pipeline_report(capsys, "--days", "1", "--keys", "kd1", "--store", "sd1")
    two = _pipeline_report(capsys, "--days", "2", "--keys", "kd2", "--store", "sd2")
    ratio = int(two["chunks"]) / int(one["chunks"])
    assert 1.6 <= ratio <= 2.4  # chunk count tracks observation span


def test_pipeline_reports_sealing_latency(workdir, capsys):
    report = _pipeline_report(capsys, "--days", "0.5", "--keys", "kl", "--store", "sl")
    assert float(report["seal_ms_p50"]) > 0
    # desk-scale chunks seal far inside the 310ms envelope
    assert float(report["seal_ms_p95"]) < 310.0


def test_seal_report_counts_only_discarded_readings(tmp_path):
    # a rejected control message raises an alert but discards no reading
    actors = make_actors()
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry,
                    ChunkStore(tmp_path / "store"))
    sealer.install_ruleset(ALLOW_ALL)
    rogue = KeyPair.generate(Role.NOTIFIER)
    sealer.confirm_notice_receipt(TransmissionReceipt(
        "n1", ALLOW_ALL.digest, rogue.sign(receipt_payload("n1", ALLOW_ALL.digest)), 1))
    assert len(sealer.alerts) == 1
    readings = [SensorReading(actors.devices[0], actors.sensors[0], 1_000 + i) for i in range(5)]
    report = _seal_stream(sealer, [seal_to(actors.enclave.public, encode_wire_reading(r))
                                   for r in readings])
    assert report["readings"] == 5
    assert report["discarded"] == 0


def test_seal_report_discards_stale_reading(tmp_path):
    actors = make_actors()
    sealer = Sealer(actors.enclave, actors.notifier.public, actors.registry,
                    ChunkStore(tmp_path / "store"))
    readings = [SensorReading(actors.devices[0], actors.sensors[0], t)
                for t in (1_000, 2_000, 1_500, 3_000)]
    report = _seal_stream(sealer, [seal_to(actors.enclave.public, encode_wire_reading(r))
                                   for r in readings])
    assert report["readings"] == 3
    assert report["discarded"] == 1


@pytest.mark.parametrize("model", ["nom", "nam"])
def test_seeded_pipeline_writes_identical_bytes(workdir, capsys, model):
    args = ["pipeline", "--seed", "21", "--days", "0.02", "--rate-scale", "0.05",
            "--devices", "6", "--sensors", "10", "--buildings", "2",
            "--chunk-minutes", "5", "--model", model, "--psk", "hunter2"]

    def outputs(run_id: str) -> dict:
        store = workdir / f"s{run_id}"
        assert run_cli(*args, "--keys", f"k{run_id}", "--store", store) == 0
        last = ChunkStore(store).indices()[-1]
        for kind in ("auditor", "user"):
            assert run_cli("export-bundle", "--store", store, "--kind", kind, "--range",
                           f"1..{last}", "--psk", "hunter2", "--out", f"{run_id}.{kind}") == 0
        files = {str(p.relative_to(store)): p.read_bytes() for p in store.rglob("*") if p.is_file()}
        assert "notices.bin" in files and any(name.endswith(".env") for name in files)
        for kind in ("auditor", "user"):
            files[kind] = (workdir / f"{run_id}.{kind}").read_bytes()
        return files

    assert outputs("a") == outputs("b")
