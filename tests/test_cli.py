"""End-to-end CLI tests through subprocess: exit codes, report files,
comparison CSV, keygen files, the seed environment override, and runs with
no site-packages."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from canvault.harness import SimReport
from test_golden import GOLDEN

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd, env=None, flags=()):
    # The child runs in cwd, so a relative PYTHONPATH (such as "src") would
    # resolve there; prepend the checkout's src as an absolute path. flags
    # go to the interpreter, before -m.
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-m", "canvault.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def write_config(path, **overrides):
    cfg = {"group": "toy23", "n_ecus": 2}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestRunCommand:
    def test_honest_run_exits_zero_with_report(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        res = run_cli("run", str(cfg), cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["logical_messages"] == 5
        assert report["expected_messages"] == 5
        assert all(report["checks"].values())

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", rng_seed=77)
        res = run_cli("run", str(cfg), "-o", "a.json", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        res = run_cli("run", str(cfg), "-o", "b.json", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_report_and_trace_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Set and dict orders of str keys follow PYTHONHASHSEED; no byte of
        # an output may. The run rejects for four reasons and rotates keys.
        cfg = write_config(tmp_path / "cfg.json", n_ecus=3, post_ticks=12,
                           ctr_max=2, adversary=[
            {"action": "forge", "target": "pairwise_cipher", "receiver": 0},
            {"action": "tamper", "target": "pairwise_cipher", "occurrence": 2,
             "bit": 7},
            {"action": "replay", "target": "seed_broadcast"}])
        outputs = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            res = run_cli("run", str(cfg), "-o", f"r{hash_seed}.json",
                          "--trace", f"t{hash_seed}.csv", cwd=tmp_path, env=env)
            assert res.returncode == 0, res.stderr
            outputs.append([(tmp_path / f"{name}{hash_seed}.{ext}").read_bytes()
                            for name, ext in (("r", "json"), ("t", "csv"))])
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0][0])
        assert len({r["reason"] for r in report["rejections"]}) == 4
        assert report["refresh_events"] > 0

    def test_runs_without_site_packages(self, tmp_path):
        # Under -S no site-packages are on the child's path, cryptography
        # (the tests' AES oracle) included, so these runs show the runtime
        # needs only the standard library. The paper-size report gives its
        # pinned digest and reads back as a SimReport that writes the same
        # text.
        write_config(tmp_path / "toy.json", n_ecus=3)
        write_config(tmp_path / "big.json", group="schnorr256", n_ecus=35)
        for name in ("toy", "big"):
            res = run_cli("run", f"{name}.json", "-o", f"{name}_report.json",
                          cwd=tmp_path, flags=["-S"])
            assert res.returncode == 0, res.stderr
        text = (tmp_path / "big_report.json").read_text()
        assert SimReport(**json.loads(text)).to_json() == text
        assert hashlib.sha256(text.encode()).hexdigest() == \
            GOLDEN["honest_schnorr256_n35"][1]

    def test_invalid_group_size_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n_ecus=0)
        res = run_cli("run", str(cfg), cwd=tmp_path)
        assert res.returncode == 2
        assert "n_ecus" in res.stderr

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", surprise=1)
        res = run_cli("run", str(cfg), cwd=tmp_path)
        assert res.returncode == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        res = run_cli("run", "no-such.json", cwd=tmp_path)
        assert res.returncode == 2

    def test_adversary_run_reports_rejections_and_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", adversary=[
            {"action": "tamper", "target": "group_secret", "occurrence": 1,
             "bit": 12}])
        res = run_cli("run", str(cfg), cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["rejections"]
        assert report["partially_keyed"]

    def test_stalled_session_phase_exits_3(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", adversary=[
            {"action": "tamper", "target": "group_secret", "occurrence": 0,
             "bit": 12}])
        res = run_cli("run", str(cfg), cwd=tmp_path)
        assert res.returncode == 3
        assert "group secret" in res.stderr
        # The stalled run still writes the report that explains the stall.
        report = json.loads((tmp_path / "report.json").read_text())
        assert {"node": "ecu0", "reason": "mac"}.items() <= \
            report["rejections"][0].items()
        assert "session" not in report["phase_times"]

    def test_unit_keyed_by_a_forgery_exits_3(self, tmp_path):
        # ecu0 accepts a late forged ciphertext that passes toy23's binding
        # check, so it holds a pairwise secret the SECU never issued.
        cfg = write_config(tmp_path / "cfg.json", rng_seed=18, phase4_sender=1,
                           adversary=[{"action": "forge", "target": "pairwise_cipher",
                                       "receiver": 0, "at_us": 60000}])
        res = run_cli("run", str(cfg), cwd=tmp_path)
        assert res.returncode == 3
        assert "did not issue held by ecu0" in res.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"]["convergence"] is False

    def test_unwritable_report_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        res = run_cli("run", str(cfg), "-o", "missing/report.json", cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr

    def test_unwritable_trace_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        res = run_cli("run", str(cfg), "--trace", "missing/trace.csv",
                      cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr

    def test_outputs_are_checked_before_the_run(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        res = run_cli("run", str(cfg), "-o", "missing/report.json",
                      "--trace", "t.csv", cwd=tmp_path)
        assert res.returncode == 2
        assert "missing/report.json" in res.stderr
        assert not (tmp_path / "t.csv").exists()

    def test_trace_and_report_on_one_file_exit_2(self, tmp_path):
        # The same file under two spellings, and under a link, is refused
        # before the run: nothing is written.
        cfg = write_config(tmp_path / "cfg.json")
        (tmp_path / "link.json").symlink_to(tmp_path / "out.json")
        for trace in ("out.json", "./out.json", str(tmp_path / "link.json")):
            res = run_cli("run", str(cfg), "-o", "out.json", "--trace", trace,
                          cwd=tmp_path)
            assert res.returncode == 2, trace
            assert res.stderr.startswith("error:")
            assert "Traceback" not in res.stderr
            assert not (tmp_path / "out.json").exists()

    def test_trace_option_writes_frame_log(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        res = run_cli("run", str(cfg), "--trace", "trace.csv", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "timestamp_us,can_id,frag,payload_hex"
        assert len(lines) == 8

    def test_env_seed_overrides_config(self, tmp_path):
        # The seed is a decimal integer, as --seed takes it: 010 is ten.
        cfg = write_config(tmp_path / "cfg.json", rng_seed=1)
        for raw, seed in (("99", 99), ("010", 10)):
            env = dict(os.environ, CANVAULT_SEED=raw)
            res = run_cli("run", str(cfg), cwd=tmp_path, env=env)
            assert res.returncode == 0, res.stderr
            report = json.loads((tmp_path / "report.json").read_text())
            assert report["rng_seed"] == seed

    def test_bad_env_seed_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        for raw in ("not-a-number", "0x10"):
            env = dict(os.environ, CANVAULT_SEED=raw)
            res = run_cli("run", str(cfg), cwd=tmp_path, env=env)
            assert res.returncode == 2
            assert "CANVAULT_SEED must be a decimal integer" in res.stderr

    def test_env_seed_is_validated_like_the_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        env = dict(os.environ, CANVAULT_SEED="-1")
        res = run_cli("run", str(cfg), cwd=tmp_path, env=env)
        assert res.returncode == 2
        assert "rng_seed" in res.stderr and "must be >= 0" in res.stderr
        assert not (tmp_path / "report.json").exists()


class TestCompareCommand:
    def test_worst_case_row(self, tmp_path):
        res = run_cli("compare", "35", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert "carvajal-roca,35,176,40.34" in res.stdout
        assert "musuroi,35,276,25.72" in res.stdout
        assert "ours,35,71,100.00" in res.stdout

    def test_four_sizes_give_twelve_rows(self, tmp_path):
        res = run_cli("compare", "2", "15", "25", "35", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "scheme,N,messages,percent_of_ours"
        assert len(lines) == 13

    def test_singleton_counts(self, tmp_path):
        res = run_cli("compare", "1", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert "ours,1,3," in res.stdout
        assert "carvajal-roca,1,6," in res.stdout
        assert "musuroi,1,4," in res.stdout

    def test_non_numeric_exits_2(self, tmp_path):
        res = run_cli("compare", "many", cwd=tmp_path)
        assert res.returncode == 2

    def test_zero_size_exits_2(self, tmp_path):
        res = run_cli("compare", "0", cwd=tmp_path)
        assert res.returncode == 2


class TestKeygenCommand:
    def test_writes_consistent_keypairs(self, tmp_path):
        res = run_cli("keygen", "toy23", "2", "-o", "params.json", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "params.json").read_text())
        assert data["simulation_only"] is True
        assert len(data["keypairs"]) == 2
        for entry in data["keypairs"]:
            assert pow(2, int(entry["x"], 16), 23) == int(entry["u"], 16)
            assert pow(2, int(entry["y"], 16), 23) == int(entry["v"], 16)

    def test_bad_group_exits_2(self, tmp_path):
        res = run_cli("keygen", "badname", "2", cwd=tmp_path)
        assert res.returncode == 2

    def test_zero_count_exits_2(self, tmp_path):
        res = run_cli("keygen", "toy23", "0", cwd=tmp_path)
        assert res.returncode == 2

    # A negative seed, from the flag or from the environment, is refused as
    # run refuses a negative rng_seed, and no keyfile is written.
    @pytest.mark.parametrize("args, env_seed", [
        (("--seed", "-1"), None), ((), "-3")], ids=["flag", "env"])
    def test_negative_seed_exits_2_without_a_file(self, tmp_path, args, env_seed):
        env = dict(os.environ)
        if env_seed is not None:
            env["CANVAULT_SEED"] = env_seed
        res = run_cli("keygen", "toy23", "2", "-o", "params.json", *args,
                      cwd=tmp_path, env=env)
        assert res.returncode == 2
        assert "seed must be >= 0" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "params.json").exists()

    def test_unwritable_output_exits_2(self, tmp_path):
        res = run_cli("keygen", "toy23", "2", "-o", "missing/params.json",
                      cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr.startswith("error:")
        assert "cannot write missing/params.json" in res.stderr
        assert "Traceback" not in res.stderr

    def test_keyfile_run_equals_inline_run(self, tmp_path):
        res = run_cli("keygen", "toy23", "3", "-o", "params.json",
                      "--seed", "5", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        inline = write_config(tmp_path / "inline.json", n_ecus=3, rng_seed=5)
        loaded = write_config(tmp_path / "loaded.json", n_ecus=3, rng_seed=5,
                              keyfile="params.json")
        res = run_cli("run", str(inline), "-o", "a.json", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        res = run_cli("run", str(loaded), "-o", "b.json", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_keyfile_with_duplicate_unit_id_exits_2(self, tmp_path):
        res = run_cli("keygen", "toy23", "2", "-o", "params.json", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "params.json").read_text())
        data["keypairs"][1]["ecu_id"] = 0
        (tmp_path / "params.json").write_text(json.dumps(data))
        cfg = write_config(tmp_path / "cfg.json", keyfile="params.json")
        res = run_cli("run", str(cfg), "-o", "report.json", cwd=tmp_path)
        assert res.returncode == 2
        assert "unit ids" in res.stderr
        assert "Traceback" not in res.stderr

    def test_keyfile_with_non_member_public_value_exits_2(self, tmp_path):
        res = run_cli("keygen", "toy23", "2", "-o", "params.json", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "params.json").read_text())
        data["keypairs"][0]["u"] = "5"      # not a square mod 23
        (tmp_path / "params.json").write_text(json.dumps(data))
        cfg = write_config(tmp_path / "cfg.json", keyfile="params.json")
        res = run_cli("run", str(cfg), "-o", "report.json", cwd=tmp_path)
        assert res.returncode == 2
        assert "inconsistent public values" in res.stderr
        assert "Traceback" not in res.stderr

    # A custom profile is read when the scenario runs: a missing file, and
    # one that times the SECU's class but not the units'.
    @pytest.mark.parametrize("profile, message", [
        (None, "cannot read latency profile"),
        ({"secu": {"eccdh": 1, "hkdf": 1, "aes": 1, "hmac": 1}},
         "error: profile must map 'ecu' to op latencies"),
    ], ids=["missing_file", "no_ecu_table"])
    def test_profile_refused_at_run_time_exits_2_without_report(
            self, tmp_path, profile, message):
        if profile is not None:
            (tmp_path / "profile.json").write_text(json.dumps(profile))
        cfg = write_config(tmp_path / "cfg.json",
                           latency_profile="custom:profile.json")
        res = run_cli("run", str(cfg), "-o", "report.json", cwd=tmp_path)
        assert res.returncode == 2
        assert message in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "report.json").exists()


def test_compare_exit_message_goes_to_stderr(tmp_path):
    res = run_cli("compare", "0", cwd=tmp_path)
    assert "group size" in res.stderr
