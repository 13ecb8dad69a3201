"""End-to-end CLI tests through subprocess: exit codes, report files,
comparison CSV, keygen files, and the seed environment override."""

import json
import os
import subprocess
import sys
from pathlib import Path

CLI = [sys.executable, "-m", "canvault.cli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd, env=None):
    # The child runs in cwd, so a relative PYTHONPATH (such as "src") would
    # resolve there; prepend the checkout's src as an absolute path.
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(CLI + list(args), cwd=cwd, env=env,
                          capture_output=True, text=True)


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

    def test_trace_option_writes_frame_log(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        res = run_cli("run", str(cfg), "--trace", "trace.csv", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "timestamp_us,can_id,frag,payload_hex"
        assert len(lines) == 8

    def test_env_seed_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", rng_seed=1)
        env = dict(os.environ, CANVAULT_SEED="99")
        res = run_cli("run", str(cfg), cwd=tmp_path, env=env)
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["rng_seed"] == 99

    def test_bad_env_seed_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        env = dict(os.environ, CANVAULT_SEED="not-a-number")
        res = run_cli("run", str(cfg), cwd=tmp_path, env=env)
        assert res.returncode == 2


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

    def test_unwritable_output_exits_2(self, tmp_path):
        res = run_cli("keygen", "toy23", "2", "-o", "missing/params.json",
                      cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr.startswith("error:")
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


def test_compare_exit_message_goes_to_stderr(tmp_path):
    res = run_cli("compare", "0", cwd=tmp_path)
    assert "group size" in res.stderr
