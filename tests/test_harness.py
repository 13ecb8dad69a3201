"""Harness tests: analytic formulas, config validation, scenario runs, and
adversary behavior end to end."""

import json
import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvault import harness, kem, protocol
from canvault.bus import BusConfig
from canvault.errors import ConfigError, DeadlockError, DomainError, \
    RunCheckError
from canvault.group import Group, get_group
from canvault.harness import (LATENCY_PRESETS, ScenarioConfig, Scheme,
                              SimReport, comparison_ratios, comparison_table,
                              computation_tally_us, expected_messages,
                              expected_phase_times, load_latency_profile,
                              run_scenario, write_keyfile)
from canvault.protocol import MsgKind, body_length
from support import affine_fit
from test_golden import GOLDEN


class TestMessageFormulas:
    def test_closed_forms(self):
        assert expected_messages(Scheme.OURS, 2) == 5
        assert expected_messages(Scheme.OURS, 35) == 71
        assert expected_messages(Scheme.CARVAJAL_ROCA, 35) == 176
        assert expected_messages(Scheme.MUSUROI, 1) == 4
        assert expected_messages(Scheme.MUSUROI, 35) == 276

    def test_positive_for_all_small_sizes(self):
        for n in range(1, 41):
            for scheme in Scheme:
                assert expected_messages(scheme, n) >= 1

    def test_domain_error_below_one(self):
        for scheme in Scheme:
            with pytest.raises(DomainError):
                expected_messages(scheme, 0)

    def test_ratios_at_worst_case(self):
        vs_carvajal, vs_musuroi = comparison_ratios(35)
        assert vs_carvajal == Fraction(71, 176)
        assert vs_musuroi == Fraction(71, 276)
        assert abs(float(vs_carvajal) * 100 - 40.34) <= 0.01
        assert abs(float(vs_musuroi) * 100 - 25.72) <= 0.01

    def test_ratio_for_singleton_group(self):
        vs_carvajal, vs_musuroi = comparison_ratios(1)
        assert vs_carvajal == Fraction(1, 2)
        assert vs_musuroi == Fraction(3, 4)

    def test_comparison_table_shape(self):
        rows = comparison_table([2, 15, 25, 35])
        assert len(rows) == 12
        ours_rows = [r for r in rows if r["scheme"] == "ours"]
        assert all(r["percent_of_ours"] == 100.0 for r in ours_rows)
        worst = [r for r in rows if r["n"] == 35 and r["scheme"] == "carvajal-roca"]
        assert worst[0]["messages"] == 176
        assert worst[0]["percent_of_ours"] == 40.34


class TestComputationTally:
    def test_stm32_tallies(self):
        table = load_latency_profile("stm32")["secu"]
        assert computation_tally_us(Scheme.OURS, table) == \
            5 * 3000 + 4 * 40 + 6 * 300 + 4 * 40 + 2 * 40
        assert computation_tally_us(Scheme.CARVAJAL_ROCA, table) == \
            6 * 3000 + 2 * 40 + 4 * 40
        assert computation_tally_us(Scheme.MUSUROI, table) == \
            2870 + 2 * 4460 + 4 * 3000 + 4 * 40

    def test_tally_none_without_signature_timings(self):
        table = load_latency_profile("w806")["secu"]
        assert computation_tally_us(Scheme.MUSUROI, table) is None
        assert computation_tally_us(Scheme.OURS, table) is not None


class TestAffineFit:
    def test_exact_line_has_zero_residual(self):
        xs = [2, 15, 25, 35]
        ys = [7 + 3 * x for x in xs]
        a, b, res = affine_fit(xs, ys)
        assert abs(a - 7) < 1e-9 and abs(b - 3) < 1e-9
        assert res < 1e-12

    def test_constant_series(self):
        a, b, res = affine_fit([2, 15, 25, 35], [10, 10, 10, 10])
        assert abs(b) < 1e-12 and res < 1e-12

    def test_noisy_line_reports_residual(self):
        _, _, res = affine_fit([1, 2, 3, 4], [10, 21, 29, 41])
        assert res > 0.01


def _profile_text(**changes) -> str:
    """A custom profile's file text: the stm32 preset, with each node class
    in ``changes`` replaced by its value, or a dict's ops updated in it."""
    table = {cls: dict(ops) for cls, ops in load_latency_profile("stm32").items()}
    for cls, value in changes.items():
        table[cls] = {**table[cls], **value} if isinstance(value, dict) else value
    return json.dumps(table)


class TestConfigValidation:
    def base(self, **overrides):
        raw = {"group": "toy23", "n_ecus": 2}
        raw.update(overrides)
        return raw

    def test_minimal_config_parses_with_defaults(self):
        cfg = ScenarioConfig.from_dict(self.base())
        assert cfg.latency_profile == "stm32"
        assert cfg.bitrate_bps == 1_000_000
        assert cfg.ctr_max == 65_535
        bus = BusConfig()
        assert (cfg.bitrate_bps, cfg.frame_overhead_bits) == \
            (bus.bitrate_bps, bus.frame_overhead_bits)

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.base(rng_seed=4)))
        assert vars(ScenarioConfig.from_json_file(str(path))) == \
            vars(ScenarioConfig(**self.base(rng_seed=4)))
        path.write_text(json.dumps([self.base()]))
        with pytest.raises(ConfigError, match="must hold a JSON object"):
            ScenarioConfig.from_json_file(str(path))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(self.base(extra=1))

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"group": "toy23"})

    @pytest.mark.parametrize("bad", [
        {"n_ecus": 0}, {"n_ecus": -3}, {"group": "foo"}, {"ctr_max": 0},
        {"post_ticks": -1}, {"rng_seed": -1}, {"replay_cache_size": 0},
        {"phase4_sender": 5}, {"phase4_sender": None}, {"phase4_sender": -1},
        {"n_ecus": True}, {"bitrate_bps": "fast"},
        {"adversary": [{"action": "melt"}]},
        {"adversary": [{"action": "tamper", "target": "group_secret"}]},
        {"adversary": [{"action": "tamper", "target": "nope", "bit": 0}]},
        {"adversary": [{"action": "replay", "target": "seed_broadcast",
                        "bit": 3}]},
        {"bitrate_bps": 1000}, {"frame_overhead_bits": -1}, {"n_ecus": 0x700},
        {"adversary": [{"action": "forge", "target": "pairwise_cipher",
                        "receiver": True}]},
        {"adversary": [{"action": ["tamper"]}]},
        {"latency_profile": "pentium"},
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(self.base(**bad))
        with pytest.raises(ConfigError):
            ScenarioConfig(**self.base(**bad))

    def test_replace_checks_the_copy_and_keeps_the_original(self):
        cfg = ScenarioConfig.from_dict(self.base(rng_seed=3))
        assert cfg.replace(rng_seed=5).rng_seed == 5
        assert cfg.replace(post_ticks=2).rng_seed == 3
        for bad in ({"rng_seed": -1}, {"n_ecus": 0}, {"extra": 1}):
            with pytest.raises(ConfigError):
                cfg.replace(**bad)
        assert (cfg.rng_seed, cfg.n_ecus) == (3, 2)

    def test_largest_group_below_adversary_id_parses(self):
        # ECU 0x6FE gets CAN id 0x7FE, the last one below the adversary's.
        cfg = ScenarioConfig.from_dict(self.base(n_ecus=0x6FF))
        assert cfg.n_ecus == 0x6FF

    def test_tamper_bit_must_fit_body(self):
        # A toy23 seed body is 48 bytes; the bound is checked on construction.
        for bit in (48 * 8, 10_000):
            raw = self.base(adversary=[{"action": "tamper",
                                        "target": "seed_broadcast", "bit": bit}])
            with pytest.raises(ConfigError):
                ScenarioConfig.from_dict(raw)
            with pytest.raises(ConfigError):
                ScenarioConfig(**raw)
        ScenarioConfig(**self.base(adversary=[
            {"action": "tamper", "target": "seed_broadcast", "bit": 48 * 8 - 1}]))

    def test_sequence_numbers_cannot_wrap(self):
        # One sequence number per protocol message and per forgery.
        forge = {"action": "forge", "target": "seed_broadcast"}
        with pytest.raises(ConfigError, match="sequence"):
            ScenarioConfig(**self.base(n_ecus=1, adversary=[forge] * 65533))

    def test_sequence_bound_counts_protocol_messages_and_forgeries(
            self, monkeypatch):
        monkeypatch.setattr(harness, "MAX_MSG_SEQ", 7)
        forge = {"action": "forge", "target": "seed_broadcast"}
        replay = {"action": "replay", "target": "seed_broadcast"}
        ScenarioConfig(**self.base(adversary=[forge] * 2 + [replay] * 3))
        with pytest.raises(ConfigError, match="sequence"):
            ScenarioConfig(**self.base(adversary=[forge] * 3))

    def test_largest_admissible_adversary_list_parses(self):
        # 3 protocol messages and 65532 forgeries take every sequence number.
        forge = {"action": "forge", "target": "seed_broadcast"}
        cfg = ScenarioConfig(**self.base(n_ecus=1, adversary=[forge] * 65532))
        assert len(cfg.adversary) == 65532

    @pytest.mark.parametrize("entry, message", [
        ({"action": "replay", "occurrence": 1}, "target"),
        ({"action": "replay", "target": "seed_broadcast",
          "kind": "seed_broadcast"}, r"unknown replay adversary keys: \['kind'\]"),
    ])
    def test_adversary_errors_name_the_target_key(self, entry, message):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(**self.base(adversary=[entry]))

    @pytest.mark.parametrize("raw", [[{"group": "toy23", "n_ecus": 2}], "toy23", None])
    def test_from_dict_refuses_a_non_object(self, raw):
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize("entry", ["tamper", ["tamper", "group_secret"], None])
    def test_adversary_entries_must_be_objects(self, entry):
        with pytest.raises(ConfigError, match="adversary entries must be objects"):
            ScenarioConfig(**self.base(adversary=[entry]))

    def test_type_hints_read_once_per_class(self):
        # A cache miss is one get_type_hints call: one per class.
        harness._type_hints.cache_clear()
        adversary = [
            {"action": "tamper", "target": "group_secret", "occurrence": 1,
             "bit": 100},
            {"action": "replay", "target": "seed_broadcast"},
            {"action": "forge", "target": "pairwise_cipher", "receiver": 0}]
        for _ in range(3):
            run_scenario(ScenarioConfig(**self.base(adversary=adversary * 5)))
        info = harness._type_hints.cache_info()
        assert (info.misses, info.currsize) == (4, 4)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            load_latency_profile("pentium")

    def test_a_loaded_preset_table_is_the_callers_own(self):
        # An edit to one class's table reaches neither the preset, the other
        # class nor a later load.
        load_latency_profile("stm32")["ecu"]["hkdf"] = 1
        assert LATENCY_PRESETS["stm32"]["hkdf"] == 300
        loaded = load_latency_profile("stm32")
        assert loaded["secu"]["hkdf"] == loaded["ecu"]["hkdf"] == 300
        assert loaded["secu"] is not loaded["ecu"]

    def test_custom_profile_roundtrip(self, tmp_path):
        table = {"secu": {"eccdh": 10, "hkdf": 2, "aes": 1, "hmac": 1},
                 "ecu": {"eccdh": 20, "hkdf": 2, "aes": 1, "hmac": 1}}
        path = tmp_path / "prof.json"
        path.write_text(json.dumps(table))
        loaded = load_latency_profile(f"custom:{path}")
        assert loaded == table
        report = run_scenario(ScenarioConfig(
            group="toy23", n_ecus=1, latency_profile=f"custom:{path}"))
        # encap 10 + tx 176 + decap 20
        assert report.phase_times["pairwise"]["elapsed_us"] == 206

    def test_custom_profile_file_is_read_at_run_time(self, tmp_path):
        cfg = ScenarioConfig.from_dict(self.base(
            latency_profile=f"custom:{tmp_path / 'missing.json'}"))
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    def test_custom_profile_missing_ops_rejected(self, tmp_path):
        path = tmp_path / "prof.json"
        path.write_text(json.dumps({"secu": {"eccdh": 1}, "ecu": {"eccdh": 1}}))
        with pytest.raises(ConfigError):
            load_latency_profile(f"custom:{path}")

    def test_custom_profile_must_be_an_object(self, tmp_path):
        path = tmp_path / "prof.json"
        path.write_text(json.dumps([{"eccdh": 1}]))
        with pytest.raises(ConfigError, match="JSON object"):
            load_latency_profile(f"custom:{path}")

    # A full stm32 table with one value replaced, or text that is no JSON.
    @pytest.mark.parametrize("text, message", [
        ('{"secu": {"eccdh": 1}', "is not valid JSON"),
        (_profile_text(secu=[1]), "map 'secu' to op latencies"),
        (_profile_text(ecu=1), "map 'ecu' to op latencies"),
        (_profile_text(secu={"eccdh": True}), r"latency secu\.eccdh must be >= 0 us"),
        (_profile_text(ecu={"hmac": -1}), r"latency ecu\.hmac must be >= 0 us"),
    ], ids=["not_json", "secu_list", "ecu_int", "bool_latency", "negative_latency"])
    def test_custom_profile_refused(self, tmp_path, text, message):
        path = tmp_path / "prof.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_latency_profile(f"custom:{path}")

    def test_profile_without_an_ecu_table_refused_before_any_power(
            self, tmp_path, monkeypatch):
        # The profile is checked before keygen takes a group power.
        path = tmp_path / "prof.json"
        path.write_text(json.dumps({"secu": json.loads(_profile_text())["secu"]}))
        cfg = ScenarioConfig(**self.base(latency_profile=f"custom:{path}"))
        powers, exp = [], Group.exp
        monkeypatch.setattr(Group, "exp",
                            lambda self, *args: powers.append(args) or exp(self, *args))
        with pytest.raises(ConfigError, match="map 'ecu' to op latencies"):
            run_scenario(cfg)
        assert powers == []
        run_scenario(cfg.replace(latency_profile="stm32"))
        assert powers                       # a run's powers pass through Group.exp


class TestHonestScenarios:
    def test_reference_run(self):
        report = run_scenario(ScenarioConfig(group="schnorr256", n_ecus=2))
        assert report.logical_messages == 5
        assert report.expected_messages == 5
        assert report.converged == {"pairwise": True, "group_secret": True,
                                    "session": True}
        assert not report.partially_keyed
        assert all(report.checks.values())
        assert report.rejections == []

    @pytest.mark.parametrize("n", [1, 2, 15])
    def test_message_budget(self, n):
        report = run_scenario(ScenarioConfig(group="toy23", n_ecus=n))
        assert report.logical_messages == 2 * n + 1

    def test_message_budget_full_sweep(self):
        for n in range(1, 41):
            report = run_scenario(ScenarioConfig(group="toy23", n_ecus=n))
            assert report.logical_messages == expected_messages(Scheme.OURS, n)

    def test_phase_times_affine_in_group_size(self):
        sizes = [2, 15, 25, 35]
        elapsed = {"pairwise": [], "group_secret": [], "session": []}
        for n in sizes:
            report = run_scenario(ScenarioConfig(group="toy23", n_ecus=n))
            for phase, series in elapsed.items():
                series.append(report.phase_times[phase]["elapsed_us"])
        for series in elapsed.values():
            _, _, res = affine_fit(sizes, series)
            assert res < 0.01

    def test_report_json_round_trip(self):
        report = run_scenario(ScenarioConfig(
            group="toy23", n_ecus=3, post_ticks=5, ctr_max=2,
            adversary=[{"action": "forge", "target": "seed_broadcast"}]))
        text = report.to_json()
        read_back = SimReport(**json.loads(text))
        assert read_back == report
        assert read_back.to_json() == text
        # A report equals only a report, never its dict form.
        assert report != json.loads(text)

    def test_report_has_exactly_its_sixteen_fields(self):
        report = run_scenario(ScenarioConfig(group="toy23", n_ecus=3))
        assert sorted(vars(report)) == sorted([
            "group", "n_ecus", "rng_seed", "latency_profile",
            "logical_messages", "frames", "data_frames", "refresh_events",
            "phase_times", "rejections", "converged", "partially_keyed",
            "expected_messages", "checks", "comparison",
            "computation_tally_us"])

    def test_phase4_sender_override(self):
        report = run_scenario(ScenarioConfig(group="toy23", n_ecus=3,
                                             phase4_sender=2))
        assert report.converged["session"]

    def test_refresh_counting(self):
        report = run_scenario(ScenarioConfig(group="toy23", n_ecus=2,
                                             ctr_max=4, post_ticks=15))
        assert report.data_frames == 15
        assert report.refresh_events == 3      # one rotation per 5 ticks
        assert report.converged["session"]


def _closed_form(cfg: ScenarioConfig) -> dict:
    latency = load_latency_profile(cfg.latency_profile)
    return expected_phase_times(get_group(cfg.group), cfg.n_ecus, latency,
                                BusConfig(cfg.bitrate_bps, cfg.frame_overhead_bits))


_OP_LATENCY = st.fixed_dictionaries(
    {op: st.integers(0, 5000) for op in ("eccdh", "hkdf", "aes", "hmac")})


class TestPhaseTimeOracle:
    """Honest runs report exactly the closed-form phase times."""

    @pytest.mark.parametrize("bitrate", [125_000, 1_000_000, 8_000_000])
    @pytest.mark.parametrize("profile", ["stm32", "w806", "uno"])
    @pytest.mark.parametrize("group", ["toy23", "schnorr256"])
    def test_presets(self, group, profile, bitrate):
        for n in (1, 3):
            cfg = ScenarioConfig(group=group, n_ecus=n, latency_profile=profile,
                                 bitrate_bps=bitrate)
            assert run_scenario(cfg).phase_times == _closed_form(cfg)

    def test_thousand_units(self):
        cfg = ScenarioConfig(group="toy23", n_ecus=1000, latency_profile="stm32")
        assert run_scenario(cfg).phase_times == _closed_form(cfg)

    @staticmethod
    def custom_profile(directory, secu: dict, ecu: dict) -> str:
        path = directory / "profile.json"
        path.write_text(json.dumps({"secu": secu, "ecu": ecu}))
        return f"custom:{path}"

    def test_single_unit_seed_reaches_only_the_secu(self, tmp_path):
        # The ECU's seed receive charge would dominate, but at N=1 the only
        # unit sends the seed, so the SECU's charge ends the session stage.
        ecu = {"eccdh": 10, "hkdf": 900, "aes": 1, "hmac": 1}
        profile = self.custom_profile(tmp_path, {**ecu, "hkdf": 5}, ecu)
        cfg = ScenarioConfig(group="toy23", n_ecus=1, latency_profile=profile)
        assert run_scenario(cfg).phase_times == _closed_form(cfg)

    def test_a_class_no_node_declares_is_loaded_and_never_read(self, tmp_path):
        # A gateway table that lacks every charged op but one: reading it
        # for a charge or for the closed form would raise.
        table = {**json.loads(_profile_text()), "gateway": {"eccdh": 1}}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(table))
        assert load_latency_profile(f"custom:{path}") == table
        cfg = ScenarioConfig(group="toy23", n_ecus=3,
                             latency_profile=f"custom:{path}")
        report = run_scenario(cfg)
        assert all(report.checks.values())
        assert report.phase_times == _closed_form(cfg)

    def test_bus_and_oracle_read_one_op_list(self, monkeypatch):
        # An op added to one kind's list moves the bus's charges and the
        # closed form alike.
        cfg = ScenarioConfig(group="toy23", n_ecus=3, latency_profile="stm32")
        unpatched = run_scenario(cfg).phase_times
        monkeypatch.setitem(protocol.MESSAGE_OPS, MsgKind.GROUP_SECRET,
                            (*protocol.MESSAGE_OPS[MsgKind.GROUP_SECRET], "sha"))
        patched = run_scenario(cfg).phase_times
        assert patched == _closed_form(cfg)
        assert patched != unpatched

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(n=st.integers(1, 64), bitrate=st.integers(125_000, 8_000_000),
           overhead=st.integers(0, 300), secu=_OP_LATENCY, ecu=_OP_LATENCY)
    def test_random_profiles(self, tmp_path_factory, n, bitrate, overhead,
                             secu, ecu):
        profile = self.custom_profile(tmp_path_factory.mktemp("profile"), secu, ecu)
        cfg = ScenarioConfig(group="toy23", n_ecus=n, latency_profile=profile,
                             bitrate_bps=bitrate, frame_overhead_bits=overhead)
        assert run_scenario(cfg).phase_times == _closed_form(cfg)


def _with_first_entry(keyfile: dict, **fields) -> dict:
    """A keyfile holding only its first keypair, with ``fields`` replaced."""
    return {**keyfile, "keypairs": [{**keyfile["keypairs"][0], **fields}]}


def _respelled(keyfile: dict, field: str, value: int, text: str) -> dict:
    """A keyfile holding only its first keypair, with exponent ``field`` set
    to ``value`` spelled as ``text`` and its public half consistent, so the
    spelling alone is wrong."""
    group = get_group("toy23")
    public = "u" if field == "x" else "v"
    return _with_first_entry(keyfile, **{
        field: text, public: group.element_hex(group.exp(group.generator, value))})


# Spellings of 7 (and of 10, for upper case) that int(text, 16) would read
# but write_keyfile never writes.
_MISSPELLED = {"0x_prefix": (7, "0x7"), "padded_sign": (7, " +7 "),
               "underscore": (7, "0_7"), "upper_case": (10, "A"),
               "leading_zero": (7, "07")}


class TestKeyfiles:
    def test_keyfile_run_matches_inline_run(self, tmp_path):
        group = get_group("toy23")
        rng = Random("canvault:9:keygen")
        keypairs = [kem.keygen(group, i, rng) for i in range(3)]
        path = tmp_path / "params.json"
        write_keyfile(str(path), group, keypairs)
        data = json.loads(path.read_text())
        assert data["simulation_only"] is True

        inline = run_scenario(ScenarioConfig(group="toy23", n_ecus=3, rng_seed=9))
        from_file = run_scenario(ScenarioConfig(group="toy23", n_ecus=3,
                                                rng_seed=9, keyfile=str(path)))
        assert inline == from_file

    def test_keyfile_validation(self, tmp_path):
        group = get_group("toy23")
        keypairs = [kem.keygen(group, 0, Random(0))]
        path = tmp_path / "params.json"
        write_keyfile(str(path), group, keypairs)

        with pytest.raises(ConfigError):    # wrong group
            run_scenario(ScenarioConfig(group="schnorr256", n_ecus=1,
                                        keyfile=str(path)))
        with pytest.raises(ConfigError):    # not enough keypairs
            run_scenario(ScenarioConfig(group="toy23", n_ecus=2,
                                        keyfile=str(path)))

        data = json.loads(path.read_text())
        data["keypairs"][0]["u"] = "1"      # inconsistent public value
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError):
            run_scenario(ScenarioConfig(group="toy23", n_ecus=1,
                                        keyfile=str(path)))

    @staticmethod
    def keyfile_with_ids(tmp_path, ids):
        group = get_group("toy23")
        rng = Random("canvault:9:keygen")
        path = tmp_path / "params.json"
        write_keyfile(str(path), group, [kem.keygen(group, i, rng) for i in range(3)])
        data = json.loads(path.read_text())
        for entry, ecu_id in zip(data["keypairs"], ids):
            entry["ecu_id"] = ecu_id
        path.write_text(json.dumps(data))
        return str(path)

    # A duplicate, the central unit's id -1, an id past the 11-bit CAN-id
    # space, and a bool that Python would count as 1.
    @pytest.mark.parametrize("ids", [[0, 0, 2], [-1, 1, 2], [0, 1, 5000],
                                     [0, True, 2]])
    def test_keyfile_unit_ids_must_be_zero_to_n(self, tmp_path, ids):
        path = self.keyfile_with_ids(tmp_path, ids)
        with pytest.raises(ConfigError, match="unit ids"):
            run_scenario(ScenarioConfig(group="toy23", n_ecus=3, keyfile=path))

    # toy23: modulus 23, order 11. A non-member u (5 is no square mod 23),
    # an x congruent to the right one but outside [1, order), x = 0 with its
    # consistent u = g^0, a top-level list, keypairs that are no list, an
    # entry without x, an x that is no hex, and each _MISSPELLED x and y.
    @pytest.mark.parametrize("malform, message", [
        (lambda d: _with_first_entry(d, u="5"), "inconsistent public values"),
        (lambda d: _with_first_entry(
            d, x=f"{int(d['keypairs'][0]['x'], 16) - 11:x}"),
         r"exponents outside \[1, order\)"),
        (lambda d: _with_first_entry(d, x="0", u="1"),
         r"exponents outside \[1, order\)"),
        (lambda d: [d], "must hold a JSON object"),
        (lambda d: {**d, "keypairs": {"a": 1}}, "keypairs must be a list"),
        (lambda d: {**d, "keypairs": [{k: v for k, v in d["keypairs"][0].items()
                                       if k != "x"}]},
         "malformed keyfile entry: 'x'"),
        (lambda d: _with_first_entry(d, x="0xg"), "malformed keyfile entry"),
    ] + [
        (lambda d, f=field, v=value, t=text: _respelled(d, f, v, t),
         re.escape(f"malformed keyfile entry: {field} {text!r} is not "
                   "lower-case hex without prefix or leading zeros"))
        for field in "xy" for value, text in _MISSPELLED.values()
    ], ids=["non_member_u", "x_minus_order", "zero_x", "list", "keypairs_dict",
            "missing_x", "non_hex_x"] + [
        f"{field}_{name}" for field in "xy" for name in _MISSPELLED])
    def test_malformed_keyfile_refused(self, tmp_path, malform, message):
        group = get_group("toy23")
        path = tmp_path / "params.json"
        write_keyfile(str(path), group, [kem.keygen(group, 0, Random(0))])
        path.write_text(json.dumps(malform(json.loads(path.read_text()))))
        with pytest.raises(ConfigError, match=message):
            run_scenario(ScenarioConfig(group="toy23", n_ecus=1,
                                        keyfile=str(path)))

    def test_keyfile_unit_ids_in_any_order_run(self, tmp_path):
        path = self.keyfile_with_ids(tmp_path, [2, 1, 0])
        trace = tmp_path / "trace.csv"
        report = run_scenario(ScenarioConfig(group="toy23", n_ecus=3, keyfile=path),
                              trace_path=str(trace))
        assert all(report.checks.values())
        assert all(report.converged.values())
        # phase4_sender names a unit id, not a keyfile position: unit 0,
        # listed last, sends the seed (message 7) under CAN id 0x100.
        seed_rows = [row.split(",")[1] for row in trace.read_text().splitlines()
                     if row.split(",")[2] == "7:0/1"]
        assert seed_rows == ["0x100"]


class TestAdversaryScenarios:
    def test_tamper_group_secret_hits_only_target(self):
        cfg = ScenarioConfig(group="toy23", n_ecus=2, adversary=[
            {"action": "tamper", "target": "group_secret", "occurrence": 1,
             "bit": 100}])
        report = run_scenario(cfg)
        assert report.partially_keyed
        assert report.converged["pairwise"]
        assert not report.converged["group_secret"]
        assert any(r["node"] == "ecu1" and r["reason"] == "mac"
                   for r in report.rejections)
        assert all(report.checks.values())
        assert report.logical_messages == 5

    def test_tamper_pairwise_rejected(self):
        cfg = ScenarioConfig(group="toy23", n_ecus=2, adversary=[
            {"action": "tamper", "target": "pairwise_cipher", "occurrence": 1,
             "bit": 9}])
        report = run_scenario(cfg)
        reasons = {r["reason"] for r in report.rejections
                   if r["node"] == "ecu1"}
        assert reasons & {"consistency", "decode"}
        assert not report.converged["pairwise"]

    def test_replay_seed_broadcast_discarded_by_all_units(self):
        cfg = ScenarioConfig(group="toy23", n_ecus=3, adversary=[
            {"action": "replay", "target": "seed_broadcast"}])
        report = run_scenario(cfg)
        replayers = {r["node"] for r in report.rejections
                     if r["reason"] == "replay"}
        assert replayers == {"ecu0", "ecu1", "ecu2"}
        assert report.converged["session"]
        assert report.logical_messages == 7     # replays are not counted

    def test_each_replay_entry_sends_its_own_copy(self):
        replay = {"action": "replay", "target": "group_secret", "occurrence": 1}
        report = run_scenario(ScenarioConfig(group="toy23", n_ecus=3,
                                             adversary=[replay, replay]))
        # 10 honest frames plus two 2-frame copies of ecu1's group secret
        assert report.frames == 14
        assert [(r["node"], r["reason"]) for r in report.rejections] == \
            [("ecu1", "replay"), ("ecu1", "replay")]

    def test_forged_pairwise_rejected_at_target(self):
        cfg = ScenarioConfig(group="toy23", n_ecus=2, adversary=[
            {"action": "forge", "target": "pairwise_cipher", "receiver": 0}])
        report = run_scenario(cfg)
        assert any(r["node"] == "ecu0" and r["reason"] == "consistency"
                   for r in report.rejections)
        assert report.converged["pairwise"]     # honest message still lands

    def test_forged_unicast_seed_reaches_every_unit(self):
        # The seed handler does not check the receiver, so a seed forged to
        # one unit is judged by all of them; at time 0 none holds a group
        # secret yet.
        cfg = ScenarioConfig(group="toy23", n_ecus=3, adversary=[
            {"action": "forge", "target": "seed_broadcast", "receiver": 1}])
        report = run_scenario(cfg)
        assert [(r["node"], r["reason"]) for r in report.rejections] == \
            [("ecu0", "state"), ("ecu1", "state"), ("ecu2", "state")]

    @pytest.mark.parametrize("entry", [
        {"action": "tamper", "target": "seed_broadcast", "bit": 3},
        {"action": "replay", "target": "seed_broadcast"},
    ], ids=["tamper", "replay"])
    def test_entry_order_does_not_decide_what_hits_a_forgery(self, tmp_path,
                                                             entry):
        # Forgeries are sent before phase 2, so occurrence 0 is the forged
        # seed, whether its entry comes before or after this one.
        forge = {"action": "forge", "target": "seed_broadcast"}
        traces = []
        for i, adversary in enumerate(([forge, entry], [entry, forge], [forge])):
            path = tmp_path / f"trace{i}.csv"
            run_scenario(ScenarioConfig(group="toy23", n_ecus=2, adversary=adversary),
                         trace_path=str(path))
            traces.append(path.read_text())
        assert traces[0] == traces[1] != traces[2]

    def test_tampering_the_seed_sender_stalls_the_session_phase(self):
        cfg = ScenarioConfig(group="toy23", n_ecus=2, adversary=[
            {"action": "tamper", "target": "group_secret", "occurrence": 0,
             "bit": 5}])
        with pytest.raises(DeadlockError, match="seed sender ecu0") as err:
            run_scenario(cfg)
        # The stalled run still reports the two stages it ran.
        report = err.value.report
        assert report.checks == {"message_count": False,
                                 "frame_accounting": False, "convergence": True}
        assert sorted(report.phase_times) == ["group_secret", "pairwise"]
        assert report.converged == {"pairwise": True, "group_secret": False,
                                    "session": False}
        assert report.partially_keyed
        assert (report.logical_messages, report.frames) == (4, 6)
        assert [(r["node"], r["reason"]) for r in report.rejections] == \
            [("ecu0", "mac")]


# ecu0 ends up holding a pairwise secret that the SECU never issued.
FOREIGN_KEYED = {"group": "toy23", "n_ecus": 2, "rng_seed": 18, "phase4_sender": 1,
                 "adversary": [{"action": "forge", "target": "pairwise_cipher",
                                "receiver": 0, "at_us": 60000}]}


class TestRunChecks:
    def test_check_failure_raises_with_report_attached(self, monkeypatch):
        monkeypatch.setattr(harness, "expected_messages",
                            lambda scheme, n: 999)
        with pytest.raises(RunCheckError) as err:
            run_scenario(ScenarioConfig(group="toy23", n_ecus=2))
        assert err.value.report is not None
        assert not err.value.report.checks["message_count"]

    def test_unit_keyed_by_a_forgery_fails_convergence(self):
        # The forged ciphertext reaches ecu0 after the pairwise phase, passes
        # toy23's binding check and replaces the secret the SECU issued. A
        # rejection elsewhere in the run does not excuse that.
        cfg = ScenarioConfig.from_dict(FOREIGN_KEYED)
        with pytest.raises(RunCheckError, match=r"did not issue held by ecu0$") \
                as err:
            run_scenario(cfg)
        report = err.value.report
        assert report.checks == {"message_count": True,
                                 "frame_accounting": True, "convergence": False}
        assert report.rejections

    def test_frame_accounting_is_exact_under_attack(self, monkeypatch):
        # Forged frames are not the protocol's: the honest count must still
        # match the closed form exactly, not merely be reached.
        cfg = ScenarioConfig(group="toy23", n_ecus=2, adversary=[
            {"action": "forge", "target": "group_secret", "receiver": 0}])
        real = harness._honest_frame_count
        monkeypatch.setattr(harness, "_honest_frame_count",
                            lambda group, n: real(group, n) - 1)
        with pytest.raises(RunCheckError) as err:
            run_scenario(cfg)
        report = err.value.report
        assert report.checks == {"message_count": True,
                                 "frame_accounting": False, "convergence": True}
        assert report.frames == real(get_group("toy23"), 2) + 2


_TIMES = st.sampled_from([0, 500, 20_000, 60_000, 100_000])
_TARGETS = st.sampled_from([kind.value for kind in MsgKind])
_REASONS = {"decode", "consistency", "mac", "replay", "state"}


@st.composite
def hostile_toy_configs(draw):
    """toy23 runs of 1-5 units under 1-4 tamper, replay and forge entries,
    timed across every phase; a short counter makes ``post_ticks`` rotate."""
    n = draw(st.integers(1, 5))
    adversary = []
    for _ in range(draw(st.integers(1, 4))):
        action = draw(st.sampled_from(["tamper", "replay", "forge"]))
        target = draw(_TARGETS)
        entry = {"action": action, "target": target}
        if action == "tamper":
            bits = 8 * body_length(get_group("toy23"), MsgKind(target))
            entry.update(bit=draw(st.integers(0, bits - 1)),
                         occurrence=draw(st.integers(0, n)))
        elif action == "replay":
            entry.update(occurrence=draw(st.integers(0, n)), delay_us=draw(_TIMES))
        else:
            entry["at_us"] = draw(_TIMES)
            receiver = draw(st.none() | st.integers(0, n - 1))
            if receiver is not None:
                entry["receiver"] = receiver
        adversary.append(entry)
    return ScenarioConfig(group="toy23", n_ecus=n, rng_seed=draw(st.integers(0, 99)),
                          post_ticks=draw(st.sampled_from([0, 0, 40])),
                          ctr_max=7, adversary=adversary)


def _run(cfg: ScenarioConfig, trace_path=None):
    """(report bytes, the run-check error or None) of one run."""
    try:
        return run_scenario(cfg, trace_path).to_json(), None
    except RunCheckError as exc:
        assert exc.report is not None
        return exc.report.to_json(), exc


def _fragment_sets(cfg: ScenarioConfig, stalled: bool) -> int:
    """Fragment sets a run sends: one per protocol message and forgery, and
    one copy per replay entry whose (kind, occurrence) was sent."""
    sent = {MsgKind.PAIRWISE_CIPHER.value: cfg.n_ecus,
            MsgKind.GROUP_SECRET.value: cfg.n_ecus,
            MsgKind.SEED_BROADCAST.value: 0 if stalled else 1}
    for entry in cfg.adversary:
        if entry["action"] == "forge":
            sent[entry["target"]] += 1
    replays = sum(entry["action"] == "replay"
                  and entry.get("occurrence", 0) < sent[entry["target"]]
                  for entry in cfg.adversary)
    return sum(sent.values()) + replays


def _assert_sets_arrive_whole(trace_csv: str, sets: int) -> dict:
    """Under each (CAN id, sequence number), the trace's fragment indexes run
    0..total-1 once for the original and once for each replay copy, never
    interleaved, over ``sets`` sets in all. Returns each key's (total,
    copies)."""
    frags = {}
    for row in trace_csv.splitlines()[1:]:
        can_id, frag = row.split(",")[1:3]
        if frag != "data":
            seq, index_total = frag.split(":")
            frags.setdefault((can_id, int(seq)), []).append(index_total)
    shape = {}
    for key, seen in frags.items():
        total = int(seen[0].split("/")[1])
        copies = len(seen) // total
        assert seen == [f"{i}/{total}" for i in range(total)] * copies, key
        shape[key] = (total, copies)
    assert sum(copies for _, copies in shape.values()) == sets
    return shape


@settings(derandomize=True, max_examples=250, deadline=None)
@given(cfg=hostile_toy_configs())
@example(cfg=ScenarioConfig.from_dict(FOREIGN_KEYED))
def test_adversary_schedules_keep_the_run_invariants(tmp_path_factory, cfg):
    trace = tmp_path_factory.mktemp("trace") / "trace.csv"
    report_json, error = _run(cfg, str(trace))
    _assert_sets_arrive_whole(trace.read_text(), _fragment_sets(
        cfg, isinstance(error, DeadlockError)))
    again_json, again = _run(cfg)
    assert again_json == report_json and str(again) == str(error)
    report = json.loads(report_json)
    assert {r["reason"] for r in report["rejections"]} <= _REASONS
    if not isinstance(error, DeadlockError):
        assert report["logical_messages"] == 2 * cfg.n_ecus + 1
        assert report["checks"]["frame_accounting"]
    if not report["checks"]["convergence"]:
        assert "did not issue held by ecu" in str(error)


def test_paper_size_replays_arrive_whole(tmp_path):
    """The golden 2048-bit hostile run replays a 9-frame pairwise set, a
    2-frame group secret and the 1-frame seed; each copy follows its
    original whole."""
    cfg = ScenarioConfig.from_dict(GOLDEN["hostile_schnorr256_n35"][0])
    trace = tmp_path / "trace.csv"
    run_scenario(cfg, trace_path=str(trace))
    shape = _assert_sets_arrive_whole(trace.read_text(), _fragment_sets(cfg, False))
    assert sorted(v for v in shape.values() if v[1] > 1) == [(1, 2), (2, 2), (9, 2)]
