"""Bus-layer tests: fragmentation codec, timing arithmetic, arbitration,
delivery conservation, and determinism of the event loop."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canvault import kem
from canvault.bus import (BusConfig, CanFdFrame, LATENCY_PRESETS, Network,
                          frame_time_us, fragment, reassemble)
from canvault.errors import ConfigError
from canvault.group import get_group
from canvault.harness import ScenarioConfig, run_scenario
from canvault.protocol import SECU_ID, Disposition, Ecu, MsgKind, Secu, WireMessage


@pytest.fixture(scope="module")
def toy():
    return get_group("toy23")


def make_msg(body: bytes) -> WireMessage:
    return WireMessage(MsgKind.SEED_BROADCAST, SECU_ID, None, body)


class TestFragmentation:
    def test_small_body_fits_one_frame(self):
        frames = fragment(make_msg(b"x" * 48), can_id=0x10, msg_seq=1)
        assert len(frames) == 1
        assert frames[0].frag_total == 1
        assert len(frames[0].payload) == 52

    def test_64_byte_body_needs_two_frames(self):
        frames = fragment(make_msg(b"x" * 64), can_id=0x10, msg_seq=1)
        assert [len(f.payload) for f in frames] == [64, 8]
        assert [f.frag_index for f in frames] == [0, 1]

    def test_empty_body_still_sends_header_frame(self):
        frames = fragment(make_msg(b""), can_id=0x10, msg_seq=1)
        assert len(frames) == 1
        assert len(frames[0].payload) == 4

    def test_payload_bounds_hold(self):
        for size in (0, 1, 59, 60, 61, 512, 1024):
            for f in fragment(make_msg(b"q" * size), 0x10, 3):
                assert 4 <= len(f.payload) <= 64

    @given(st.binary(max_size=1024))
    @settings(max_examples=200)
    def test_round_trip(self, body):
        msg = make_msg(body)
        assert reassemble(fragment(msg, 0x20, 7)) == msg

    def test_reassemble_rejects_incomplete_or_mixed_sets(self):
        frames = fragment(make_msg(b"x" * 200), 0x10, 1)
        with pytest.raises(ValueError):
            reassemble(frames[:-1])
        other = fragment(make_msg(b"y" * 200), 0x10, 2)
        with pytest.raises(ValueError):
            reassemble(frames[:-1] + [other[-1]])
        with pytest.raises(ValueError):
            reassemble(frames[:-1] + [frames[0]])   # duplicated index
        with pytest.raises(ValueError):
            reassemble([])


class TestFrameTiming:
    def frame(self, payload_len: int) -> CanFdFrame:
        return CanFdFrame(can_id=1, payload=b"\x00" * payload_len, kind=None,
                          sender=0, receiver=None, origin=0)

    def test_full_frame_at_1mbps(self):
        assert frame_time_us(self.frame(64), BusConfig()) == 640

    def test_overhead_only(self):
        assert frame_time_us(self.frame(0), BusConfig()) == 128

    def test_halving_bitrate_doubles_time(self):
        fast = frame_time_us(self.frame(64), BusConfig(bitrate_bps=1_000_000))
        slow = frame_time_us(self.frame(64), BusConfig(bitrate_bps=500_000))
        assert slow == 2 * fast

    def test_rounding_is_upward(self):
        # 192 bits at 7 Mbit/s is 27.43 us on the wire
        assert frame_time_us(self.frame(8), BusConfig(bitrate_bps=7_000_000)) == 28

    def test_bitrate_envelope_enforced(self):
        with pytest.raises(ConfigError):
            BusConfig(bitrate_bps=1_000)
        with pytest.raises(ConfigError):
            BusConfig(bitrate_bps=100_000_000)


class TestArbitration:
    def build_two_node_net(self, toy, id_a, id_b, bitrate_bps=1_000_000):
        rng = Random(0)
        net = Network(BusConfig(bitrate_bps), LATENCY_PRESETS["stm32"])
        kp_a, kp_b = kem.keygen(toy, 0, rng), kem.keygen(toy, 1, rng)
        net.add_ecu(Ecu(toy, kp_a), can_id=id_a)
        net.add_ecu(Ecu(toy, kp_b), can_id=id_b)
        return net

    def test_lowest_id_wins_and_loser_queues(self, toy):
        net = self.build_two_node_net(toy, id_a=9, id_b=5)
        net.schedule_data_frame(0)     # can_id 9
        net.schedule_data_frame(1)     # can_id 5
        net.run_to_quiescence()
        assert [(f.timestamp_us, f.can_id) for f in net.sent] == [(0, 5), (192, 9)]

    def test_fifo_within_equal_priority(self, toy):
        net = self.build_two_node_net(toy, id_a=5, id_b=9)
        net.schedule_data_frame(0)
        net.schedule_data_frame(0)
        net.run_to_quiescence()
        assert [f.timestamp_us for f in net.sent] == [0, 192]

    def test_fifo_by_readiness_not_by_scheduling(self, toy):
        # A data frame holds the bus for 1536 us at 125 kbit/s. Two forged
        # frames under the one adversary id become ready behind it, in the
        # opposite order to the one they were scheduled in.
        net = self.build_two_node_net(toy, id_a=5, id_b=9, bitrate_bps=125_000)
        net.schedule_data_frame(0)
        for body, at_us in ((b"late", 1000), (b"early", 500)):
            net.forge(make_msg(body), at_us)
        net.run_to_quiescence()
        assert [f.payload[4:] for f in net.sent[1:]] == [b"early", b"late"]
        assert net.sent[1].timestamp_us == 1536


class TestDeliveryAndDeterminism:
    def test_every_unit_receives_its_messages(self, toy):
        report = run_scenario(ScenarioConfig(group="toy23", n_ecus=4))
        assert report.converged == {"pairwise": True, "group_secret": True,
                                    "session": True}
        # one frame per pairwise/seed message, two per group-secret message
        assert report.frames == 4 * 1 + 4 * 2 + 1

    def test_handlers_see_each_frame_once(self, toy):
        rng = Random(3)
        kp = kem.keygen(toy, 0, rng)
        secu = Secu(toy, [(0, kp.public)])
        ecu = Ecu(toy, kp)
        seen = []
        original = ecu.handle
        ecu.handle = lambda msg: (seen.append(msg), original(msg))[1]
        net = Network(BusConfig(), LATENCY_PRESETS["stm32"])
        net.add_secu(secu)
        net.add_ecu(ecu)
        net.schedule_protocol_send(SECU_ID, secu.run_phase2(rng))
        net.run_to_quiescence()
        assert len(seen) == 1
        assert seen[0].kind is MsgKind.PAIRWISE_CIPHER

    def test_unicast_kinds_reach_only_their_receiver(self, monkeypatch):
        # Pairwise ciphertexts and group secrets go to their receiver alone,
        # so no handler sees one only to ignore it; seeds still reach every
        # other node, the SECU included.
        handled = []
        for cls in (Ecu, Secu):
            def handle(self, msg, original=cls.handle):
                outcome = original(self, msg)
                handled.append((msg.kind.value, msg.receiver,
                                getattr(self, "ecu_id", SECU_ID),
                                outcome.disposition.value))
                return outcome
            monkeypatch.setattr(cls, "handle", handle)
        run_scenario(ScenarioConfig(group="toy23", n_ecus=3))
        accepted = Disposition.ACCEPTED.value
        assert sorted(h for h in handled if h[0] != "seed_broadcast") == [
            (kind, i, i, accepted)
            for kind in ("group_secret", "pairwise_cipher") for i in range(3)]
        # Unit 0 sends the seed; units 1 and 2 and the SECU accept it.
        assert sorted(h for h in handled if h[0] == "seed_broadcast") == [
            ("seed_broadcast", None, node, accepted) for node in (SECU_ID, 1, 2)]

    def test_identical_runs_are_identical(self):
        cfg = ScenarioConfig(group="toy23", n_ecus=3, rng_seed=42, post_ticks=7,
                             ctr_max=2)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_seed_changes_run_content_but_not_timing(self):
        a = run_scenario(ScenarioConfig(group="toy23", n_ecus=2, rng_seed=1))
        b = run_scenario(ScenarioConfig(group="toy23", n_ecus=2, rng_seed=2))
        assert a.phase_times == b.phase_times
        assert a.rng_seed != b.rng_seed


class TestTimingModel:
    def test_toy_two_unit_phase_times_match_hand_computation(self):
        # stm32, toy23, N=2. Pairwise msg: 6-byte payload = 176 us on the
        # wire; group msg: 64+8 byte payloads = 832 us; seed: 52 bytes =
        # 544 us. Phase 2: 3000 (encap) + 3000 + 176 (last tx) + 3000
        # (decap) = 9176. Phase 3: 380 + 2*832 + 380 = 2424. Phase 4:
        # 640 + 544 + 640 = 1824.
        report = run_scenario(ScenarioConfig(group="toy23", n_ecus=2))
        elapsed = {k: v["elapsed_us"] for k, v in report.phase_times.items()}
        assert elapsed == {"pairwise": 9176, "group_secret": 2424,
                           "session": 1824}

    def test_phase_end_times_are_monotone(self):
        report = run_scenario(ScenarioConfig(group="toy23", n_ecus=5))
        ends = [report.phase_times[p]["end_us"]
                for p in ("pairwise", "group_secret", "session")]
        assert ends == sorted(ends)
        assert all(v["elapsed_us"] >= 0 for v in report.phase_times.values())

    def test_compute_bound_profile_scales_with_asymmetric_cost(self):
        fast = run_scenario(ScenarioConfig(group="toy23", n_ecus=2))
        slow = run_scenario(ScenarioConfig(group="toy23", n_ecus=2,
                                           latency_profile="uno"))
        assert slow.phase_times["pairwise"]["elapsed_us"] > \
            1000 * fast.phase_times["pairwise"]["elapsed_us"]


class TestTrace:
    def test_trace_csv_layout(self, tmp_path):
        out = tmp_path / "trace.csv"
        run_scenario(ScenarioConfig(group="toy23", n_ecus=2),
                     trace_path=str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "timestamp_us,can_id,frag,payload_hex"
        assert len(lines) == 1 + 7     # 2 + 4 + 1 frames
        first = lines[1].split(",")
        assert first[1] == "0x010"
        assert first[2] == "1:0/1"
        int(first[0])
        bytes.fromhex(first[3])
        stamps = [int(line.split(",")[0]) for line in lines[1:]]
        assert stamps == sorted(stamps)

    def test_data_frames_marked_in_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        run_scenario(ScenarioConfig(group="toy23", n_ecus=2, ctr_max=1,
                                    post_ticks=3), trace_path=str(out))
        frags = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
        assert frags.count("data") == 3
