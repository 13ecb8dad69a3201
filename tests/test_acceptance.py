"""Acceptance suite: the project's release gates, one test per criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or on failure)
and enforces its stated tolerance exactly; none of the bounds here are
calibrated after the fact.
"""

from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from canvault import kem, primitives
from canvault.errors import ConsistencyError
from canvault.group import get_group
from canvault.harness import ScenarioConfig, comparison_ratios, run_scenario
from canvault.protocol import Ecu, Secu, WireMessage
from support import affine_fit, elements


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {label}: PASS")


def test_01_message_budget_is_exactly_2n_plus_1():
    with criterion(1, "message budget 2N+1"):
        for n in (1, 15, 25, 35):
            report = run_scenario(ScenarioConfig(group="toy23", n_ecus=n))
            assert report.logical_messages == 2 * n + 1
        report = run_scenario(ScenarioConfig(group="schnorr256", n_ecus=2))
        assert report.logical_messages == 5


def test_02_comparison_ratios_at_worst_case():
    with criterion(2, "worst-case comparison ratios"):
        vs_carvajal, vs_musuroi = comparison_ratios(35)
        assert vs_carvajal == Fraction(71, 176)
        assert vs_musuroi == Fraction(71, 276)
        assert abs(100 * float(vs_carvajal) - 40.34) <= 0.01
        assert abs(100 * float(vs_musuroi) - 25.72) <= 0.01


def test_03_kem_round_trip_correctness():
    with criterion(3, "KEM key agreement, exhaustive + randomized"):
        toy = get_group("toy23")

        class Scripted:
            def __init__(self, vals):
                self.vals = list(vals)

            def randrange(self, *_):
                return self.vals.pop(0)

        for x in range(1, toy.order):
            for y in range(1, toy.order):
                kp = kem.keygen(toy, 0, Scripted([x, y]))
                for r in range(1, toy.order):
                    key, ct = kem.encapsulate(toy, kp.public, Scripted([r]))
                    assert kem.decapsulate(toy, kp, ct) == key

        big = get_group("schnorr256")
        rng = Random(2025)
        for _ in range(1000):
            kp = kem.keygen(big, 0, rng)
            key, ct = kem.encapsulate(big, kp.public, rng)
            assert kem.decapsulate(big, kp, ct) == key


def test_04_consistency_check_matches_brute_force_oracle():
    with criterion(4, "consistency check equals brute-force predicate"):
        toy = get_group("toy23")
        members = elements(toy)

        class Scripted:
            def __init__(self, vals):
                self.vals = list(vals)

            def randrange(self, *_):
                return self.vals.pop(0)

        for x in range(1, toy.order):
            for y in range(1, toy.order):
                kp = kem.keygen(toy, 0, Scripted([x, y]))
                for c in members:
                    t = primitives.hash_to_scalar(toy, c)
                    for binding in members:
                        oracle_ok = pow(
                            c.value, (x * t + y) % toy.order, toy.modulus) \
                            == binding.value
                        ct = kem.KemCiphertext(c, binding)
                        if oracle_ok:
                            kem.decapsulate(toy, kp, ct)
                        else:
                            with pytest.raises(ConsistencyError):
                                kem.decapsulate(toy, kp, ct)


def test_05_single_bit_tampering_always_rejected():
    with criterion(5, "tamper totality over sampled bit positions"):
        big = get_group("schnorr256")
        rng = Random(31337)
        keypairs = [kem.keygen(big, i, rng) for i in range(3)]
        secu = Secu(big, [(kp.ecu_id, kp.public) for kp in keypairs])
        phase2 = secu.run_phase2(rng)
        receivers = [Ecu(big, kp) for kp in keypairs]
        for msg, ecu in zip(phase2, receivers):
            assert ecu.handle(msg).accepted
        phase3 = secu.run_phase3(rng)
        for msg, ecu in zip(phase3, receivers):
            assert ecu.handle(msg).accepted
        seed_msg = receivers[0].run_phase4(rng)

        sample = Random(99)

        def flipped(body: bytes, bit: int) -> bytes:
            out = bytearray(body)
            out[bit // 8] ^= 1 << (bit % 8)
            return bytes(out)

        # pairwise ciphertexts: fresh unkeyed receiver per flip
        msg = phase2[0]
        for _ in range(200):
            bit = sample.randrange(len(msg.body) * 8)
            target = Ecu(big, keypairs[0])
            out = target.handle(WireMessage(msg.kind, msg.sender, msg.receiver,
                                            flipped(msg.body, bit)))
            assert out.rejected
            assert target.pairwise is None

        # wrapped group secrets: receiver holds only the pairwise key
        msg = phase3[0]
        for _ in range(200):
            bit = sample.randrange(len(msg.body) * 8)
            target = Ecu(big, keypairs[0])
            target.pairwise = secu.pairwise[0]
            out = target.handle(WireMessage(msg.kind, msg.sender, msg.receiver,
                                            flipped(msg.body, bit)))
            assert out.rejected
            assert target.group_secret is None

        # seed broadcasts: every holder of the group secret must reject
        for _ in range(200):
            bit = sample.randrange(len(seed_msg.body) * 8)
            mauled = WireMessage(seed_msg.kind, seed_msg.sender,
                                 seed_msg.receiver, flipped(seed_msg.body, bit))
            for kp in keypairs:
                target = Ecu(big, kp)
                target.group_secret = secu.group_secret
                out = target.handle(mauled)
                assert out.rejected
                assert target.session is None


def test_06_counter_refresh_is_silent_and_synchronized():
    with criterion(6, "silent synchronized session refresh"):
        base = dict(group="toy23", n_ecus=3, ctr_max=4, rng_seed=5)
        quiet = run_scenario(ScenarioConfig(**base))
        k = 4
        ticked = run_scenario(ScenarioConfig(**base, post_ticks=k * 5))
        assert ticked.refresh_events == k
        assert ticked.converged["session"]
        assert ticked.frames == quiet.frames        # no key-management frames
        assert ticked.data_frames == k * 5
        assert ticked.logical_messages == quiet.logical_messages


def test_07_phase_timings_within_reported_envelopes():
    with criterion(7, "timing bounds and linearity"):
        elapsed = {"pairwise": [], "group_secret": [], "session": []}
        totals = {}
        sizes = [2, 15, 25, 35]
        for n in sizes:
            report = run_scenario(ScenarioConfig(group="schnorr256", n_ecus=n))
            for phase, series in elapsed.items():
                series.append(report.phase_times[phase]["elapsed_us"])
            totals[n] = report.phase_times["session"]["end_us"] - \
                report.phase_times["pairwise"]["start_us"]
        assert elapsed["pairwise"][sizes.index(2)] <= 31_000
        assert elapsed["pairwise"][sizes.index(35)] <= 535_000
        assert totals[35] <= 614_000
        for series in elapsed.values():
            _, _, residual = affine_fit(sizes, series)
            assert residual < 0.01


def test_08_identical_configs_give_identical_reports():
    with criterion(8, "byte-identical reports under a fixed seed"):
        cfg = ScenarioConfig(group="schnorr256", n_ecus=2, rng_seed=404,
                             ctr_max=3, post_ticks=8)
        assert run_scenario(cfg).to_json() == run_scenario(cfg).to_json()


def test_09_primitives_pass_published_vectors():
    with criterion(9, "published test vectors for hash/MAC/KDF/cipher"):
        assert primitives.sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad")

        import hashlib
        import hmac as stdlib_hmac
        assert stdlib_hmac.new(bytes.fromhex("0b" * 20), b"Hi There",
                               hashlib.sha256).hexdigest() == (
            "b0344c61d8db38535ca8afceaf0bf12b"
            "881dc200c9833da726e9376c2e32cff7")
        key32 = bytes(range(32))
        assert primitives.hmac_tag(b"Hi There", key32) == \
            stdlib_hmac.new(key32, b"Hi There", hashlib.sha256).digest()

        prk = primitives.hkdf_extract(
            bytes.fromhex("000102030405060708090a0b0c"), bytes.fromhex("0b" * 22))
        assert prk.hex() == ("077709362c2e32df0ddc3f0dc47bba63"
                             "90b6c73bb50f9c3122ec844ad7c2b3e5")
        assert primitives.hkdf_expand(
            prk, bytes.fromhex("f0f1f2f3f4f5f6f7f8f9"), 42).hex() == (
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865")

        # FIPS-197 C.1 as CTR's first keystream block: the cipher of the nonce.
        assert primitives.sym_encrypt(
            bytes(16),
            bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
            bytes.fromhex("00112233445566778899aabbccddeeff"))[16:].hex() == (
            "69c4e0d86a7b0430d8cdb78070b4c55a")
        ctr_out = primitives.sym_encrypt(
            bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"),
            bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"),
            bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"))
        assert ctr_out[16:].hex() == "874d6191b620e3261bef6864990db6ce"
