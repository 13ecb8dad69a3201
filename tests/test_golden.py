"""Golden digests: the SHA-256 of ``report.to_json()`` and of the trace CSV
for small honest and adversarial runs, and of ``canvault keygen`` files. A
refactor or speed-up that changes any simulated number, rejection, timing,
frame or keyfile byte changes one of these digests."""

import hashlib

import pytest

from canvault import cli
from canvault.harness import ScenarioConfig, run_scenario


def _adversary(**entry):
    return {"group": "toy23", "n_ecus": 3, "adversary": [entry]}


GOLDEN = {
    "honest_toy23_n4": (
        {"group": "toy23", "n_ecus": 4},
        "547e210b3a737e1b09426d354232ef86c8c295b69dbbbbe4bf49bd4e630498e6"),
    "honest_schnorr256_n2": (
        {"group": "schnorr256", "n_ecus": 2},
        "054fd24b88a2f42cd444185d25d61214474ec8608138e5ca27371d73f396c46e"),
    # The paper's size on the 2048-bit group, honest: keying_schnorr256's
    # report in perfbench, and the bare-runtime CLI run of tests/test_cli.py.
    "honest_schnorr256_n35": (
        {"group": "schnorr256", "n_ecus": 35},
        "afd02025f3847041b08f6823635fa9628f9eacf4381f377560003275433385bb"),
    "refresh_toy23_n3": (
        {"group": "toy23", "n_ecus": 3, "post_ticks": 20, "ctr_max": 2},
        "1f4795cdcbfddb87decad3148bb593484d7cc4a82c4fd56777db8917095ee5c2"),
    "tamper_pairwise": (
        _adversary(action="tamper", target="pairwise_cipher", occurrence=1,
                   bit=9),
        "9dd9be551f8b3fa9565a83f5b89468f40f65951b2f45e74ae7d3f35f3c58d354"),
    "tamper_group_secret": (
        _adversary(action="tamper", target="group_secret", occurrence=1,
                   bit=100),
        "16b4f9a31fd967a71de9c2eec19ef0b317162e526232b5e5a32045476c7e7fe6"),
    "replay_group_secret": (
        _adversary(action="replay", target="group_secret", occurrence=2),
        "d9e6d104d95e97f9cbb1ca7f96ae14fb07c90b81bfb3ed2227fd608b764be73c"),
    "replay_seed_broadcast": (
        _adversary(action="replay", target="seed_broadcast", delay_us=500),
        "3fbc181b7aae16bf52b121e7d8ae03eb31192906ae1351a0715920cbc7b42427"),
    "forge_pairwise": (
        _adversary(action="forge", target="pairwise_cipher", receiver=0),
        "3c2f8fd52e91b3f574f8fb495787f963cb6b7934d57885f03e865641763e13a8"),
    "forge_seed_unicast": (
        _adversary(action="forge", target="seed_broadcast", receiver=1),
        "cb625388c558e3d45b069234ca6a7e807b5e33cf9e14504020e4a2a2b97860a7"),
    # The paper's size on the 2048-bit group under tampers, replays and
    # forgeries: forged bodies are drawn as 2048-bit elements and strings.
    "hostile_schnorr256_n35": (
        {"group": "schnorr256", "n_ecus": 35, "phase4_sender": 34,
         "adversary": [
             {"action": "tamper", "target": "pairwise_cipher",
              "occurrence": 8, "bit": 12},
             {"action": "tamper", "target": "pairwise_cipher",
              "occurrence": 9, "bit": 2060},
             {"action": "tamper", "target": "group_secret",
              "occurrence": 6, "bit": 12},
             {"action": "replay", "target": "pairwise_cipher", "occurrence": 12},
             {"action": "replay", "target": "group_secret", "occurrence": 14},
             {"action": "replay", "target": "seed_broadcast"},
             *({"action": "forge", "target": "pairwise_cipher", "receiver": i}
               for i in range(20, 24)),
             {"action": "forge", "target": "group_secret", "receiver": 24}]},
        "e8726ec2cb0934c75e73228f521ee3efa5a0a7ecb916e7a02f83b87d9a6cd878"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest_is_pinned(name):
    raw, digest = GOLDEN[name]
    report = run_scenario(ScenarioConfig.from_dict(raw))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def test_schnorr256_digest_on_builtin_pow(builtin_pow):
    test_report_digest_is_pinned("honest_schnorr256_n2")


# SHA-256 of the ``trace_path`` CSV: one row per frame sent, adversary
# frames, replay copies and data frames included.
GOLDEN_TRACES = {
    "refresh_toy23_n3": (
        GOLDEN["refresh_toy23_n3"][0],
        "483d29c5029c397b10f97e1b3279aec8d8cdde143dbef287f07e529adbc406a1"),
    "hostile_toy23_n3": (
        {"group": "toy23", "n_ecus": 3, "phase4_sender": 2, "post_ticks": 5,
         "adversary": [
             {"action": "tamper", "target": "pairwise_cipher",
              "occurrence": 1, "bit": 9},
             {"action": "replay", "target": "group_secret", "occurrence": 2},
             {"action": "replay", "target": "seed_broadcast", "delay_us": 500},
             {"action": "forge", "target": "pairwise_cipher", "receiver": 0},
             {"action": "forge", "target": "seed_broadcast", "receiver": 1}]},
        "9f3416b03707ef4ab31f439719b2c854dc44d866cc01bb48143534a5fba2e4be"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_trace_csv_digest_is_pinned(name, tmp_path):
    raw, digest = GOLDEN_TRACES[name]
    path = tmp_path / "trace.csv"
    run_scenario(ScenarioConfig.from_dict(raw), trace_path=str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# SHA-256 of ``canvault keygen <group> <n> --seed 0``: the keyfile text of
# exponents and elements.
GOLDEN_KEYFILES = {
    ("toy23", 4):
        "54e7a66773bd65cc07571dadda3c9ef6fc52337f1e52ed7afaaba610285f349a",
    ("schnorr256", 2):
        "53d90043052ff5ec2424bd2f8fd2bf2b4492a9a1104d295019805b99ed07cd8f",
}


@pytest.mark.parametrize("group, n", sorted(GOLDEN_KEYFILES))
def test_keyfile_digest_is_pinned(group, n, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    path = tmp_path / "params.json"
    assert cli.main(["keygen", group, str(n), "--seed", "0", "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_KEYFILES[group, n]
