"""Workload definitions and output checks for the canvault host-time benchmark.

Each workload is one scenario config, run back to back by a single client.
The workload seed becomes the config's ``rng_seed``; nothing else varies with
the seed, so host time measures the same work on every seed while the report
bytes differ.

Every workload also has a toy-scale shape (toy23, two units, a few ticks)
with the same structure, which the self-test runs in well under a second.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from canvault.protocol import MsgKind, body_length

FRAGMENT_DATA_BYTES = 60    # CAN-FD payload of 64 bytes minus the 4-byte header
REJECTION_REASONS = frozenset({"decode", "consistency", "mac", "replay", "state"})

# Occurrence numbers count forged messages too (Network._send_message bumps
# the per-kind counter for them), and forgeries are sent before phase 2 starts:
# the four forged pairwise ciphers take pairwise occurrences 0-3 and the forged
# group secret takes group_secret occurrence 0. So pairwise occurrences 8 and 9
# hit units 4 and 5, group_secret occurrence 6 hits unit 5 again, the pairwise
# replay re-delivers unit 8's cipher (accepted again, no rejection) and the
# group_secret replay re-delivers unit 13's. Unit 34 sends the seed; it is
# untouched, so the session phase never stalls.
_HOSTILE = [
    {"action": "tamper", "target": "pairwise_cipher", "occurrence": 8, "bit": 12},
    {"action": "tamper", "target": "pairwise_cipher", "occurrence": 9, "bit": 2060},
    {"action": "tamper", "target": "group_secret", "occurrence": 6, "bit": 12},
    {"action": "replay", "target": "pairwise_cipher", "occurrence": 12},
    {"action": "replay", "target": "group_secret", "occurrence": 14},
    {"action": "replay", "target": "seed_broadcast"},
    {"action": "forge", "target": "pairwise_cipher", "receiver": 20},
    {"action": "forge", "target": "pairwise_cipher", "receiver": 21},
    {"action": "forge", "target": "pairwise_cipher", "receiver": 22},
    {"action": "forge", "target": "pairwise_cipher", "receiver": 23},
    {"action": "forge", "target": "group_secret", "receiver": 24},
]

# Same five reasons at two units: the forged cipher and the late forged group
# secret hit unit 0, bit 7 of unit 1's ephemeral byte lifts it past the toy
# modulus (decode), so unit 1 is left without keys (state).
_HOSTILE_TOY = [
    {"action": "forge", "target": "pairwise_cipher", "receiver": 0},
    {"action": "forge", "target": "group_secret", "receiver": 0, "at_us": 100_000},
    {"action": "tamper", "target": "pairwise_cipher", "occurrence": 2, "bit": 7},
    {"action": "replay", "target": "seed_broadcast"},
]


@dataclass(frozen=True)
class Workload:
    config: dict
    toy_config: dict
    # SHA-256 of report.to_json() at the pinned seed, per scale
    digest: str
    toy_digest: str
    reasons: frozenset = field(default_factory=frozenset)

    @property
    def honest(self) -> bool:
        return not self.config.get("adversary")


PINNED_SEED = 0

WORKLOADS = {
    # The paper's size on the production group; ~94% of host time is 2048-bit
    # pow, so this isolates group and kem on the honest path.
    "keying_schnorr256": Workload(
        config={"group": "schnorr256", "n_ecus": 35},
        toy_config={"group": "toy23", "n_ecus": 2},
        digest="afd02025f3847041b08f6823635fa9628f9eacf4381f377560003275433385bb",
        toy_digest="ba24c13920270ac3636c8f549b26c38a3ab44a2b6af285f5a74e60ed4cc927b9"),
    # Same layers on the reject path: a speed-up to honest decapsulation that
    # costs rejection shows here.
    "hostile_schnorr256": Workload(
        config={"group": "schnorr256", "n_ecus": 35, "phase4_sender": 34,
                "adversary": _HOSTILE},
        toy_config={"group": "toy23", "n_ecus": 2, "phase4_sender": 0,
                    "adversary": _HOSTILE_TOY},
        digest="e8726ec2cb0934c75e73228f521ee3efa5a0a7ecb916e7a02f83b87d9a6cd878",
        toy_digest="5c163fb6403f62823aee886033978c9a9595f705159c3f35edad113feb093b73",
        reasons=REJECTION_REASONS),
    # Trivial crypto; every node buffers and reassembles every unicast
    # fragment set, so bus delivery and protocol ignore paths grow as N^2.
    "fanout_toy23": Workload(
        config={"group": "toy23", "n_ecus": 500},
        toy_config={"group": "toy23", "n_ecus": 2},
        digest="73aabe3b7f5a9572b18feaa5e8f3473d93a286f5d4d25b40d7c9637e312a2320",
        toy_digest="ba24c13920270ac3636c8f549b26c38a3ab44a2b6af285f5a74e60ed4cc927b9"),
    # Event loop, data-frame path and silent rotation (phase 5): 3.5M counter
    # ticks and 390 rounds.
    "refresh_toy23": Workload(
        config={"group": "toy23", "n_ecus": 35, "post_ticks": 100_000,
                "ctr_max": 255},
        toy_config={"group": "toy23", "n_ecus": 2, "post_ticks": 8,
                    "ctr_max": 2},
        digest="d0b064404861a252b373a0648e73b61d17d6ad3fd2fc5cad699b8b570c3ccd8f",
        toy_digest="ba76f96e5fae8f340516380551f301f505a6b0593cc7f8202f276979b0c0a17a"),
}


def scenario_dict(name: str, seed: int, toy: bool = False) -> dict:
    """The raw scenario config of a workload for one seed."""
    wl = WORKLOADS[name]
    return dict(wl.toy_config if toy else wl.config, rng_seed=seed)


def report_digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def honest_frames(group, n: int) -> int:
    """Closed-form frame count of an honest run: N pairwise ciphers, N group
    secrets and one seed broadcast, each split into 60-byte fragments."""
    counts = {MsgKind.PAIRWISE_CIPHER: n, MsgKind.GROUP_SECRET: n,
              MsgKind.SEED_BROADCAST: 1}
    return sum(count * max(1, -(-body_length(group, kind) // FRAGMENT_DATA_BYTES))
               for kind, count in counts.items())


def check_report(name: str, raw: dict, report, group, toy: bool = False) -> list[str]:
    """Problems with one run's report; an empty list means it is correct.

    At the pinned seed the report must match its digest byte for byte; at any
    seed it must satisfy the invariants below.
    """
    wl = WORKLOADS[name]
    problems = []
    pinned = wl.toy_digest if toy else wl.digest
    if raw["rng_seed"] == PINNED_SEED and report_digest(report) != pinned:
        problems.append(f"report digest {report_digest(report)} != pinned {pinned}")
    failed = sorted(k for k, ok in report.checks.items() if not ok)
    if failed:
        problems.append(f"run checks failed: {failed}")
    n = raw["n_ecus"]
    if report.logical_messages != 2 * n + 1:
        problems.append(f"{report.logical_messages} logical messages, want {2 * n + 1}")
    if wl.honest and report.frames != honest_frames(group, n):
        problems.append(f"{report.frames} frames, want {honest_frames(group, n)}")
    if report.data_frames != raw.get("post_ticks", 0):
        problems.append(f"{report.data_frames} data frames, want {raw.get('post_ticks', 0)}")
    missing = wl.reasons - {r["reason"] for r in report.rejections}
    if missing:
        problems.append(f"expected rejection reasons missing: {sorted(missing)}")
    return problems
