"""State-machine tests: phases run by hand-delivering messages, no bus."""

import ast
import copy
import importlib
import inspect
import pkgutil
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import canvault
import canvault.protocol
from canvault import kem, primitives
from canvault.errors import ConsistencyError, DecodeError, StateError
from canvault.group import get_group
from canvault.protocol import (BROADCAST, DATA_FRAMES, MAC_LEN, MESSAGE_OPS,
                               ROTATION_OPS, SECU_ID, Disposition, Ecu, MsgKind,
                               Phase, Secu, WireMessage, body_length)
from support import decoded_as_members, mul, passes


@pytest.fixture(scope="module")
def toy():
    return get_group("toy23")


def build_nodes(toy, n, seed=0, ctr_max=65_535, cache=64):
    rng = Random(seed)
    keypairs = [kem.keygen(toy, i, rng) for i in range(n)]
    secu = Secu(toy, [(kp.ecu_id, kp.public) for kp in keypairs])
    ecus = [Ecu(toy, kp, ctr_max=ctr_max, replay_cache_size=cache)
            for kp in keypairs]
    return secu, ecus, rng


def deliver_all(msgs, ecus):
    """Hand each message to every unit whose acceptance filter passes it."""
    for msg in msgs:
        for ecu in ecus:
            if passes(ecu, msg):
                ecu.handle(msg)


def run_to_session(toy, n, seed=0, ctr_max=65_535):
    secu, ecus, rng = build_nodes(toy, n, seed, ctr_max=ctr_max)
    deliver_all(secu.run_phase2(rng), ecus)
    deliver_all(secu.run_phase3(rng), ecus)
    broadcast = ecus[0].run_phase4(rng)
    for ecu in ecus[1:]:
        ecu.handle(broadcast)
    secu.handle(broadcast)
    return secu, ecus, rng


class TestPhase2:
    def test_emits_one_message_per_unit(self, toy):
        secu, _, rng = build_nodes(toy, 2)
        msgs = secu.run_phase2(rng)
        assert len(msgs) == 2
        assert all(m.kind is MsgKind.PAIRWISE_CIPHER for m in msgs)
        assert [m.receiver for m in msgs] == [0, 1]
        assert secu.phase is Phase.PAIRWISE

    def test_bodies_decapsulate_to_stored_keys(self, toy):
        secu, ecus, rng = build_nodes(toy, 3)
        msgs = secu.run_phase2(rng)
        for msg, ecu in zip(msgs, ecus):
            ct = kem.decode_ciphertext(toy, msg.body)
            assert kem.decapsulate(toy, ecu.keypair, ct) == \
                secu.pairwise[ecu.ecu_id]

    def test_out_of_order_calls_raise(self, toy):
        secu, _, rng = build_nodes(toy, 2)
        with pytest.raises(StateError):
            secu.run_phase3(rng)
        secu.run_phase2(rng)
        with pytest.raises(StateError):
            secu.run_phase2(rng)

    def test_empty_registry_raises(self, toy):
        secu = Secu(toy, [])
        with pytest.raises(StateError):
            secu.run_phase2(Random(0))


class TestAcceptanceFilter:
    def test_unit_passes_its_own_unicasts_and_not_another_units(self, toy):
        secu, ecus, rng = build_nodes(toy, 3)
        pairwise = secu.run_phase2(rng)
        deliver_all(pairwise[:1], ecus)
        assert [e.pairwise for e in ecus] == [secu.pairwise[0], None, None]
        deliver_all(pairwise[1:], ecus)
        for msg in pairwise + secu.run_phase3(rng):
            assert [passes(e, msg) for e in ecus] == \
                [e.ecu_id == msg.receiver for e in ecus]
            assert not passes(secu, msg)

    def test_every_node_passes_a_seed_whatever_its_receiver(self, toy):
        secu, ecus, _ = build_nodes(toy, 2)
        for receiver in (BROADCAST, SECU_ID, 0, 1, 99):
            seed = WireMessage(MsgKind.SEED_BROADCAST, 0, receiver, b"")
            assert all(passes(node, seed) for node in [secu, *ecus])

    def test_units_listen_to_data_frames_and_the_secu_does_not(self, toy):
        secu, ecus, _ = build_nodes(toy, 2)
        assert all(DATA_FRAMES in e.streams for e in ecus)
        assert DATA_FRAMES not in secu.streams


class TestOutcomeOps:
    """A handled message costs its kind's op list, read when handled; only
    the SECU's ignoring of a seed outside phase 3 is free."""

    def test_acceptance_and_rejection_cost_the_kind_ops(self, toy):
        secu, ecus, rng = build_nodes(toy, 1)
        msg = secu.run_phase2(rng)[0]
        assert ecus[0].handle(msg).ops == MESSAGE_OPS[MsgKind.PAIRWISE_CIPHER]
        group_msg = secu.run_phase3(rng)[0]
        fresh = Ecu(toy, ecus[0].keypair)
        out = fresh.handle(group_msg)
        assert out.reason == "state"
        assert out.ops == MESSAGE_OPS[MsgKind.GROUP_SECRET]

    def test_secu_ignores_a_seed_for_free_outside_phase3(self, toy):
        secu, ecus, rng = run_to_session(toy, 2)
        out = secu.handle(ecus[1].run_phase4(rng))
        assert out.disposition is Disposition.IGNORED and out.ops == ()

    def test_ops_follow_a_patched_list(self, toy, monkeypatch):
        secu, ecus, rng = build_nodes(toy, 1)
        monkeypatch.setitem(MESSAGE_OPS, MsgKind.PAIRWISE_CIPHER, ("sha",))
        assert ecus[0].handle(secu.run_phase2(rng)[0]).ops == ("sha",)


class TestEcuPairwiseHandling:
    def test_honest_message_stores_matching_key(self, toy):
        secu, ecus, rng = build_nodes(toy, 2)
        msgs = secu.run_phase2(rng)
        out = ecus[0].handle(msgs[0])
        assert out.accepted
        assert ecus[0].pairwise == secu.pairwise[0]

    def test_tampered_binding_rejected_exhaustively(self, toy):
        """Multiplying the binding element by any generator power breaks it."""
        secu, ecus, rng = build_nodes(toy, 1)
        msg = secu.run_phase2(rng)[0]
        ct = kem.decode_ciphertext(toy, msg.body)
        for k in range(1, toy.order):
            bad = kem.KemCiphertext(
                ct.ephemeral, mul(toy, ct.binding, toy.exp(toy.generator, k)))
            mauled = WireMessage(msg.kind, msg.sender, msg.receiver,
                                 kem.encode_ciphertext(toy, bad))
            out = ecus[0].handle(mauled)
            assert out.rejected and out.reason == "consistency"
            assert ecus[0].pairwise is None

    def test_non_member_bytes_rejected_as_decode(self, toy):
        secu, ecus, rng = build_nodes(toy, 1)
        msg = secu.run_phase2(rng)[0]
        mauled = WireMessage(msg.kind, msg.sender, msg.receiver, bytes([5, 7]))
        out = ecus[0].handle(mauled)
        assert out.rejected and out.reason == "decode"
        assert ecus[0].pairwise is None


def received(group, keypair, body):
    """(disposition, reason, stored key) of a fresh unit handed ``body``."""
    ecu = Ecu(group, keypair)
    out = ecu.handle(WireMessage(MsgKind.PAIRWISE_CIPHER, SECU_ID,
                                 keypair.ecu_id, body))
    return out.disposition.value, out.reason, ecu.pairwise


def decoded_then_decapsulated(group, keypair, body):
    """The same triple from decoding both elements as members first, then
    decapsulating."""
    try:
        ct = decoded_as_members(group, body)
    except DecodeError:
        return "rejected", "decode", None
    try:
        key = kem.decapsulate(group, keypair, ct)
    except ConsistencyError:
        return "rejected", "consistency", None
    return "accepted", None, key


BIG = get_group("schnorr256")
P = BIG.modulus

# Edits of an honest (c, binding) and the reason each must give; gk is g^k
# for some 0 < k < order.
CIPHER_EDITS = {
    "honest": (lambda c, b, gk: (c, b), None),
    "binding_times_gk": (lambda c, b, gk: (c, b * gk % P), "consistency"),
    "binding_non_member": (lambda c, b, gk: (c, P - 1), "decode"),
    "binding_zero": (lambda c, b, gk: (c, 0), "decode"),
    "binding_p": (lambda c, b, gk: (c, P), "decode"),
    "binding_above_p": (lambda c, b, gk: (c, 2 ** 2048 - 1), "decode"),
    "c_non_member": (lambda c, b, gk: (P - 1, b), "decode"),
    "c_zero": (lambda c, b, gk: (0, b), "decode"),
}


class TestReceivePathEquivalence:
    """The unit checks c's membership, then only the binding's range before
    the binding check, and the binding's membership only on a mismatch. Its
    disposition, reason and key must equal decoding both elements as members
    first."""

    def test_every_small_body_on_toy23(self, toy):
        rng = Random(3)
        bodies = [bytes([c, b]) for c in range(32) for b in range(32)]
        bodies += [b"", b"\x02", b"\x02\x03\x04"]
        seen = set()
        for kp in [kem.keygen(toy, i, rng) for i in range(3)]:
            for body in bodies:
                got = received(toy, kp, body)
                assert got == decoded_then_decapsulated(toy, kp, body), body
                seen.add(got[:2])
        assert seen == {("accepted", None), ("rejected", "decode"),
                        ("rejected", "consistency")}

    @pytest.mark.parametrize("edit", sorted(CIPHER_EDITS))
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32),
           k=st.integers(min_value=1, max_value=BIG.order - 1))
    def test_edited_ciphertexts_on_schnorr256(self, seed, edit, k):
        rng = Random(seed)
        kp = kem.keygen(BIG, 0, rng)
        key, ct = kem.encapsulate(BIG, kp.public, rng)
        change, reason = CIPHER_EDITS[edit]
        c, b = change(ct.ephemeral.value, ct.binding.value,
                      BIG.exp(BIG.generator, k).value)
        body = c.to_bytes(BIG.element_len, "big") + b.to_bytes(BIG.element_len, "big")
        got = received(BIG, kp, body)
        assert got == decoded_then_decapsulated(BIG, kp, body)
        if reason is None:
            assert got == ("accepted", None, key)
        else:
            assert got == ("rejected", reason, None)


@pytest.mark.usefixtures("builtin_pow")
class TestReceivePathEquivalenceUnderBuiltinPow(TestReceivePathEquivalence):
    """The same equivalence with every group power on builtin ``pow``."""


class TestPhase3:
    def test_emits_n_messages_all_unwrap_to_same_secret(self, toy):
        secu, ecus, rng = build_nodes(toy, 15)
        deliver_all(secu.run_phase2(rng), ecus)
        msgs = secu.run_phase3(rng)
        assert len(msgs) == 15
        deliver_all(msgs, ecus)
        assert all(e.group_secret == secu.group_secret for e in ecus)
        assert secu.phase is Phase.GROUP_SECRET

    def test_distinct_nonces_make_bodies_distinct(self, toy):
        secu, ecus, rng = build_nodes(toy, 10)
        deliver_all(secu.run_phase2(rng), ecus)
        msgs = secu.run_phase3(rng)
        bodies = {m.body for m in msgs}
        nonces = {m.body[:16] for m in msgs}
        assert len(bodies) == len(nonces) == 10

    def test_bit_flip_sweep_rejected(self, toy):
        secu, ecus, rng = build_nodes(toy, 1)
        deliver_all(secu.run_phase2(rng), ecus)
        msg = secu.run_phase3(rng)[0]
        flip_rng = Random(99)
        for _ in range(200):
            bit = flip_rng.randrange(len(msg.body) * 8)
            body = bytearray(msg.body)
            body[bit // 8] ^= 1 << (bit % 8)
            fresh = Ecu(toy, ecus[0].keypair)
            fresh.pairwise = ecus[0].pairwise
            out = fresh.handle(WireMessage(msg.kind, msg.sender, msg.receiver,
                                           bytes(body)))
            assert out.rejected and out.reason == "mac"
            assert fresh.group_secret is None

    def test_duplicate_discarded_via_replay_cache(self, toy):
        secu, ecus, rng = build_nodes(toy, 1)
        deliver_all(secu.run_phase2(rng), ecus)
        msg = secu.run_phase3(rng)[0]
        assert ecus[0].handle(msg).accepted
        out = ecus[0].handle(msg)
        assert out.rejected and out.reason == "replay"

    def test_without_pairwise_key_rejected_as_state(self, toy):
        secu, ecus, rng = build_nodes(toy, 1)
        secu.run_phase2(rng)    # not delivered
        msg = secu.run_phase3(rng)[0]
        out = ecus[0].handle(msg)
        assert out.rejected and out.reason == "state"


class TestPhase4:
    def test_single_broadcast_converges_everyone(self, toy):
        secu, ecus, rng = build_nodes(toy, 5)
        deliver_all(secu.run_phase2(rng), ecus)
        deliver_all(secu.run_phase3(rng), ecus)
        msg = ecus[0].run_phase4(rng)
        assert msg.kind is MsgKind.SEED_BROADCAST
        assert msg.receiver is BROADCAST
        for ecu in ecus[1:]:
            assert ecu.handle(msg).accepted
        keys = {e.session.session_key for e in ecus}
        assert len(keys) == 1
        assert all(e.session.round_index == 0 and e.session.counter == 0
                   for e in ecus)

    def test_secu_observes_broadcast_and_finishes(self, toy):
        secu, ecus, _ = run_to_session(toy, 2)
        assert secu.phase is Phase.DONE

    def test_requires_group_secret(self, toy):
        _, ecus, rng = build_nodes(toy, 1)
        with pytest.raises(StateError):
            ecus[0].run_phase4(rng)

    def test_fresh_seeds_give_fresh_session_keys(self, toy):
        _, ecus_a, _ = run_to_session(toy, 2, seed=1)
        _, ecus_b, _ = run_to_session(toy, 2, seed=2)
        assert ecus_a[0].session.session_key != ecus_b[0].session.session_key

    def test_forged_seeds_rejected(self, toy):
        secu, ecus, rng = build_nodes(toy, 3)
        deliver_all(secu.run_phase2(rng), ecus)
        deliver_all(secu.run_phase3(rng), ecus)
        forge_rng = Random(123)
        for _ in range(1000):
            body = forge_rng.randbytes(body_length(toy, MsgKind.SEED_BROADCAST))
            forged = WireMessage(MsgKind.SEED_BROADCAST, 0, BROADCAST, body)
            for ecu in ecus:
                out = ecu.handle(forged)
                assert out.rejected and out.reason == "mac"
                assert ecu.session is None

    def test_replayed_broadcast_hits_cache_everywhere(self, toy):
        secu, ecus, rng = build_nodes(toy, 3)
        deliver_all(secu.run_phase2(rng), ecus)
        deliver_all(secu.run_phase3(rng), ecus)
        msg = ecus[0].run_phase4(rng)
        for ecu in ecus[1:]:
            ecu.handle(msg)
        # replayed copy: every unit, including the original sender, discards
        for ecu in ecus:
            out = ecu.handle(msg)
            assert out.rejected and out.reason == "replay"

    def test_a_deep_copy_refuses_the_same_replay_with_its_own_cache(self, toy):
        secu, ecus, rng = build_nodes(toy, 2)
        deliver_all(secu.run_phase2(rng), ecus)
        deliver_all(secu.run_phase3(rng), ecus)
        msg = ecus[0].run_phase4(rng)
        unit = ecus[1]
        assert unit.handle(msg).accepted
        twin = copy.deepcopy(unit)
        for node in (unit, twin):
            out = node.handle(msg)
            assert out.rejected and out.reason == "replay"
        held = list(unit.replay_cache)
        twin.replay_cache.append(b"only the copy's")
        assert list(unit.replay_cache) == held

    def test_before_group_secret_rejected_as_state(self, toy):
        secu, ecus, rng = build_nodes(toy, 2)
        deliver_all(secu.run_phase2(rng), ecus)
        deliver_all(secu.run_phase3(rng), [ecus[0]])
        msg = ecus[0].run_phase4(rng)
        out = ecus[1].handle(msg)
        assert out.rejected and out.reason == "state"
        assert ecus[1].session is None


def _flip(body, index):
    edited = bytearray(body)
    edited[index] ^= 1
    return bytes(edited)


def _state(node):
    """What a refused message must leave as it was."""
    if isinstance(node, Secu):
        return node.phase, node.group_secret
    session = node.session and (node.session.session_key, node.session.round_index)
    return node.pairwise, node.group_secret, session, len(node.replay_cache)


def _refusal(toy, path, case):
    """The node and the message of one refusal-order row. The node is keyed
    for the message; a ``cached`` case has it accept the honest copy first."""
    secu, ecus, rng = build_nodes(toy, 3)
    deliver_all(secu.run_phase2(rng), ecus)
    group_msgs = secu.run_phase3(rng)
    deliver_all(group_msgs[:2], ecus)       # unit 2 holds the pairwise secret only
    seed = ecus[0].run_phase4(rng)
    node, honest = {"unit group secret": (ecus[2], group_msgs[2]),
                    "unit seed": (ecus[1], seed), "secu seed": (secu, seed)}[path]
    if case == "2-byte pairwise_cipher":
        # A toy23 ciphertext's length: to the SECU every message is a seed.
        return node, WireMessage(MsgKind.PAIRWISE_CIPHER, 0, SECU_ID, bytes(2))
    if case.startswith("cached"):
        assert node.handle(honest).accepted
    body = {"unkeyed, wrong length": honest.body[1:],
            "cached tag, wrong length": b"\0" + honest.body,
            "cached tag, altered data": _flip(honest.body, 0),
            "bad tag": _flip(honest.body, -1),
            "bad tag, wrong length": b"\0" + _flip(honest.body, -1)}[case]
    if case.startswith("unkeyed"):
        node = Ecu(toy, node.keypair)
    return node, honest._replace(body=body)


def _counted(calls, name, real):
    def counted(*args):
        calls[name] += 1
        return real(*args)
    return counted


class TestRefusalOrder:
    """Every MAC'd body is checked in the order state, decode, replay, mac:
    each body below fails two checks and the first one is its reason. Only a
    MAC check derives keys and computes a MAC."""

    @pytest.mark.parametrize("path, case, reason", [
        (path, case, reason)
        for path in ("unit group secret", "unit seed")
        for case, reason in (("unkeyed, wrong length", "state"),
                             ("cached tag, wrong length", "decode"),
                             ("cached tag, altered data", "replay"),
                             ("bad tag", "mac"))
    ] + [("secu seed", "bad tag, wrong length", "decode"),
         ("secu seed", "bad tag", "mac"),
         ("secu seed", "2-byte pairwise_cipher", "decode")])
    def test_first_failing_check_is_the_reason(self, toy, monkeypatch, path,
                                               case, reason):
        node, msg = _refusal(toy, path, case)
        calls = {"hkdf_split": 0, "hmac_verify": 0}
        for name in calls:
            monkeypatch.setattr(primitives, name,
                                _counted(calls, name, getattr(primitives, name)))
        before = _state(node)
        out = node.handle(msg)
        assert out.rejected and out.reason == reason
        assert _state(node) == before
        expected = 1 if reason == "mac" else 0
        assert calls == {"hkdf_split": expected, "hmac_verify": expected}


def _name(node):
    """The name a bare-name or attribute read reads, else None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _readers(source, names, calls=False):
    """The function around each read of ``names`` in ``source`` (None at
    module level), read as a bare name or as an attribute; with ``calls``,
    only the reads that are called."""
    found = {name: [] for name in names}

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if not calls:
                found.get(_name(child), []).append(func)
            elif isinstance(child, ast.Call):
                found.get(_name(child.func), []).append(func)
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_each_receive_check_and_key_split_lives_in_one_function():
    # One MAC check for every MAC'd body, unit and SECU alike, and one
    # reader of each domain-separation label, sender and receiver alike.
    source = inspect.getsource(canvault.protocol)
    assert _readers(source, ("hmac_verify", "_SPLIT_GROUP_INFO",
                             "_SPLIT_SESSION_INFO")) == {
        "hmac_verify": ["_open"], "_SPLIT_GROUP_INFO": ["_group_keys"],
        "_SPLIT_SESSION_INFO": ["_session_keys"]}


def test_a_keypair_is_built_only_by_kem_keypair():
    # Inline keygen and the keyfile reader derive a unit's public halves
    # through the one function that calls the record's constructor.
    builders = []
    for info in pkgutil.iter_modules(canvault.__path__, "canvault."):
        source = inspect.getsource(importlib.import_module(info.name))
        builders += [(info.name, func)
                     for func in _readers(source, ("EcuKeyPair",), True)["EcuKeyPair"]]
    assert builders == [("canvault.kem", "keypair")]


class TestCounterRefresh:
    def test_five_ticks_at_max_four_give_one_refresh(self, toy):
        _, ecus, _ = run_to_session(toy, 1, ctr_max=4)
        ecu = ecus[0]
        refreshes = [ecu.tick_counter() for _ in range(5)]
        assert refreshes == [False, False, False, False, True]
        assert ecu.session.round_index == 1
        assert ecu.session.counter == 0

    def test_counter_never_exceeds_max(self, toy):
        _, ecus, _ = run_to_session(toy, 1, ctr_max=3)
        ecu = ecus[0]
        for _ in range(50):
            ecu.tick_counter()
            assert 0 <= ecu.session.counter <= 3

    def test_isolated_units_stay_in_lockstep(self, toy):
        """Equal tick counts imply equal keys, with no messages exchanged."""
        _, ecus, _ = run_to_session(toy, 2, ctr_max=2)
        a, b = ecus
        for _ in range(17):
            a.tick_counter()
            b.tick_counter()
        assert a.session.session_key == b.session.session_key
        assert a.session.round_index == b.session.round_index > 0

    def test_each_round_key_differs(self, toy):
        _, ecus, _ = run_to_session(toy, 1, ctr_max=1)
        ecu = ecus[0]
        keys = {bytes(ecu.session.session_key)}
        for _ in range(10):
            while not ecu.tick_counter():
                pass
            keys.add(bytes(ecu.session.session_key))
        assert len(keys) == 11

    def test_tick_requires_session(self, toy):
        _, ecus, _ = build_nodes(toy, 1)
        with pytest.raises(StateError):
            ecus[0].tick_counter()

    def test_data_frame_returns_the_rotation_ops(self, toy):
        _, ecus, _ = run_to_session(toy, 1, ctr_max=2)
        assert [ecus[0].on_data_frame() for _ in range(6)] == \
            [(), (), ROTATION_OPS] * 2
        assert ecus[0].session.round_index == 2

    def test_a_rotation_costs_only_ops_some_message_kind_costs(self):
        # The bus checks a joining node's latency table against the kinds'
        # send costs alone, so a rotation op outside them would raise KeyError
        # mid-run instead of failing at join.
        assert set(ROTATION_OPS) <= set().union(*MESSAGE_OPS.values())

    def test_unkeyed_unit_neither_counts_nor_raises_on_a_data_frame(self, toy):
        _, ecus, _ = build_nodes(toy, 1)
        assert ecus[0].on_data_frame() == ()
        assert ecus[0].session is None


class TestPhaseMonotonicityAndRobustness:
    def test_random_message_soup_never_moves_phase_backwards(self, toy):
        # Phase 3 runs and unit 0 keys and sends a seed; unit 1's group
        # secret and the seed reach the other nodes only as honest copies
        # mixed into the noise after its first 100 messages. So the SECU
        # refuses noise while it waits for the seed, and a unit refuses a
        # copy it has already accepted.
        secu, ecus, rng = build_nodes(toy, 2)
        soup_rng = Random(7)
        kinds = list(MsgKind)
        deliver_all(secu.run_phase2(rng), ecus)
        history = [secu.phase]
        honest = secu.run_phase3(rng)
        history.append(secu.phase)
        ecus[0].handle(honest[0])
        honest.append(ecus[0].run_phase4(rng))
        reasons = {SECU_ID: set(), 0: set(), 1: set()}
        for i in range(300):
            if i >= 100 and soup_rng.random() < 0.1:
                msg = soup_rng.choice(honest)
            else:
                kind = soup_rng.choice(kinds)
                length = body_length(toy, kind)
                body = soup_rng.randbytes(soup_rng.choice(
                    [0, 1, 2, 48, 64, length - 1, length, length + 1]))
                msg = WireMessage(kind, soup_rng.choice([SECU_ID, 0, 1]),
                                  soup_rng.choice([None, 0, 1]), body)
            for node in [secu, *ecus]:
                before = _state(node)
                out = node.handle(msg)     # must not raise
                if out.rejected:
                    reasons[node.node_id].add(out.reason)
                    assert _state(node) == before
            history.append(secu.phase)
        assert all(b >= a for a, b in zip(history, history[1:]))
        assert history[0] is Phase.PAIRWISE and history[-1] is Phase.DONE
        assert "mac" in reasons[SECU_ID]
        assert "replay" in reasons[0] & reasons[1]
        seen = set().union(*reasons.values())
        assert {"decode", "mac", "state"} <= seen
        assert seen <= {"decode", "consistency", "mac", "replay", "state"}

    def test_replay_cache_is_bounded(self, toy):
        secu, ecus, rng = build_nodes(toy, 1, cache=8)
        deliver_all(secu.run_phase2(rng), ecus)
        deliver_all(secu.run_phase3(rng), ecus)
        ecu = ecus[0]
        for i in range(100):
            ecu.handle(ecu.run_phase4(Random(i)))
        assert len(ecu.replay_cache) <= 8

    def test_replay_cache_evicts_the_oldest_first(self, toy):
        # A two-tag cache takes the group secret's tag, then two seeds' tags:
        # the group secret's goes, and both seeds are still refused.
        secu, ecus, rng = build_nodes(toy, 1, cache=2)
        deliver_all(secu.run_phase2(rng), ecus)
        ecu = ecus[0]
        wrapped = secu.run_phase3(rng)[0]
        assert ecu.handle(wrapped).accepted
        seeds = [ecu.run_phase4(Random(i)) for i in range(2)]
        assert list(ecu.replay_cache) == [s.body[-MAC_LEN:] for s in seeds]
        for seed in seeds:
            out = ecu.handle(seed)
            assert out.rejected and out.reason == "replay"
        assert ecu.handle(wrapped).accepted


class OneUnitUnderReplay(RuleBasedStateMachine):
    """One toy23 unit with the default replay cache, fed its honest group
    secret and a peer's seed, replays and bit flips of whatever it has been
    sent, random bodies, and data frames. A refusal changes nothing, and the
    session's round never goes back."""

    def __init__(self):
        super().__init__()
        toy = get_group("toy23")
        rng = Random(0)
        keypairs = [kem.keygen(toy, i, rng) for i in range(2)]
        secu = Secu(toy, [(kp.ecu_id, kp.public) for kp in keypairs])
        self.unit, peer = (Ecu(toy, kp, ctr_max=2) for kp in keypairs)
        pairwise = secu.run_phase2(rng)
        group_msgs = secu.run_phase3(rng)
        for msg in (pairwise[1], group_msgs[1]):
            assert peer.handle(msg).accepted
        self.honest = {"group secret": group_msgs[0], "seed": peer.run_phase4(rng)}
        self.sent = [pairwise[0]]
        assert self.unit.handle(pairwise[0]).accepted
        self.toy, self.round = toy, -1

    def send(self, msg):
        before = _state(self.unit)
        if self.unit.handle(msg).rejected:
            assert _state(self.unit) == before
        self.sent.append(msg)

    @rule(name=st.sampled_from(["group secret", "seed"]))
    def deliver(self, name):
        self.send(self.honest[name])

    @rule(data=st.data())
    def replay(self, data):
        self.send(data.draw(st.sampled_from(self.sent)))

    @rule(data=st.data())
    def flip_a_bit(self, data):
        msg = data.draw(st.sampled_from(self.sent))
        bit = data.draw(st.integers(0, 8 * len(msg.body) - 1))
        body = bytearray(msg.body)
        body[bit // 8] ^= 1 << bit % 8
        self.send(msg._replace(body=bytes(body)))

    @rule(kind=st.sampled_from(MsgKind), extra=st.sampled_from([-1, 0, 1]),
          data=st.data())
    def random_body(self, kind, extra, data):
        n = body_length(self.toy, kind) + extra
        body = data.draw(st.binary(min_size=n, max_size=n))
        self.send(WireMessage(kind, SECU_ID, self.unit.ecu_id, body))

    @rule()
    def tick(self):
        self.unit.on_data_frame()

    @invariant()
    def round_never_goes_back(self):
        session = self.unit.session
        now = -1 if session is None else session.round_index
        assert now >= self.round
        self.round = now


TestOneUnitUnderReplay = OneUnitUnderReplay.TestCase
TestOneUnitUnderReplay.settings = settings(
    derandomize=True, max_examples=100, stateful_step_count=40, deadline=None)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4: a one-tag replay cache forgets the seed's tag once a "
    "replayed group secret is accepted, so the replayed seed rolls unit 0 "
    "back to round 0"))
def test_replays_past_a_one_tag_cache_do_not_roll_a_unit_back(toy):
    secu, ecus, rng = build_nodes(toy, 2, ctr_max=2, cache=1)
    deliver_all(secu.run_phase2(rng), ecus)
    group_msgs = secu.run_phase3(rng)
    deliver_all(group_msgs, ecus)
    seed = ecus[1].run_phase4(rng)
    ecus[0].handle(seed)
    for _ in range(6):      # three ticks a round at ctr_max 2
        for ecu in ecus:
            ecu.tick_counter()
    if [ecu.session.round_index for ecu in ecus] != [2, 2]:
        pytest.fail("both units should reach round 2 before the replays")
    ecus[0].handle(group_msgs[0])
    ecus[0].handle(seed)
    assert [ecu.session.round_index for ecu in ecus] == [2, 2]


class TestBodyLengths:
    def test_fixed_lengths_per_kind(self, toy):
        assert body_length(toy, MsgKind.PAIRWISE_CIPHER) == 2
        assert body_length(toy, MsgKind.GROUP_SECRET) == 64
        assert body_length(toy, MsgKind.SEED_BROADCAST) == 48
        big = get_group("schnorr256")
        assert body_length(big, MsgKind.PAIRWISE_CIPHER) == 512

    def test_emitted_bodies_match_declared_lengths(self, toy):
        secu, ecus, rng = build_nodes(toy, 2)
        for msg in secu.run_phase2(rng):
            assert len(msg.body) == body_length(toy, msg.kind)
        deliver_all([], ecus)
        msgs = secu.run_phase3(rng)
        for msg in msgs:
            assert len(msg.body) == body_length(toy, msg.kind)
