"""Bus-layer tests: fragmentation codec, timing arithmetic, arbitration,
delivery by acceptance filter, determinism of the event loop, tampers and
replays on the wire, and the bus's independence from the protocol's rules."""

import ast
import importlib
import inspect
import pkgutil
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canvault
import canvault.bus
from canvault import kem
from canvault.adversary import (ADVERSARY_CAN_ID, ADVERSARY_ID, Adversary,
                                ReplayAction, TamperAction)
from canvault.bus import (BusConfig, CanFdFrame, Machine, Network,
                          frame_time_us, fragment, reassemble)
from canvault.errors import ConfigError
from canvault.group import get_group
from canvault.harness import (LATENCY_PRESETS, ScenarioConfig,
                              load_latency_profile, run_scenario)
from canvault.protocol import (ANY_RECEIVER, DATA_FRAMES, ECU_CAN_BASE,
                               MESSAGE_OPS, SECU_ID, SEEDS, Disposition, Ecu,
                               MsgKind, Outcome, Secu, WireMessage)


STM32 = load_latency_profile("stm32")      # the stm32 table for each node class


@pytest.fixture(scope="module")
def toy():
    return get_group("toy23")


def make_msg(body: bytes) -> WireMessage:
    return WireMessage(MsgKind.SEED_BROADCAST, SECU_ID, None, body)


def forge(net: Network, msg: WireMessage, at_us: int) -> None:
    """Send a message as the adversary does a forgery."""
    net.send(ADVERSARY_ID, ADVERSARY_CAN_ID, msg, at_us)


class TestFragmentation:
    def test_small_body_fits_one_frame(self):
        frames = fragment(make_msg(b"x" * 48), can_id=0x10, msg_seq=1)
        assert len(frames) == 1
        assert frames[0].header == (1, 0, 1)
        assert len(frames[0].payload) == 52

    def test_64_byte_body_needs_two_frames(self):
        frames = fragment(make_msg(b"x" * 64), can_id=0x10, msg_seq=1)
        assert [len(f.payload) for f in frames] == [64, 8]
        assert [f.header for f in frames] == [(1, 0, 2), (1, 1, 2)]

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

    def test_body_past_255_frames_refused(self):
        # The header's fragment total is one byte.
        assert len(fragment(make_msg(bytes(255 * 60)), 0x10, 1)) == 255
        with pytest.raises(ValueError, match="needs too many fragments"):
            fragment(make_msg(bytes(255 * 60 + 1)), 0x10, 1)

    def test_reassemble_rejects_incomplete_or_mixed_sets(self):
        frames = fragment(make_msg(b"x" * 200), 0x10, 1)
        with pytest.raises(ValueError):
            reassemble(frames[:-1])
        other = fragment(make_msg(b"y" * 200), 0x10, 2)
        with pytest.raises(ValueError):
            reassemble(frames[:-1] + [other[-1]])
        with pytest.raises(ValueError):
            reassemble(frames[:-1] + [frames[0]])   # duplicated index
        # Fragment 3 of a 5-fragment body under the same sequence number.
        longer = fragment(make_msg(b"z" * 260), 0x10, 1)
        with pytest.raises(ValueError):
            reassemble(frames[:-1] + [longer[3]])
        with pytest.raises(ValueError):
            reassemble([])
        # A complete set out of index order is refused, not reordered.
        assert len(frames) == 4
        with pytest.raises(ValueError):
            reassemble([frames[i] for i in (2, 0, 3, 1)])


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
        with pytest.raises(ConfigError, match="frame overhead"):
            BusConfig(frame_overhead_bits=-1)


class TestArbitration:
    def build_two_node_net(self, toy, bitrate_bps=1_000_000):
        """Units 0 and 1, under CAN ids 0x100 and 0x101."""
        rng = Random(0)
        net = Network(BusConfig(bitrate_bps), STM32)
        kp_a, kp_b = kem.keygen(toy, 0, rng), kem.keygen(toy, 1, rng)
        net.add(Ecu(toy, kp_a))
        net.add(Ecu(toy, kp_b))
        return net

    def test_lowest_id_wins_and_loser_queues(self, toy):
        net = self.build_two_node_net(toy)
        net.schedule_data_frame(1)     # can_id 0x101
        net.schedule_data_frame(0)     # can_id 0x100
        net.run_to_quiescence()
        assert [(f.timestamp_us, f.can_id) for f in net.sent] == \
            [(0, 0x100), (192, 0x101)]

    def test_fifo_within_equal_priority(self, toy):
        net = self.build_two_node_net(toy)
        net.schedule_data_frame(0)
        net.schedule_data_frame(0)
        net.run_to_quiescence()
        assert [f.timestamp_us for f in net.sent] == [0, 192]

    def test_fifo_by_readiness_not_by_scheduling(self, toy):
        # A data frame holds the bus for 1536 us at 125 kbit/s. Two forged
        # frames under the one adversary id become ready behind it, in the
        # opposite order to the one they were scheduled in.
        net = self.build_two_node_net(toy, bitrate_bps=125_000)
        net.schedule_data_frame(0)
        for body, at_us in ((b"late", 1000), (b"early", 500)):
            forge(net, make_msg(body), at_us)
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
        net = Network(BusConfig(), STM32)
        net.add(secu)
        net.add(ecu)
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


class StubNode:
    """A node that is neither an Ecu nor a Secu. It declares its own bus
    identity: CAN id ``ECU_CAN_BASE + node_id``, latency class "ecu" and
    label ``stub<node_id>`` unless given others. It accepts whatever reaches
    it at its kind's cost (or, with ``refuse``, rejects it for "refused"),
    and pays one hkdf per data frame. Each handled message is also logged
    with the node's id in ``log``, if one is given."""

    def __init__(self, node_id: int, streams, log=None, *, can_id=None,
                 node_class="ecu", label=None, refuse=False):
        self.node_id = node_id
        self.can_id = ECU_CAN_BASE + node_id if can_id is None else can_id
        self.node_class = node_class
        self.label = f"stub{node_id}" if label is None else label
        self.streams = streams
        self.refuse = refuse
        self.handled: list[WireMessage] = []
        self.data_frames = 0
        self.log = [] if log is None else log

    def handle(self, msg: WireMessage) -> Outcome:
        self.handled.append(msg)
        self.log.append(self.node_id)
        if self.refuse:
            return Outcome(Disposition.REJECTED, MESSAGE_OPS[msg.kind], "refused")
        return Outcome(Disposition.ACCEPTED, MESSAGE_OPS[msg.kind])

    def on_data_frame(self) -> tuple[str, ...]:
        self.data_frames += 1
        return ("hkdf",)


def stub_net(*nodes, latency=STM32) -> Network:
    net = Network(BusConfig(), latency)
    for node in nodes:
        net.add(node)
    return net


def quiet_end(net: Network) -> int:
    """When the last frame left the bus."""
    last = net.sent[-1]
    return last.timestamp_us + frame_time_us(last, net.cfg)


class TestAcceptanceFilter:
    """The bus delivers by declared streams alone, whatever class a node is."""

    def test_seed_forged_to_one_node_reaches_every_node_but_its_origin(self):
        nodes = [StubNode(i, (SEEDS,)) for i in range(3)]
        net = stub_net(*nodes)
        seed = WireMessage(MsgKind.SEED_BROADCAST, 0, 1, b"s" * 48)
        net.schedule_protocol_send(0, [seed])
        forge(net, seed, at_us=10_000)
        net.run_to_quiescence()
        assert [len(n.handled) for n in nodes] == [1, 2, 2]

    def test_unicast_to_the_secu_id_or_an_absent_id_reaches_no_handler(self):
        secu_like = StubNode(SECU_ID, (SEEDS,))
        units = [StubNode(i, ((MsgKind.PAIRWISE_CIPHER, i),)) for i in range(2)]
        net = stub_net(secu_like, *units)
        for receiver in (SECU_ID, 7, None):
            forge(net, WireMessage(MsgKind.PAIRWISE_CIPHER, SECU_ID, receiver,
                                   b"c" * 2), at_us=0)
        end = net.run_to_quiescence()
        assert [n.handled for n in (secu_like, *units)] == [[], [], []]
        assert end == quiet_end(net)        # nobody was charged

    def test_two_nodes_with_one_id_refused(self):
        with pytest.raises(ValueError, match="duplicate node id 0"):
            stub_net(StubNode(0, (SEEDS,)), StubNode(0, (DATA_FRAMES,)))

    def test_only_data_frame_listeners_count_data_frames(self):
        listener = StubNode(0, (DATA_FRAMES,))
        deaf = StubNode(1, (SEEDS,))
        net = stub_net(listener, deaf)
        net.schedule_data_frame(1)
        net.schedule_data_frame(0)          # the sender counts its own frame
        end = net.run_to_quiescence()
        assert (listener.data_frames, deaf.data_frames) == (2, 0)
        # The listener pays for each frame once it has left the bus, one
        # after the other: the second frame ends before the first is paid.
        first_end = net.sent[1].timestamp_us
        assert end == first_end + 2 * LATENCY_PRESETS["stm32"]["hkdf"]

    def test_unkeyed_unit_neither_raises_nor_pays_on_a_data_frame(self, toy):
        ecu = Ecu(toy, kem.keygen(toy, 0, Random(0)))
        net = stub_net(ecu, StubNode(1, (SEEDS,)))
        net.schedule_data_frame(1)
        assert net.run_to_quiescence() == quiet_end(net)
        assert ecu.session is None

    def test_listeners_added_out_of_id_order_are_served_in_id_order(self):
        log = []
        net = stub_net(*(StubNode(i, (SEEDS,), log) for i in (2, 0, 1)))
        forge(net, WireMessage(MsgKind.SEED_BROADCAST, 0, None, b"s"), at_us=0)
        net.run_to_quiescence()
        assert log == [0, 1, 2]

    def test_exact_and_wildcard_listeners_get_a_message_once_in_id_order(self):
        # Added out of id order; node 2 listens to the stream both ways.
        log = []
        exact, wild = (MsgKind.GROUP_SECRET, 0), (MsgKind.GROUP_SECRET, ANY_RECEIVER)
        net = stub_net(StubNode(2, (exact, wild), log), StubNode(1, (wild,), log),
                       StubNode(0, (exact,), log))
        forge(net, WireMessage(MsgKind.GROUP_SECRET, SECU_ID, 0, b"g"), at_us=0)
        net.run_to_quiescence()
        assert log == [0, 1, 2]


class TestDeclaredIdentity:
    """A node's CAN id, latency class and label are its own declarations;
    the bus reads them and assigns none."""

    def test_machines_declare_their_identity(self, toy):
        machine = set(Machine.__annotations__)
        assert machine == {"node_id", "can_id", "node_class", "label", "streams"}
        assert machine <= set(vars(StubNode(0, ())))
        secu = Secu(toy, [])
        assert (secu.can_id, secu.node_class, secu.label) == (0x010, "secu", "secu")
        ecu = Ecu(toy, kem.keygen(toy, 3, Random(0)))
        assert (ecu.can_id, ecu.node_class, ecu.label) == (0x103, "ecu", "ecu3")
        # Plain attributes, not properties: the bus reads node_id per delivery
        # and compute charge, and can_id per data frame.
        assert {"node_id", "ecu_id", "can_id", "label", "streams"} <= set(vars(ecu))
        assert ecu.node_id == ecu.ecu_id == 3

    def test_the_lower_declared_can_id_wins_arbitration(self):
        # Declared ids invert the order of the node ids.
        net = stub_net(StubNode(0, (), can_id=0x300), StubNode(1, (), can_id=0x200))
        net.schedule_data_frame(0)
        net.schedule_data_frame(1)
        net.run_to_quiescence()
        assert [(f.sender, f.can_id, f.timestamp_us) for f in net.sent] == \
            [(1, 0x200, 0), (0, 0x300, 192)]

    def test_two_secu_class_nodes_are_each_charged_the_secu_cost(self):
        # Two nodes of one latency class under distinct CAN ids, as one SECU
        # per group would put on one bus.
        ops = ("eccdh", "hkdf", "aes", "hmac")    # every op a kind costs
        table = {"secu": dict.fromkeys(ops, 1_000), "ecu": dict.fromkeys(ops, 1)}
        nodes = [StubNode(i, (), can_id=0x010 + i, node_class="secu")
                 for i in range(2)]
        net = stub_net(*nodes, latency=table)
        cost = sum(table["secu"][op] for op in MESSAGE_OPS[MsgKind.SEED_BROADCAST])
        for node in nodes:
            start = net.now
            net.schedule_protocol_send(node.node_id, [
                WireMessage(MsgKind.SEED_BROADCAST, node.node_id, None, b"s")])
            net.run_to_quiescence()
            assert (net.sent[-1].can_id, net.sent[-1].timestamp_us) == \
                (node.can_id, start + cost)

    def test_a_refusal_is_logged_under_the_declared_label(self):
        refuser = StubNode(1, (SEEDS,), label="gateway", refuse=True)
        net = stub_net(StubNode(0, ()), refuser)
        net.schedule_protocol_send(
            0, [WireMessage(MsgKind.SEED_BROADCAST, 0, None, b"s")])
        net.run_to_quiescence()
        assert [(r["node"], r["kind"], r["reason"]) for r in net.rejections] == \
            [("gateway", "seed_broadcast", "refused")]

    def test_a_class_with_no_latency_table_is_refused_at_join(self):
        # A gateway class with no table, and one whose table lacks the hkdf a
        # data frame costs: either node fails when it joins, never on its
        # first charge, and leaves the bus as it found it.
        for latency in (STM32, {**STM32, "gateway": {"eccdh": 1}}):
            unit = StubNode(0, (DATA_FRAMES,))
            net = stub_net(unit, latency=latency)
            before = (dict(net._nodes), dict(net._busy),
                      {stream: list(nodes) for stream, nodes in net._listeners.items()})
            gateway = StubNode(1, (DATA_FRAMES,), node_class="gateway")
            with pytest.raises(ConfigError, match="'gateway'"):
                net.add(gateway)
            assert (net._nodes, net._busy, net._listeners) == before
            net.schedule_data_frame(0)
            end = net.run_to_quiescence()
            assert (unit.data_frames, gateway.data_frames) == (1, 0)
            assert end == quiet_end(net) + STM32["ecu"]["hkdf"]


class TestTamper:
    # A 200-byte body goes out as 4 fragments of 60, 60, 60 and 20 data
    # bytes; the bits lie in the first, the second, the third and the last.
    @pytest.mark.parametrize("bit", [3, 600, 1000, 1599])
    def test_flips_one_wire_bit_and_a_replay_carries_it(self, bit):
        body = bytes(range(200))

        def wire(*actions):
            listener = StubNode(1, (SEEDS,))
            net = Network(BusConfig(), STM32, Adversary(actions))
            net.add(StubNode(0, ()))
            net.add(listener)
            net.schedule_protocol_send(
                0, [WireMessage(MsgKind.SEED_BROADCAST, 0, None, body)])
            net.run_to_quiescence()
            return [f.payload for f in net.sent], listener.handled

        clean, _ = wire()
        sent, handled = wire(TamperAction(MsgKind.SEED_BROADCAST, bit),
                             ReplayAction(MsgKind.SEED_BROADCAST))
        expected = [bytearray(p) for p in clean]
        expected[bit // 480][4 + (bit // 8) % 60] ^= 1 << bit % 8
        assert len(clean) == 4
        assert sent == [bytes(p) for p in expected] * 2
        flipped = bytearray(body)
        flipped[bit // 8] ^= 1 << bit % 8
        assert [m.body for m in handled] == [bytes(flipped)] * 2


def test_bus_imports_from_the_protocol_only_its_wire_format():
    # The message kinds and format, the sender's charge per kind, and the
    # filter wildcard: every other protocol rule is the nodes' own.
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(canvault.bus))):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        names = {alias.name for alias in node.names}
        if (getattr(node, "module", None) or "").endswith("protocol"):
            imported |= names
        else:
            assert not any(name.endswith("protocol") for name in names)
    assert imported <= {"MsgKind", "WireMessage", "MESSAGE_OPS", "ANY_RECEIVER"}


def test_bus_names_no_node_role_and_joins_nodes_one_way():
    # A node's CAN id, latency class and label are declared by the node; the
    # unit label format lives with the units, in canvault.protocol.
    tree = ast.parse(inspect.getsource(canvault.bus))
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not strings & {"secu", "ecu"}
    bound = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert not {name for name in bound if name.endswith(("_CAN_ID", "_CAN_BASE"))}
    network = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "Network")
    joining = {method.name for method in network.body
               if isinstance(method, ast.FunctionDef)
               and (method.name.startswith("add") or any(
                   isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Attribute)
                   and node.value.attr == "_nodes" for node in ast.walk(method)))}
    assert joining == {"add"}
    labelled = set()
    for info in pkgutil.iter_modules(canvault.__path__):
        module = importlib.import_module(f"canvault.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.JoinedStr) and any(
                    isinstance(part, ast.Constant) and part.value.endswith("ecu")
                    and isinstance(after, ast.FormattedValue)
                    for part, after in zip(node.values, node.values[1:])):
                labelled.add(info.name)
    assert labelled == {"protocol"}


def test_node_class_names_are_written_in_the_protocol_only():
    # Secu and Ecu declare their latency classes; every other module reads
    # them there. A preset is one device table that times every class.
    naming = set()
    for info in pkgutil.iter_modules(canvault.__path__):
        module = importlib.import_module(f"canvault.{info.name}")
        if any(isinstance(node, ast.Constant) and node.value in ("secu", "ecu")
               for node in ast.walk(ast.parse(inspect.getsource(module)))):
            naming.add(info.name)
    assert naming == {"protocol"}
    assert all(isinstance(table, dict) and all(
        type(op) is str and type(us) is int for op, us in table.items())
        for table in LATENCY_PRESETS.values())


def test_bus_leaves_the_adversary_and_the_frame_counts_to_their_owners():
    # canvault.adversary owns the action records, the per-kind occurrence
    # counts and the forgeries, and the harness counts the sent frames. The
    # bus calls the adversary once, in Network.send.
    source = inspect.getsource(canvault.bus)
    tree = ast.parse(source)
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert not {name for name in defined if name.endswith("Action")}
    assert not defined & {"forge", "frames", "data_frames", "logical_messages"}
    # A counter per kind would enumerate the kinds; the bus only annotates
    # with them.
    enumerated = [node.iter for node in ast.walk(tree)
                  if isinstance(node, (ast.For, ast.comprehension))]
    enumerated += [arg for node in ast.walk(tree) if isinstance(node, ast.Call)
                   for arg in node.args]
    assert not any(isinstance(node, ast.Name) and node.id == "MsgKind"
                   for node in enumerated)
    assert "occurrence" not in source
    hooks = [node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Attribute)
             and node.value.attr == "adversary"]
    assert hooks == ["on_send"]


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
