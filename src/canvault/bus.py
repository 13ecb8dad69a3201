"""Deterministic discrete-event CAN-FD bus.

Models the pieces of the bus that matter for protocol accounting:

* fragmentation of logical messages into frames with at most 64 payload
  bytes (4-byte fragment header + up to 60 data bytes),
* ID-based arbitration: when several frames wait for the bus, the lowest
  CAN id transmits first, ties broken by the order they became ready,
* transmission time from a configurable bitrate and flat per-frame overhead,
* per-node compute latency charged per cryptographic operation, as the
  protocol lists them per message kind and rotation, so phase durations
  reflect the configured hardware class,
* an adversary that can tamper frames in flight, replay captured messages,
  and forge new ones.

Everything is driven by one event heap of frames ordered by (time,
insertion serial), so a (config, seed) pair fully determines the run.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import struct
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import ConfigError
from .protocol import (MESSAGE_OPS, ROTATION_OPS, SECU_ID, Disposition, Ecu,
                       MsgKind, Secu, WireMessage)

_FRAG_HEADER = struct.Struct(">HBB")     # msg_seq, frag_index, frag_total
FRAG_HEADER_LEN = _FRAG_HEADER.size
MAX_MSG_SEQ = 0xFFFF        # sequence numbers run 1..MAX_MSG_SEQ and never wrap
FRAME_DATA_MAX = 60

SECU_CAN_ID = 0x010
ECU_CAN_BASE = 0x100
ADVERSARY_CAN_ID = 0x7FF
ADVERSARY_ID = -2           # origin marker for injected frames

_DATA_PAYLOAD = b"\x00" * 8


@dataclass
class BusConfig:
    bitrate_bps: int = 1_000_000
    frame_overhead_bits: int = 128

    def __post_init__(self):
        if not 125_000 <= self.bitrate_bps <= 8_000_000:
            raise ConfigError(
                f"bitrate {self.bitrate_bps} outside the CAN/CAN-FD envelope")
        if self.frame_overhead_bits < 0:
            raise ConfigError("frame overhead must be >= 0 bits")


@dataclass
class CanFdFrame:
    """One frame on the bus.

    ``kind``/``sender``/``receiver`` mirror the CAN practice of encoding the
    message stream in the identifier: they are carried out of band and do not
    count toward the payload, which holds only the fragment header and a body
    chunk. ``origin`` records which node physically transmitted the frame
    (the adversary when it replays or forges), while ``sender`` is the claim
    the protocol layer sees. The fragment fields are the values
    :func:`fragment` packs into the payload's header; a tamper flips only body
    bytes, so they never go stale. Data frames (``kind`` None) carry no header
    and leave them None.
    """

    can_id: int
    payload: bytes
    kind: Optional[MsgKind]     # None for plain application data frames
    sender: int
    receiver: Optional[int]
    origin: int
    timestamp_us: int = -1      # start of transmission, set by the bus
    msg_seq: Optional[int] = None
    frag_index: Optional[int] = None
    frag_total: Optional[int] = None


def fragment_count(body_len: int) -> int:
    """Frames needed to carry a body; an empty body still sends one."""
    return max(1, -(-body_len // FRAME_DATA_MAX))


def fragment(msg: WireMessage, can_id: int, msg_seq: int,
             origin: Optional[int] = None) -> list[CanFdFrame]:
    """Split a message body into frames of at most 60 data bytes each."""
    total = fragment_count(len(msg.body))
    if total > 0xFF:
        raise ValueError(f"body of {len(msg.body)} bytes needs too many fragments")
    frames = []
    for idx in range(total):
        chunk = msg.body[idx * FRAME_DATA_MAX:(idx + 1) * FRAME_DATA_MAX]
        header = _FRAG_HEADER.pack(msg_seq, idx, total)
        frames.append(CanFdFrame(
            can_id=can_id, payload=header + chunk, kind=msg.kind,
            sender=msg.sender, receiver=msg.receiver,
            origin=msg.sender if origin is None else origin,
            msg_seq=msg_seq, frag_index=idx, frag_total=total))
    return frames


def reassemble(frames: list[CanFdFrame]) -> WireMessage:
    """Rebuild the logical message from a complete fragment set."""
    if not frames:
        raise ValueError("no frames to reassemble")
    first = frames[0]
    if len(frames) != first.frag_total:
        raise ValueError("fragment set incomplete")
    ordered = sorted(frames, key=lambda f: f.frag_index)
    if [f.frag_index for f in ordered] != list(range(first.frag_total)):
        raise ValueError("fragment indices do not cover the message")
    if any(f.msg_seq != first.msg_seq for f in ordered):
        raise ValueError("fragments from different messages")
    body = b"".join(f.payload[FRAG_HEADER_LEN:] for f in ordered)
    return WireMessage(first.kind, first.sender, first.receiver, body)


def frame_time_us(frame: CanFdFrame, cfg: BusConfig) -> int:
    """Wire time of one frame in microseconds, rounded up."""
    bits = cfg.frame_overhead_bits + 8 * len(frame.payload)
    return -(-bits * 1_000_000 // cfg.bitrate_bps)


# Latency presets, microseconds per operation for each node class. The
# asymmetric figure covers one full encapsulation or decapsulation; the
# sign/verify entries only feed the analytic computation tally.
_STM32 = {"eccdh": 3_000, "hkdf": 300, "aes": 40, "sha": 40, "hmac": 40,
          "sign": 2_870, "verify": 4_460}
_W806 = {"eccdh": 2_000_000, "hkdf": 700, "aes": 100, "sha": 100, "hmac": 100}
_UNO = {"eccdh": 4_000_000, "hkdf": 88_000, "aes": 1_000, "sha": 1_000,
        "hmac": 1_000}

LATENCY_PRESETS: dict[str, dict[str, dict[str, int]]] = {
    "stm32": {"secu": dict(_STM32), "ecu": dict(_STM32)},
    "w806": {"secu": dict(_W806), "ecu": dict(_W806)},
    "uno": {"secu": dict(_UNO), "ecu": dict(_UNO)},
}


@dataclass
class TamperAction:
    """Flip one bit of a message body while its frame is in flight.

    ``occurrence`` counts messages of the kind in send order; ``bit`` indexes
    into the body, LSB-first within each byte.
    """
    kind: MsgKind
    bit: int
    occurrence: int = 0


@dataclass
class ReplayAction:
    """Re-inject a verbatim copy of a captured message's frames."""
    kind: MsgKind
    occurrence: int = 0
    delay_us: int = 0


@dataclass
class ForgeAction:
    """Send a fabricated message at a chosen time under the adversary id;
    the harness draws its body and claims the central node as sender."""
    kind: MsgKind
    receiver: Optional[int] = None
    at_us: int = 0


@dataclass
class SimReport:
    """Metrics of one simulation run. All fields are JSON-plain types so the
    report round-trips losslessly through its JSON form."""

    group: str = ""
    n_ecus: int = 0
    rng_seed: int = 0
    latency_profile: str = ""
    logical_messages: int = 0
    frames: int = 0
    data_frames: int = 0
    refresh_events: int = 0
    phase_times: dict = field(default_factory=dict)
    rejections: list = field(default_factory=list)
    converged: dict = field(default_factory=dict)
    partially_keyed: bool = False
    expected_messages: int = 0
    checks: dict = field(default_factory=dict)
    comparison: list = field(default_factory=list)
    computation_tally_us: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimReport":
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SimReport":
        return cls.from_dict(json.loads(text))


@dataclass
class _Node:
    node_id: int
    can_id: int
    node_class: str             # "secu" or "ecu"
    machine: Union[Secu, Ecu]
    busy_until: int = 0

    @property
    def label(self) -> str:
        return "secu" if self.node_class == "secu" else f"ecu{self.node_id}"


class Network:
    """Event-driven broadcast bus with registered protocol nodes."""

    def __init__(self, cfg: BusConfig, latency: dict[str, dict[str, int]]):
        self.cfg = cfg
        self.latency = latency
        self.now = 0
        self.sent: list[CanFdFrame] = []    # every frame, in transmission order
        self.rejections: list[dict] = []
        self._nodes: dict[int, _Node] = {}
        self._heap: list = []
        self._serial = 0
        self._pending: list = []            # (can_id, serial, frame)
        self._transmitting: Optional[CanFdFrame] = None
        self._msg_seq = 0
        self._kind_sent: dict[MsgKind, int] = {k: 0 for k in MsgKind}
        self._tampers: list[TamperAction] = []
        self._replays: list[ReplayAction] = []
        self._captures: dict[tuple, list] = {}    # (origin, seq) -> [(frames, delay)]
        self._partial: dict[tuple, dict] = {}     # (sender, seq) -> {index: frame}

    # -- topology ---------------------------------------------------------

    def add_secu(self, machine: Secu) -> None:
        self._add_node(_Node(SECU_ID, SECU_CAN_ID, "secu", machine))

    def add_ecu(self, machine: Ecu, can_id: Optional[int] = None) -> None:
        cid = ECU_CAN_BASE + machine.ecu_id if can_id is None else can_id
        self._add_node(_Node(machine.ecu_id, cid, "ecu", machine))

    def _add_node(self, node: _Node) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node

    @property
    def frames(self) -> int:
        """Key-management frames, adversary frames and replay copies included."""
        return sum(f.kind is not None for f in self.sent)

    @property
    def data_frames(self) -> int:
        return sum(f.kind is None for f in self.sent)

    @property
    def logical_messages(self) -> int:
        """Messages the protocol nodes sent, each counted by its first frame.
        Complete once the bus is quiescent, when every queued frame is sent."""
        return sum(f.kind is not None and f.frag_index == 0 and
                   f.origin != ADVERSARY_ID for f in self.sent)

    # -- scheduling -------------------------------------------------------

    def _work(self, node: _Node, ops: tuple[str, ...]) -> int:
        """Run ops on a node once it is free; returns when it is free again."""
        table = self.latency[node.node_class]
        node.busy_until = max(self.now, node.busy_until) + \
            sum(table[op] for op in ops)
        return node.busy_until

    def schedule_protocol_send(self, sender_id: int,
                               msgs: list[WireMessage]) -> None:
        """Queue messages from one node, charging its compute serially.

        Each message's operations run before it is offered to the bus, one
        message after another, mirroring a single-core node working through
        its loop.
        """
        node = self._nodes[sender_id]
        for msg in msgs:
            t = self._work(node, MESSAGE_OPS[msg.kind])
            self._send_message(node.node_id, node.can_id, msg, t)

    def schedule_data_frame(self, sender_id: int) -> None:
        """Queue one plain application frame now (counter tick driver)."""
        node = self._nodes[sender_id]
        frame = CanFdFrame(
            can_id=node.can_id, payload=_DATA_PAYLOAD, kind=None,
            sender=sender_id, receiver=None, origin=sender_id)
        self._schedule(frame, self.now)

    def inject_adversary(self, action: Union[TamperAction, ReplayAction]) -> None:
        """Register a tamper or replay for every message sent after it."""
        if isinstance(action, TamperAction):
            self._tampers.append(action)
        else:
            self._replays.append(action)

    def forge(self, msg: WireMessage, at_us: int) -> None:
        """Send a fabricated message under the adversary's CAN id."""
        self._send_message(ADVERSARY_ID, ADVERSARY_CAN_ID, msg, at_us)

    def _send_message(self, origin: int, can_id: int, msg: WireMessage,
                      t: int) -> None:
        self._msg_seq += 1
        frames = fragment(msg, can_id, self._msg_seq, origin)
        occurrence = self._kind_sent[msg.kind]
        self._kind_sent[msg.kind] = occurrence + 1
        for tamper in self._tampers:
            if tamper.kind is msg.kind and tamper.occurrence == occurrence:
                self._apply_tamper(frames, tamper)
        for replay in self._replays:
            if replay.kind is msg.kind and replay.occurrence == occurrence:
                copies = [dataclasses.replace(f, origin=ADVERSARY_ID)
                          for f in frames]
                self._captures.setdefault((origin, frames[0].msg_seq), []) \
                    .append((copies, replay.delay_us))
        for f in frames:
            self._schedule(f, t)

    @staticmethod
    def _apply_tamper(frames: list[CanFdFrame], tamper: TamperAction) -> None:
        # The bit lies inside the body: the harness checks it before any send.
        byte_idx, bit_in_byte = divmod(tamper.bit, 8)
        frag, offset = divmod(byte_idx, FRAME_DATA_MAX)
        payload = bytearray(frames[frag].payload)
        payload[FRAG_HEADER_LEN + offset] ^= 1 << bit_in_byte
        frames[frag].payload = bytes(payload)

    # -- event loop -------------------------------------------------------

    def _schedule(self, frame: CanFdFrame, t: int) -> None:
        """Schedule a frame event: the frame on the wire ends its
        transmission at ``t``, any other frame becomes ready at ``t``."""
        self._serial += 1
        heapq.heappush(self._heap, (t, self._serial, frame))

    def _try_start(self) -> None:
        # Lowest CAN id wins arbitration; ties resolve in readiness order.
        if self._transmitting is not None or not self._pending:
            return
        _, _, frame = heapq.heappop(self._pending)
        frame.timestamp_us = self.now
        self._transmitting = frame
        self.sent.append(frame)
        self._schedule(frame, self.now + frame_time_us(frame, self.cfg))

    def _on_tx_done(self, frame: CanFdFrame) -> None:
        self._transmitting = None
        if frame.kind is None:
            for node_id in sorted(self._nodes):
                self._tick_node(self._nodes[node_id])
            return
        # Reassemble each set once and hand it to the nodes whose acceptance
        # filter passes it: a seed to every node but its sender, whatever its
        # receiver says, and any other kind to its receiver alone.
        key = (frame.sender, frame.msg_seq)
        parts = self._partial.setdefault(key, {})
        parts[frame.frag_index] = frame
        if len(parts) == frame.frag_total:
            del self._partial[key]
            # Sequence numbers are unique, tampers flip only body bits, and
            # frames under one CAN id leave arbitration in readiness order,
            # so a complete set always reassembles.
            msg = reassemble(list(parts.values()))
            if msg.kind is MsgKind.SEED_BROADCAST:
                for node_id in sorted(self._nodes):
                    if node_id != frame.origin:
                        self._dispatch(self._nodes[node_id], msg)
            elif msg.receiver in self._nodes:
                self._dispatch(self._nodes[msg.receiver], msg)
        if frame.frag_index == frame.frag_total - 1:
            for copies, delay in self._captures.pop(
                    (frame.origin, frame.msg_seq), ()):
                for f in copies:
                    self._schedule(f, self.now + delay)

    def _tick_node(self, node: _Node) -> None:
        machine = node.machine
        if not isinstance(machine, Ecu) or machine.session is None:
            return
        if machine.tick_counter():
            self._work(node, ROTATION_OPS)

    def _dispatch(self, node: _Node, msg: WireMessage) -> None:
        # State commits in delivery order; busy_until only accounts for the
        # compute time until the node's result is ready. Messages a node
        # ignores cost nothing, mirroring hardware id filtering.
        outcome = node.machine.handle(msg)
        if outcome.disposition is Disposition.IGNORED:
            return
        finish = self._work(node, MESSAGE_OPS[msg.kind])
        if outcome.rejected:
            self.rejections.append({
                "time_us": finish, "node": node.label,
                "kind": msg.kind.value, "reason": outcome.reason})

    def run_to_quiescence(self) -> int:
        """Process events until the queue drains; returns the final time,
        the later of the last event and the last compute finish of any node.

        Arbitration runs only once every event at the current instant has
        been seen, so frames queued at the same microsecond genuinely
        contend instead of the first enqueued one grabbing the bus.
        """
        while self._heap:
            self.now, _, frame = heapq.heappop(self._heap)
            if frame is self._transmitting:
                self._on_tx_done(frame)
            else:                   # ready: a fresh serial keeps FIFO by readiness
                self._serial += 1
                heapq.heappush(self._pending, (frame.can_id, self._serial, frame))
            if not self._heap or self._heap[0][0] != self.now:
                self._try_start()
        self.now = max([self.now] + [n.busy_until for n in self._nodes.values()])
        return self.now

    def write_trace_csv(self, path: str) -> None:
        """One row per frame sent, in transmission order."""
        with open(path, "w") as fh:
            fh.write("timestamp_us,can_id,frag,payload_hex\n")
            for f in self.sent:
                frag = ("data" if f.kind is None else
                        f"{f.msg_seq}:{f.frag_index}/{f.frag_total}")
                fh.write(f"{f.timestamp_us},{f.can_id:#05x},{frag},{f.payload.hex()}\n")
