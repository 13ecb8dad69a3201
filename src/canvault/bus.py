"""Deterministic discrete-event CAN-FD bus.

Models the pieces of the bus that matter for protocol accounting:

* fragmentation of logical messages into frames with at most 64 payload
  bytes (4-byte fragment header + up to 60 data bytes),
* ID-based arbitration: when several frames wait for the bus, the lowest
  CAN id transmits first, ties broken by the order they became ready,
* transmission time from a configurable bitrate and flat per-frame overhead,
* acceptance filtering: each node declares the (kind, receiver) streams it
  listens to, as a CAN controller filters by id, and the bus hands a
  message only to the listeners of its stream,
* per-node compute latency charged per cryptographic operation from the
  latency table of the node's declared class, which times every op of the
  kinds' send costs: a sender pays its kind's ops, and a listener the ops
  its handler or data-frame hook reports, so phase times reflect the hardware,
* one send path, :meth:`Network.send`, that passes every message to the
  run's :class:`~canvault.adversary.Adversary` (which may tamper it or arm
  replays), and one record per fragment set: the set is delivered on its
  last fragment, and its armed replay copies are cut from it there.

The bus knows no protocol rule beyond each kind's send cost, and no node
role: any node that declares its CAN id, latency class, label and streams and
answers :class:`Machine`'s calls joins through :meth:`Network.add`. Everything
is driven by one event heap of frames ordered by (time, insertion serial), so
a (config, seed) pair fully determines the run.
"""

from __future__ import annotations

import bisect
import heapq
import struct
from operator import attrgetter
from typing import Optional, Protocol

from .adversary import ADVERSARY_ID, Adversary
from .errors import ConfigError
from .protocol import ANY_RECEIVER, MESSAGE_OPS, MsgKind, WireMessage

_FRAG_HEADER = struct.Struct(">HBB")     # msg_seq, frag_index, frag_total
FRAG_HEADER_LEN = _FRAG_HEADER.size
MAX_MSG_SEQ = 0xFFFF        # sequence numbers run 1..MAX_MSG_SEQ and never wrap
FRAME_DATA_MAX = 60

_DATA_PAYLOAD = b"\x00" * 8

DEFAULT_BITRATE_BPS = 1_000_000
DEFAULT_FRAME_OVERHEAD_BITS = 128


class BusConfig:
    __slots__ = ("bitrate_bps", "frame_overhead_bits")

    def __init__(self, bitrate_bps: int = DEFAULT_BITRATE_BPS,
                 frame_overhead_bits: int = DEFAULT_FRAME_OVERHEAD_BITS):
        self.bitrate_bps = bitrate_bps
        self.frame_overhead_bits = frame_overhead_bits
        if not 125_000 <= self.bitrate_bps <= 8_000_000:
            raise ConfigError(
                f"bitrate {self.bitrate_bps} outside the CAN/CAN-FD envelope")
        if self.frame_overhead_bits < 0:
            raise ConfigError("frame overhead must be >= 0 bits")


class CanFdFrame:
    """One frame on the bus.

    ``kind``/``sender``/``receiver`` mirror the CAN practice of encoding the
    message stream in the identifier: they are carried out of band and do not
    count toward the payload, which holds only the fragment header and a body
    chunk. ``origin`` records which node physically transmitted the frame
    (the adversary when it replays or forges), while ``sender`` is the claim
    the protocol layer sees. A protocol frame's payload starts with the
    fragment header :func:`fragment` packs, which :attr:`header` reads back;
    a data frame (``kind`` None) carries none.
    """

    __slots__ = ("can_id", "payload", "kind", "sender", "receiver", "origin",
                 "timestamp_us")

    def __init__(self, can_id: int, payload: bytes, kind: Optional[MsgKind],
                 sender: int, receiver: Optional[int], origin: int,
                 timestamp_us: int = -1):
        self.can_id = can_id
        self.payload = payload
        self.kind = kind            # None for plain application data frames
        self.sender = sender
        self.receiver = receiver
        self.origin = origin
        self.timestamp_us = timestamp_us    # start of transmission, set by the bus

    @property
    def header(self) -> tuple[int, int, int]:
        """``(msg_seq, frag_index, frag_total)`` from the payload."""
        return _FRAG_HEADER.unpack_from(self.payload)


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
            origin=msg.sender if origin is None else origin))
    return frames


def reassemble(frames: list[CanFdFrame]) -> WireMessage:
    """Rebuild the logical message from a complete fragment set in index
    order, as the bus delivers it; any other list is refused."""
    if not frames:
        raise ValueError("no frames to reassemble")
    headers = [f.header for f in frames]
    seq, _, total = headers[0]
    if headers != [(seq, i, total) for i in range(total)]:
        raise ValueError("fragments do not form one complete message in order")
    first = frames[0]
    body = b"".join(f.payload[FRAG_HEADER_LEN:] for f in frames)
    return WireMessage(first.kind, first.sender, first.receiver, body)


def frame_time_us(frame: CanFdFrame, cfg: BusConfig) -> int:
    """Wire time of one frame in microseconds, rounded up."""
    bits = cfg.frame_overhead_bits + 8 * len(frame.payload)
    return -(-bits * 1_000_000 // cfg.bitrate_bps)


class Machine(Protocol):
    """A node's state machine, as the bus calls it.

    The node declares its bus identity: ``can_id``, the id its frames carry
    into arbitration; ``node_class``, the key of the latency table that times
    its ops; and ``label``, its name in :attr:`Network.rejections`.
    ``streams`` holds the (kind, receiver) pairs the node's acceptance filter
    passes; kind None is the data frames, and receiver ``ANY_RECEIVER``
    passes a kind whatever the frame's receiver field says. ``handle``
    returns an outcome with ``ops``, ``rejected`` and ``reason``, and
    ``on_data_frame`` the ops it ran; the bus charges both.
    """

    node_id: int
    can_id: int
    node_class: str
    label: str
    streams: tuple[tuple, ...]

    def handle(self, msg: WireMessage): ...

    def on_data_frame(self) -> tuple[str, ...]: ...


_node_id = attrgetter("node_id")


def untimed_ops(table: dict[str, int]) -> list[str]:
    """The ops of the message kinds' send costs that a latency table lacks."""
    return sorted(set().union(*MESSAGE_OPS.values()).difference(table))


class Network:
    """Event-driven broadcast bus with registered protocol nodes; every
    message sent passes through ``adversary``, a fresh idle one if none."""

    def __init__(self, cfg: BusConfig, latency: dict[str, dict[str, int]],
                 adversary: Optional[Adversary] = None):
        self.cfg = cfg
        self.latency = latency
        self.now = 0
        self.sent: list[CanFdFrame] = []    # every frame, in transmission order
        self.rejections: list[dict] = []
        self._nodes: dict[int, Machine] = {}
        self._listeners: dict[tuple, list[Machine]] = {}  # stream -> nodes by id
        self._busy: dict[int, int] = {}     # node id -> end of its compute
        self._heap: list = []
        self._serial = 0
        self._pending: list = []            # (can_id, serial, frame)
        self._transmitting: Optional[CanFdFrame] = None
        self._msg_seq = 0
        self.adversary = Adversary() if adversary is None else adversary
        # (can_id, seq) -> (the set's frames received so far, its replay delays)
        self._sets: dict[tuple, tuple] = {}

    # -- topology ---------------------------------------------------------

    def add(self, node: Machine) -> None:
        """Join a node to the bus under its declared identity; a node whose
        class's latency table does not time every charged op is refused."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        if missing := untimed_ops(self.latency.get(node.node_class, {})):
            raise ConfigError(f"latency table {node.node_class!r} lacks {missing}")
        self._nodes[node.node_id] = node
        self._busy[node.node_id] = 0
        for stream in node.streams:
            listeners = self._listeners.setdefault(stream, [])
            # Nodes usually join in id order; only a late lower id is sorted in.
            if listeners and listeners[-1].node_id > node.node_id:
                bisect.insort(listeners, node, key=_node_id)
            else:
                listeners.append(node)

    def _listening(self, kind: Optional[MsgKind],
                   receiver: Optional[int]) -> list[Machine]:
        """The nodes whose filter passes a (kind, receiver) frame, by id."""
        exact = self._listeners.get((kind, receiver), [])
        wild = self._listeners.get((kind, ANY_RECEIVER), [])
        if not (exact and wild):
            return exact or wild
        merged = {node.node_id: node for node in exact + wild}
        return [merged[i] for i in sorted(merged)]

    # -- scheduling -------------------------------------------------------

    def _work(self, node: Machine, ops: tuple[str, ...]) -> int:
        """Run ops on a node once it is free; returns when it is free again."""
        node_id, table = node.node_id, self.latency[node.node_class]
        end = max(self.now, self._busy[node_id]) + sum(map(table.__getitem__, ops))
        self._busy[node_id] = end
        return end

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
            self.send(node.node_id, node.can_id, msg, t)

    def schedule_data_frame(self, sender_id: int) -> None:
        """Queue one plain application frame now (counter tick driver)."""
        node = self._nodes[sender_id]
        frame = CanFdFrame(
            can_id=node.can_id, payload=_DATA_PAYLOAD, kind=None,
            sender=sender_id, receiver=None, origin=sender_id)
        self._schedule(frame, self.now)

    def send(self, origin: int, can_id: int, msg: WireMessage, t: int) -> None:
        """Offer one message's frames to the bus at ``t`` under ``can_id``,
        as the adversary lets it through; its replay copies follow once the
        original's last frame has left the bus."""
        self._msg_seq += 1
        msg, delays = self.adversary.on_send(msg)
        self._sets[(can_id, self._msg_seq)] = ([], delays)
        for f in fragment(msg, can_id, self._msg_seq, origin):
            self._schedule(f, t)

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
            # Every data-frame listener counts the frame, its sender too.
            for node in self._listening(None, frame.receiver):
                ops = node.on_data_frame()
                if ops:
                    self._work(node, ops)
            return
        seq, index, total = frame.header
        key = (frame.can_id, seq)
        # A replay copy's set has no record before its first frame; it arms none.
        frames, delays = self._sets.setdefault(key, ([], ()))
        frames.append(frame)
        if index != total - 1:
            return
        # Each sequence number has one sender and one CAN id, frames under one
        # CAN id leave arbitration in readiness order, and copies go out only
        # once the original set is delivered, so a set arrives complete and
        # in index order (reassemble refuses one that does not). It goes to
        # every node but its origin whose acceptance filter passes it.
        del self._sets[key]
        msg = reassemble(frames)
        for node in self._listening(msg.kind, msg.receiver):
            if node.node_id != frame.origin:
                self._dispatch(node, msg)
        for delay in delays:
            for f in frames:
                self._schedule(CanFdFrame(f.can_id, f.payload, f.kind, f.sender,
                                          f.receiver, ADVERSARY_ID), self.now + delay)

    def _dispatch(self, node: Machine, msg: WireMessage) -> None:
        # State commits in delivery order; the node's busy time only accounts
        # for the compute time until its result is ready.
        outcome = node.handle(msg)
        finish = self._work(node, outcome.ops)
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
        self.now = max([self.now, *self._busy.values()])
        return self.now

    def write_trace_csv(self, path: str) -> None:
        """One row per frame sent, in transmission order."""
        with open(path, "w") as fh:
            fh.write("timestamp_us,can_id,frag,payload_hex\n")
            for f in self.sent:
                frag = "data" if f.kind is None else "{}:{}/{}".format(*f.header)
                fh.write(f"{f.timestamp_us},{f.can_id:#05x},{frag},{f.payload.hex()}\n")
