"""Message-driven state machines for the central node and the regular units.

The key distribution runs in numbered phases:

1. provisioning (offline): every unit gets a long-term keypair, the central
   node gets the public halves.
2. pairwise: the central node encapsulates a fresh 32-byte secret to each
   unit (one unicast message per unit).
3. group secret: the central node draws a 16-byte group secret and sends it
   to each unit encrypted-then-MACed under keys derived from the pairwise
   secret (one unicast message per unit).
4. session: one elected unit broadcasts an authenticated random seed; every
   holder of the group secret derives the same round-0 session key.
5. refresh: message counters drive silent, traffic-free re-derivation of the
   session key for each new round.

The classes here are pure state machines: they consume and produce
:class:`WireMessage` objects and know nothing about frames or timing. A
node's one receive method, ``handle``, returns an :class:`Outcome` with a
reason code rather than raise, and :func:`_open` checks every MAC'd body.
Each node declares its identity on the bus: the CAN id it sends under, the
latency class that times it, its label in rejections and run errors, and the
streams its acceptance filter passes. Each outcome carries the ops its
handling cost, which the bus charges.
"""

from __future__ import annotations

import enum
from collections import deque
from random import Random
from typing import NamedTuple, Optional

from . import kem, primitives
from .errors import ConsistencyError, DecodeError, StateError
from .group import Group, GroupElement

SECU_ID = -1            # node id of the central security unit
SECU_CAN_ID = 0x010     # CAN id the SECU sends under
ECU_CAN_BASE = 0x100    # unit i sends under CAN id ECU_CAN_BASE + i
BROADCAST = None        # receiver value for broadcast messages
ANY_RECEIVER = "*"      # filter wildcard: a stream whatever its receiver field

GROUP_SECRET_LEN = 16
SEED_LEN = 16
MAC_LEN = 32

# Domain-separation labels for the two key-splitting derivations.
_SPLIT_GROUP_INFO = b"phase3"
_SPLIT_SESSION_INFO = b"phase4"

DEFAULT_CTR_MAX = 65_535
DEFAULT_REPLAY_CACHE = 64


class MsgKind(enum.Enum):
    PAIRWISE_CIPHER = "pairwise_cipher"
    GROUP_SECRET = "group_secret"
    SEED_BROADCAST = "seed_broadcast"


class WireMessage(NamedTuple):
    """One logical protocol message, before fragmentation into bus frames."""

    kind: MsgKind
    sender: int
    receiver: Optional[int]     # None for broadcast
    body: bytes


def body_length(group: Group, kind: MsgKind) -> int:
    """Exact body length of a message kind under a group instantiation."""
    if kind is MsgKind.PAIRWISE_CIPHER:
        return 2 * group.element_len
    if kind is MsgKind.GROUP_SECRET:
        # nonce[16] + encrypted secret[16] + mac[32]
        return primitives.NONCE_LEN + GROUP_SECRET_LEN + MAC_LEN
    return SEED_LEN + MAC_LEN


# The ops a message costs its sender and each receiver that handles it, and
# the ops of one key rotation, timed on the node's latency profile.
MESSAGE_OPS: dict[MsgKind, tuple[str, ...]] = {
    MsgKind.PAIRWISE_CIPHER: ("eccdh",),
    MsgKind.GROUP_SECRET: ("hkdf", "aes", "hmac"),
    MsgKind.SEED_BROADCAST: ("hkdf", "hkdf", "hmac"),
}
ROTATION_OPS = ("hkdf",)    # one silent key rotation in Ecu.tick_counter


# The (kind, receiver) streams an acceptance filter passes whatever the
# receiver field says: every seed, and every plain data frame (kind None).
SEEDS = (MsgKind.SEED_BROADCAST, ANY_RECEIVER)
DATA_FRAMES = (None, ANY_RECEIVER)


class Disposition(enum.Enum):
    ACCEPTED = "accepted"
    IGNORED = "ignored"      # passed the filter but not relevant in this phase
    REJECTED = "rejected"    # failed a check; state unchanged


class Outcome(NamedTuple):
    disposition: Disposition
    ops: tuple[str, ...]            # what handling the message cost the node
    reason: Optional[str] = None    # reason code when rejected

    @property
    def accepted(self) -> bool:
        return self.disposition is Disposition.ACCEPTED

    @property
    def rejected(self) -> bool:
        return self.disposition is Disposition.REJECTED


# The op lists are read on each call, so a patched list is charged at once.
def _accepted(msg: WireMessage) -> Outcome:
    return Outcome(Disposition.ACCEPTED, MESSAGE_OPS[msg.kind])


def _rejected(msg: WireMessage, reason: str) -> Outcome:
    return Outcome(Disposition.REJECTED, MESSAGE_OPS[msg.kind], reason)


class Phase(enum.IntEnum):
    INIT = 0
    PAIRWISE = 1
    GROUP_SECRET = 2
    DONE = 3


class SessionState:
    """Per-unit session keying state for phases 4 and 5."""

    __slots__ = ("round_index", "counter", "session_key", "chain_key")

    def __init__(self, round_index: int, counter: int, session_key: bytes,
                 chain_key: bytes):
        self.round_index = round_index
        self.counter = counter
        self.session_key = session_key  # 32-byte working key of the current round
        self.chain_key = chain_key      # 16-byte salt feeding each round derivation


def _group_keys(pairwise: bytes) -> tuple[bytes, bytes]:
    """The wrapping key and the MAC key of a unit's group-secret message."""
    return primitives.hkdf_split(pairwise, _SPLIT_GROUP_INFO)


def _session_keys(group_secret: bytes) -> tuple[bytes, bytes]:
    """The chain key and the seed-MAC key of the session phase."""
    return primitives.hkdf_split(group_secret, _SPLIT_SESSION_INFO)


def session_chain_key(group_secret: bytes) -> bytes:
    """The chain key that every session keyed under ``group_secret`` holds."""
    return _session_keys(group_secret)[0]


def _first_round(seed: bytes, chain_key: bytes) -> SessionState:
    """Round-0 session state keyed from a broadcast seed."""
    key = primitives.hkdf_session(seed, 0, chain_key)
    return SessionState(round_index=0, counter=0, session_key=key,
                        chain_key=chain_key)


class _Refused(Exception):
    """A MAC'd body failed a check; its one argument is the reason code."""


def _open(body: bytes, length: int, secret: Optional[bytes], split,
          seen) -> tuple[bytes, bytes, bytes]:
    """Check a MAC'd body ``data + tag`` and return ``(key, data, tag)``, with
    ``key`` the first of ``split(secret)``. The first failing check raises
    :class:`_Refused`: ``state`` (no secret), ``decode`` (not ``length`` bytes),
    ``replay`` (tag in ``seen``), ``mac``; only a ``mac`` refusal derives keys."""
    if secret is None:
        raise _Refused("state")
    if len(body) != length:
        raise _Refused("decode")
    data, tag = body[:-MAC_LEN], body[-MAC_LEN:]
    if tag in seen:
        raise _Refused("replay")
    key, mac_key = split(secret)
    if not primitives.hmac_verify(data, mac_key, tag):
        raise _Refused("mac")
    return key, data, tag


class Secu:
    """Central security unit: drives phases 2 and 3, observes phase 4.

    The phase attribute only ever advances: INIT -> PAIRWISE -> GROUP_SECRET
    -> DONE. Its acceptance filter passes seeds only.
    """

    node_id = SECU_ID
    can_id = SECU_CAN_ID
    node_class = "secu"
    label = "secu"
    streams = (SEEDS,)

    def __init__(self, group: Group,
                 registry: list[tuple[int, tuple[GroupElement, GroupElement]]]):
        self.group = group
        self.registry = list(registry)
        self.pairwise: dict[int, bytes] = {}
        self.group_secret: Optional[bytes] = None
        self.phase = Phase.INIT

    def run_phase2(self, rng: Random) -> list[WireMessage]:
        """Encapsulate a pairwise secret to every registered unit."""
        if self.phase is not Phase.INIT:
            raise StateError(f"phase 2 requires INIT, node is in {self.phase.name}")
        if not self.registry:
            raise StateError("cannot run phase 2 with an empty registry")
        msgs = []
        for ecu_id, public in self.registry:
            key, ct = kem.encapsulate(self.group, public, rng)
            self.pairwise[ecu_id] = key
            msgs.append(WireMessage(MsgKind.PAIRWISE_CIPHER, SECU_ID, ecu_id,
                                    kem.encode_ciphertext(self.group, ct)))
        self.phase = Phase.PAIRWISE
        return msgs

    def run_phase3(self, rng: Random) -> list[WireMessage]:
        """Distribute one fresh group secret, wrapped per unit."""
        if self.phase is not Phase.PAIRWISE:
            raise StateError(f"phase 3 requires PAIRWISE, node is in {self.phase.name}")
        secret = rng.randbytes(GROUP_SECRET_LEN)
        msgs = []
        for ecu_id, _ in self.registry:
            enc_key, mac_key = _group_keys(self.pairwise[ecu_id])
            nonce = rng.randbytes(primitives.NONCE_LEN)
            wrapped = primitives.sym_encrypt(secret, enc_key, nonce)
            tag = primitives.hmac_tag(wrapped, mac_key)
            msgs.append(WireMessage(MsgKind.GROUP_SECRET, SECU_ID, ecu_id,
                                    wrapped + tag))
        self.group_secret = secret
        self.phase = Phase.GROUP_SECRET
        return msgs

    def handle(self, msg: WireMessage) -> Outcome:
        """Observe a seed broadcast; outside phase 3's wait for it, the seed
        is ignored at no cost."""
        if self.phase is not Phase.GROUP_SECRET:
            return Outcome(Disposition.IGNORED, ())
        try:
            _open(msg.body, body_length(self.group, MsgKind.SEED_BROADCAST),
                  self.group_secret, _session_keys, ())
        except _Refused as refused:
            return _rejected(msg, refused.args[0])
        self.phase = Phase.DONE
        return _accepted(msg)


class Ecu:
    """Regular unit: decapsulates, unwraps the group secret, keys sessions."""

    node_class = "ecu"

    def __init__(self, group: Group, keypair: kem.EcuKeyPair,
                 ctr_max: int = DEFAULT_CTR_MAX,
                 replay_cache_size: int = DEFAULT_REPLAY_CACHE):
        self.group = group
        self.keypair = keypair
        # Plain attributes: the bus reads node_id per delivery and compute
        # charge, and can_id per data frame sent.
        self.node_id = self.ecu_id = keypair.ecu_id
        self.can_id = ECU_CAN_BASE + keypair.ecu_id
        self.label = f"ecu{keypair.ecu_id}"
        # The acceptance filter passes the unit's own pairwise ciphertext and
        # group secret, every seed, and every data frame (kind None).
        self.streams = ((MsgKind.PAIRWISE_CIPHER, self.ecu_id),
                        (MsgKind.GROUP_SECRET, self.ecu_id), SEEDS, DATA_FRAMES)
        self.ctr_max = ctr_max
        self.pairwise: Optional[bytes] = None
        self.group_secret: Optional[bytes] = None
        self.session: Optional[SessionState] = None
        # A bounded FIFO of accepted tags: the oldest is dropped first.
        self.replay_cache = deque(maxlen=replay_cache_size)

    def handle(self, msg: WireMessage) -> Outcome:
        """Take a pairwise ciphertext, a group secret or a seed."""
        try:
            if msg.kind is MsgKind.PAIRWISE_CIPHER:
                ct = kem.decode_ciphertext(self.group, msg.body)
                self.pairwise = kem.decapsulate(self.group, self.keypair, ct)
                return _accepted(msg)
            wrapped = msg.kind is MsgKind.GROUP_SECRET
            key, data, tag = _open(msg.body, body_length(self.group, msg.kind),
                                   self.pairwise if wrapped else self.group_secret,
                                   _group_keys if wrapped else _session_keys,
                                   self.replay_cache)
        except DecodeError:
            return _rejected(msg, "decode")
        except ConsistencyError:
            return _rejected(msg, "consistency")
        except _Refused as refused:
            return _rejected(msg, refused.args[0])
        if wrapped:
            self.group_secret = primitives.sym_decrypt(data, key)
        else:
            self.session = _first_round(data, key)
        self.replay_cache.append(tag)
        return _accepted(msg)

    def run_phase4(self, rng: Random) -> WireMessage:
        """Broadcast a fresh authenticated seed and key round 0 locally."""
        if self.group_secret is None:
            raise StateError("phase 4 requires the group secret")
        seed = rng.randbytes(SEED_LEN)
        chain_key, mac_key = _session_keys(self.group_secret)
        tag = primitives.hmac_tag(seed, mac_key)
        self.session = _first_round(seed, chain_key)
        # Own tag goes in the cache so a replayed copy of this broadcast is
        # recognized even by its original sender.
        self.replay_cache.append(tag)
        return WireMessage(MsgKind.SEED_BROADCAST, self.ecu_id, BROADCAST,
                           seed + tag)

    def on_data_frame(self) -> tuple[str, ...]:
        """Count one data frame seen on the bus; returns the ops it ran,
        :data:`ROTATION_OPS` for a rotation and none otherwise. A unit
        without a session does not count."""
        if self.session is None:
            return ()
        return ROTATION_OPS if self.tick_counter() else ()

    def tick_counter(self) -> bool:
        """Count one data frame; rotate the session key when the round is full.

        The counter runs 0..ctr_max; the tick that would push it past the
        limit performs the silent rotation instead of counting. Returns True
        exactly when a rotation happened. No message is ever produced.
        """
        if self.session is None:
            raise StateError("cannot tick counter before the session exists")
        s = self.session
        if s.counter == self.ctr_max:
            s.counter = 0
            s.round_index += 1
            s.session_key = primitives.hkdf_session(
                s.session_key, s.round_index, s.chain_key)
            return True
        s.counter += 1
        return False
