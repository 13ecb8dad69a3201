"""The adversary on the bus: its actions and the one object that takes them.

A tamper flips body bits of a message in flight, a replay re-sends a verbatim
copy of its frames, and a forgery is a fabricated message sent under the
adversary's CAN id. Tampers and replays are armed by (kind, occurrence), an
occurrence counting every message of the kind in send order, forgeries
included. The bus hands every message to :meth:`Adversary.on_send`, and
:meth:`Adversary.start` sends the forgeries through the bus.
"""

from __future__ import annotations

from random import Random
from typing import Iterable, NamedTuple, Optional

from .group import Group
from .protocol import SECU_ID, MsgKind, WireMessage, body_length

ADVERSARY_CAN_ID = 0x7FF
ADVERSARY_ID = -2           # origin marker for injected frames


class TamperAction(NamedTuple):
    """Flip one bit of a message body while its frame is in flight.

    ``occurrence`` counts messages of the kind in send order; ``bit`` indexes
    into the body, LSB-first within each byte.
    """
    kind: MsgKind
    bit: int
    occurrence: int = 0


class ReplayAction(NamedTuple):
    """Re-inject a verbatim copy of a captured message's frames."""
    kind: MsgKind
    occurrence: int = 0
    delay_us: int = 0


class ForgeAction(NamedTuple):
    """Send a fabricated message at a chosen time under the adversary id;
    its body is drawn from the adversary stream, its sender is the SECU."""
    kind: MsgKind
    receiver: Optional[int] = None
    at_us: int = 0


# A config entry names its action and, as ``target``, the action's first
# field ``kind``; its other keys are the action's other fields and defaults.
ACTIONS = {"tamper": TamperAction, "replay": ReplayAction, "forge": ForgeAction}


class Adversary:
    """One run's adversary, from its actions in config order, the group its
    forged bodies are drawn in and the run's seed. Its occurrence counter
    starts at zero, so each bus needs its own."""

    def __init__(self, actions=(), group: Optional[Group] = None, seed: int = 0):
        self._group = group
        self._rng = Random(f"canvault:{seed}:adversary")
        self._forges = [a for a in actions if isinstance(a, ForgeAction)]
        self._kind_sent = dict.fromkeys(MsgKind, 0)
        # (kind, occurrence) -> (tamper bits, replay delays) of that message
        self._armed: dict[tuple, tuple[list[int], list[int]]] = {}
        for action in actions:
            if not isinstance(action, ForgeAction):
                bits, delays = self._armed.setdefault(
                    (action.kind, action.occurrence), ([], []))
                if isinstance(action, TamperAction):
                    bits.append(action.bit)
                else:
                    delays.append(action.delay_us)

    def start(self, net) -> None:
        """Send every forgery through ``net``, drawing bodies in config order."""
        for kind, receiver, at_us in self._forges:
            msg = WireMessage(kind, SECU_ID, receiver, self._forged_body(kind))
            net.send(ADVERSARY_ID, ADVERSARY_CAN_ID, msg, at_us)

    def on_send(self, msg: WireMessage) -> tuple[WireMessage, Iterable[int]]:
        """The message as it goes on the wire, and its replay copies' delays."""
        occurrence = self._kind_sent[msg.kind]
        self._kind_sent[msg.kind] = occurrence + 1
        bits, delays = self._armed.get((msg.kind, occurrence), ((), ()))
        if bits:
            # The config checks that each bit lies inside the body.
            body = bytearray(msg.body)
            for bit in bits:
                body[bit // 8] ^= 1 << bit % 8
            msg = msg._replace(body=bytes(body))
        return msg, delays

    def _forged_body(self, kind: MsgKind) -> bytes:
        group = self._group
        if kind is MsgKind.PAIRWISE_CIPHER:
            # Random valid group elements: they decode fine and then fail the
            # decapsulation consistency check.
            return b"".join(group.encode_element(group.exp(
                group.generator, group.random_scalar(self._rng))) for _ in range(2))
        return self._rng.randbytes(body_length(group, kind))
