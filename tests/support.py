"""Helpers only the tests call: group arithmetic beyond what the protocol
uses, a reference ciphertext decode, a least-squares fit, and the acceptance
filter as a predicate.

A group needs no more than the members the protocol calls, so the tests'
oracles for it (products, the identity, enumeration, security level) live
here and work on any :class:`~canvault.group.Group` through its modulus,
order and generator.
"""

from __future__ import annotations

from canvault.group import Group, GroupElement
from canvault.kem import KemCiphertext
from canvault.protocol import ANY_RECEIVER, WireMessage


def identity(group: Group) -> GroupElement:
    return GroupElement(1)


def mul(group: Group, a: GroupElement, b: GroupElement) -> GroupElement:
    return GroupElement((a.value * b.value) % group.modulus)


def elements(group: Group) -> list[GroupElement]:
    """Every subgroup member, by enumerating generator powers. Only sensible
    for the toy group."""
    out = []
    cur = identity(group)
    for _ in range(group.order):
        out.append(cur)
        cur = mul(group, cur, group.generator)
    return out


def decoded_as_members(group: Group, body: bytes) -> KemCiphertext:
    """The reference decode of a ciphertext body: both halves through
    :meth:`~canvault.group.Group.decode_element`, so a non-member binding is
    refused before any binding check."""
    n = group.element_len
    return KemCiphertext(group.decode_element(body[:n]),
                         group.decode_element(body[n:]))


def security_bits(group: Group) -> int:
    """k such that 2^k < order < 2^(k+1)."""
    return group.order.bit_length() - 1


def affine_fit(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Least-squares line a + b*x; returns (a, b, max relative residual)."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    b = sxy / sxx
    a = mean_y - b * mean_x
    max_rel = max(abs(a + b * x - y) / y for x, y in zip(xs, ys))
    return a, b, max_rel


def passes(machine, msg: WireMessage) -> bool:
    """Whether a node's declared acceptance filter passes a message."""
    return (msg.kind, msg.receiver) in machine.streams or \
        (msg.kind, ANY_RECEIVER) in machine.streams
