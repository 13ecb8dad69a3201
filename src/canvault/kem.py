"""Chosen-ciphertext-secure key encapsulation over a prime-order group.

The central node encapsulates a fresh shared secret to each unit's public
key. The unit decodes the received body with :func:`decode_ciphertext`,
which refuses a ``c`` outside the subgroup, then decapsulates: before
deriving anything, it recomputes the binding element to confirm the
ciphertext is consistent. Tampered or forged ciphertexts fail one of the two
and are rejected.

Construction sketch (all within an injected :class:`~canvault.group.Group`):

* keypair: secret exponents ``(x, y)``, public ``(u, v) = (g^x, g^y)``
* encapsulate: pick ``r``; ciphertext is ``(c, binding) = (g^r, (u^t v)^r)``
  where ``t`` hashes ``c`` to an exponent; the shared key is ``H(u^r)``
* decapsulate: accept iff ``binding == c^(x*t + y)``, then key = ``H(c^x)``

Both sides reach the same key because ``u^r = (g^x)^r = (g^r)^x = c^x``.
"""

from __future__ import annotations

from random import Random
from typing import NamedTuple

from . import primitives
from .errors import ConsistencyError, DecodeError
from .group import Group, GroupElement

PAIRWISE_KEY_LEN = 32


class KemCiphertext(NamedTuple):
    """Encapsulation of one pairwise secret.

    ``ephemeral`` is the fresh public element g^r; ``binding`` ties the
    ciphertext to the receiver's keypair and is what the consistency check
    recomputes.
    """

    ephemeral: GroupElement
    binding: GroupElement


class EcuKeyPair(NamedTuple):
    """Long-term keypair provisioned onto one unit.

    ``key_exp`` is the exponent that recovers the shared key; ``bind_exp``
    only feeds the consistency check. ``pub_key`` and ``pub_bind`` are their
    public counterparts.
    """

    ecu_id: int
    key_exp: int
    bind_exp: int
    pub_key: GroupElement
    pub_bind: GroupElement

    @property
    def public(self) -> tuple[GroupElement, GroupElement]:
        return (self.pub_key, self.pub_bind)


def keypair(group: Group, ecu_id: int, x: int, y: int) -> EcuKeyPair:
    """The keypair of secret exponents ``(x, y)``: the one derivation of a
    unit's public halves ``(g^x, g^y)``, for inline keygen and keyfiles alike."""
    return EcuKeyPair(ecu_id, x, y,
                      group.exp(group.generator, x), group.exp(group.generator, y))


def keygen(group: Group, ecu_id: int, rng: Random) -> EcuKeyPair:
    """Draw a fresh keypair for one unit."""
    x = group.random_scalar(rng)
    y = group.random_scalar(rng)
    return keypair(group, ecu_id, x, y)


def encapsulate(
    group: Group,
    public: tuple[GroupElement, GroupElement],
    rng: Random,
) -> tuple[bytes, KemCiphertext]:
    """Produce (shared key, ciphertext) under the receiver's public pair."""
    u, v = public
    r = group.random_scalar(rng)
    c = group.exp(group.generator, r)
    t = primitives.hash_to_scalar(group, c)
    shared = group.exp(u, r)
    # (u^t v)^r == (u^r)^t v^r for any u, v, and u^r is needed anyway.
    binding = group.exp2(shared, t, v, r)
    key = primitives.hash_to_key(group, shared)
    return key, KemCiphertext(ephemeral=c, binding=binding)


def decapsulate(group: Group, keypair: EcuKeyPair, ct: KemCiphertext) -> bytes:
    """Recover the shared key, rejecting inconsistent ciphertexts.

    ``ct.ephemeral`` must be a subgroup member, as :func:`decode_ciphertext`
    returns it; the binding need only be a residue. A member ``c`` gives a
    member ``c^(xt+y)``, so a non-member binding never matches, and the
    binding's membership is read only on a mismatch, to give the reason.

    Raises:
        DecodeError: the binding does not match and is not a subgroup member.
        ConsistencyError: the binding is a member and does not match the one
            implied by the keypair, i.e. the ciphertext was forged or mauled.
    """
    c = ct.ephemeral
    t = primitives.hash_to_scalar(group, c)
    # Exponents act modulo the group order, so reduce the combined exponent.
    expected = group.exp(c, (keypair.key_exp * t + keypair.bind_exp) % group.order)
    if expected != ct.binding:
        if not group.is_member(ct.binding):
            raise DecodeError("binding is not a subgroup member")
        raise ConsistencyError("ciphertext binding check failed")
    return primitives.hash_to_key(group, group.exp(c, keypair.key_exp))


def encode_ciphertext(group: Group, ct: KemCiphertext) -> bytes:
    """Fixed-length wire form: ephemeral element followed by binding element."""
    return group.encode_element(ct.ephemeral) + group.encode_element(ct.binding)


def decode_ciphertext(group: Group, data: bytes) -> KemCiphertext:
    """Inverse of :func:`encode_ciphertext`, and the one decoder of a received
    body: ``c`` must be a subgroup member (the small-subgroup defence), the
    binding only a residue, whose membership :func:`decapsulate` reads.

    Raises:
        DecodeError: a half of the wrong length, a non-member ``c``, or a
            binding outside [1, modulus).
    """
    n = group.element_len
    return KemCiphertext(ephemeral=group.decode_element(data[:n]),
                         binding=group.decode_residue(data[n:]))
