"""Deterministic symmetric primitives for the key distribution phases.

SHA-256 and HMAC come from the standard library, HKDF is the usual
extract-and-expand construction on top of HMAC-SHA256, and AES-128-CTR is
``canvault._libcrypto.aes128_ctr``, on the libcrypto that CPython's
``_hashlib`` module links. ``canvault._libcrypto``, and ``ctypes`` with it,
loads on the first AES call, never at import. Everything here is a pure
function; all of it is pinned by published test vectors in the test suite.

Key lengths are enforced at the call boundary: encryption keys are 16 bytes,
MAC keys 32 bytes. Handing the wrong role to a function is a bug, not a
protocol event, so it raises ``ValueError`` rather than a protocol error.

The two group-element hashes share one SHA-256 core but are domain-separated
with distinct prefixes so a key-derivation digest can never collide with an
exponent digest.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

from .errors import DecryptError
from .group import Group, GroupElement

ENC_KEY_LEN = 16
MAC_KEY_LEN = 32
NONCE_LEN = 16

_KEY_HASH_PREFIX = b"KEYH"
_SCALAR_HASH_PREFIX = b"TCRH"


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def hash_to_key(group: Group, e: GroupElement) -> bytes:
    """Map a group element to 32 bytes of key material."""
    return sha256(_KEY_HASH_PREFIX + group.encode_element(e))


def hash_to_scalar(group: Group, e: GroupElement) -> int:
    """Map a group element to an exponent in [0, order)."""
    digest = sha256(_SCALAR_HASH_PREFIX + group.encode_element(e))
    return int.from_bytes(digest, "big") % group.order


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """RFC 5869 extract step with HMAC-SHA256."""
    return _hmac.new(salt, ikm, hashlib.sha256).digest()


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """RFC 5869 expand step with HMAC-SHA256."""
    if length > 255 * 32:
        raise ValueError("requested HKDF output too long")
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = _hmac.new(prk, block + info + bytes([counter]), hashlib.sha256).digest()
        okm += block
        counter += 1
    return okm[:length]


def hkdf_split(ikm: bytes, info: bytes) -> tuple[bytes, bytes]:
    """Derive an (encryption key, MAC key) pair from shared key material.

    Extract uses a fixed all-zero salt; the 48-byte expansion is split into
    a 16-byte encryption key and a 32-byte MAC key.
    """
    if not ikm:
        raise ValueError("ikm must be nonempty")
    okm = hkdf_expand(hkdf_extract(b"\x00" * 32, ikm), info, ENC_KEY_LEN + MAC_KEY_LEN)
    return okm[:ENC_KEY_LEN], okm[ENC_KEY_LEN:]


def hkdf_session(seed: bytes, round_index: int, key: bytes) -> bytes:
    """Derive the 32-byte session key for one round.

    The seed (or previous round key) is the input keying material, ``key``
    acts as the salt, and the round index is the big-endian info label, so
    every node that agrees on the three inputs derives the same key.
    """
    if round_index < 0:
        raise ValueError("round_index must be >= 0")
    prk = hkdf_extract(key, seed)
    return hkdf_expand(prk, round_index.to_bytes(8, "big"), 32)


def hmac_tag(msg: bytes, key: bytes) -> bytes:
    if len(key) != MAC_KEY_LEN:
        raise ValueError(f"MAC key must be {MAC_KEY_LEN} bytes")
    return _hmac.new(key, msg, hashlib.sha256).digest()


def hmac_verify(msg: bytes, key: bytes, tag: bytes) -> bool:
    """True iff the recomputed tag equals ``tag`` over its full width."""
    return _hmac.compare_digest(hmac_tag(msg, key), tag)


def _ctr_stream(key: bytes, nonce: bytes, data: bytes) -> bytes:
    # Imported here so that setup loads neither _libcrypto nor ctypes.
    from ._libcrypto import aes128_ctr
    return aes128_ctr(key, nonce, data)


def sym_encrypt(plaintext: bytes, key: bytes, nonce: bytes) -> bytes:
    """AES-128-CTR; the nonce is the initial counter block and is carried
    as the ciphertext prefix."""
    if len(key) != ENC_KEY_LEN:
        raise ValueError(f"encryption key must be {ENC_KEY_LEN} bytes")
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    return nonce + _ctr_stream(key, nonce, plaintext)


def sym_decrypt(ciphertext: bytes, key: bytes) -> bytes:
    """Invert :func:`sym_encrypt`.

    Raises:
        DecryptError: ciphertext shorter than its nonce prefix (truncation).
    """
    if len(key) != ENC_KEY_LEN:
        raise ValueError(f"encryption key must be {ENC_KEY_LEN} bytes")
    if len(ciphertext) < NONCE_LEN:
        raise DecryptError("ciphertext truncated: shorter than its nonce")
    return _ctr_stream(key, ciphertext[:NONCE_LEN], ciphertext[NONCE_LEN:])
