"""Symmetric-primitive tests: published standard vectors plus frozen goldens.

Golden values for the package-specific derivations were computed once with
an independent script (plain hashlib/hmac, no package imports) and frozen
here.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor
from random import Random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canvault import primitives as prim
from canvault._libcrypto import aes128_ctr
from canvault.errors import DecryptError
from canvault.group import GroupElement, get_group
from support import elements, mul

# CTR bodies at and around AES block edges (48 is three blocks) and one
# frame's 60 data bytes.
BODY_LENGTHS = (0, 1, 15, 16, 17, 48, 60, 61)
# Counter blocks whose increment wraps all 128 bits, or carries from the
# low 64 bits into the high 64.
WRAP_NONCES = (b"\xff" * 16, bytes(8) + b"\xff" * 8)
blocks = st.binary(min_size=16, max_size=16)


def oracle_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """AES-128-CTR from the ``cryptography`` package, the tests' oracle."""
    enc = Cipher(algorithms.AES(key), modes.CTR(nonce)).encryptor()
    return enc.update(data) + enc.finalize()


@pytest.fixture(scope="module")
def toy():
    return get_group("toy23")


class TestPublishedVectors:
    """Each core primitive must reproduce its standard's test vectors."""

    def test_sha256_abc(self):
        assert prim.sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad")

    def test_sha256_empty(self):
        assert prim.sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855")

    def test_hmac_sha256_rfc4231_case1(self):
        # RFC 4231's vectors use 20-byte keys while the protocol API pins MAC
        # keys at 32 bytes, so check the core against the published vector
        # and then check the package wrapper delegates to that same core.
        import hmac as stdlib_hmac
        core = lambda key, msg: stdlib_hmac.new(key, msg, hashlib.sha256)
        assert core(bytes.fromhex("0b" * 20), b"Hi There").hexdigest() == (
            "b0344c61d8db38535ca8afceaf0bf12b"
            "881dc200c9833da726e9376c2e32cff7")
        key32 = bytes(range(32))
        assert prim.hmac_tag(b"Hi There", key32) == \
            core(key32, b"Hi There").digest()

    def test_hmac_sha256_rfc4231_case2_jefe(self):
        import hmac as stdlib_hmac
        assert stdlib_hmac.new(b"Jefe", b"what do ya want for nothing?",
                               hashlib.sha256).hexdigest() == (
            "5bdcc146bf60754e6a042426089575c7"
            "5a003f089d2739839dec58b964ec3843")

    def test_hkdf_rfc5869_case1(self):
        ikm = bytes.fromhex("0b" * 22)
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        prk = prim.hkdf_extract(salt, ikm)
        assert prk.hex() == (
            "077709362c2e32df0ddc3f0dc47bba63"
            "90b6c73bb50f9c3122ec844ad7c2b3e5")
        okm = prim.hkdf_expand(prk, info, 42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865")

    def test_hkdf_rfc5869_case3_zero_salt_empty_info(self):
        ikm = bytes.fromhex("0b" * 22)
        okm = prim.hkdf_expand(prim.hkdf_extract(b"\x00" * 32, ikm), b"", 42)
        assert okm.hex() == (
            "8da4e775a563c18f715f802a063c5a31"
            "b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8")

    def test_aes128_fips197_block(self):
        # CTR's first keystream block is the cipher of the nonce, so a zero
        # block encrypted under that nonce is the FIPS-197 C.1 ciphertext.
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        block = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert prim.sym_encrypt(bytes(16), key, block)[16:].hex() == (
            "69c4e0d86a7b0430d8cdb78070b4c55a")

    def test_aes128_ctr_sp800_38a_f51(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        plaintext = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51")
        out = prim.sym_encrypt(plaintext, key, counter)
        assert out[:16] == counter
        assert out[16:].hex() == (
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff")


class TestElementHashes:
    def test_hash_to_key_golden(self, toy):
        # Independently computed: SHA-256("KEYH" || 0x02)
        assert prim.hash_to_key(toy, GroupElement(2)).hex() == (
            "c2a8258d9304a802221ac81eed31851e"
            "a2a425f06118dc1bfd6e6bfc1c1edad4")

    def test_hash_to_key_agrees_across_equal_elements(self, toy):
        # 16^3 mod 23 = 2, so hashing exp(16, 3) must equal hashing 2.
        assert prim.hash_to_key(toy, toy.exp(GroupElement(16), 3)) == \
            prim.hash_to_key(toy, GroupElement(2))

    def test_hash_to_scalar_golden(self, toy):
        # Independently computed: SHA-256("TCRH" || 0x10) mod 11 = 4
        assert prim.hash_to_scalar(toy, GroupElement(16)) == 4

    def test_hash_to_scalar_deterministic_and_in_range(self, toy):
        for e in elements(toy):
            s = prim.hash_to_scalar(toy, e)
            assert s == prim.hash_to_scalar(toy, e)
            assert 0 <= s < toy.order

    def test_hash_to_scalar_range_production(self):
        big = get_group("schnorr256")
        cur = big.generator
        for _ in range(200):
            cur = mul(big, cur, big.generator)
            assert 0 <= prim.hash_to_scalar(big, cur) < big.order

    def test_hash_roles_are_domain_separated(self, toy):
        e = GroupElement(2)
        key = prim.hash_to_key(toy, e)
        raw = hashlib.sha256(toy.encode_element(e)).digest()
        assert key != raw


class TestKeySplitting:
    def test_split_golden(self):
        enc, mac = prim.hkdf_split(b"\x11" * 32, b"phase3")
        assert enc.hex() == "b5ea9ceac33c207c5d2a19e37ba92e4b"
        assert mac.hex() == ("553ccedcd6ac8f1e04b87877885105f0"
                             "30203ea9ceeb27378c2c845df88c031c")

    def test_split_shape_and_determinism(self):
        enc, mac = prim.hkdf_split(b"k" * 32, b"phase3")
        assert (len(enc), len(mac)) == (16, 32)
        assert prim.hkdf_split(b"k" * 32, b"phase3") == (enc, mac)

    def test_split_info_labels_separate(self):
        a = prim.hkdf_split(b"k" * 32, b"phase3")
        b = prim.hkdf_split(b"k" * 32, b"phase4")
        assert a != b

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=100)
    def test_split_halves_never_coincide(self, ikm):
        enc, mac = prim.hkdf_split(ikm, b"phase3")
        assert enc != mac
        assert enc != mac[:16]

    def test_expand_refuses_more_than_255_blocks(self):
        assert len(prim.hkdf_expand(b"k" * 32, b"", 255 * 32)) == 255 * 32
        with pytest.raises(ValueError, match="HKDF output too long"):
            prim.hkdf_expand(b"k" * 32, b"", 255 * 32 + 1)

    def test_split_rejects_empty_ikm(self):
        with pytest.raises(ValueError):
            prim.hkdf_split(b"", b"phase3")


class TestSessionDerivation:
    def test_session_golden_round0_and_round1(self):
        seed, key = b"\x22" * 16, b"\x33" * 16
        assert prim.hkdf_session(seed, 0, key).hex() == (
            "70384c1f72be52c5e41117c1b896ebfe"
            "02fd3f26624bd292472540888fbfe0b6")
        assert prim.hkdf_session(seed, 1, key).hex() == (
            "c751a609d1835572a8b6cae6245b9029"
            "d3b487b1f3a296d31780dd220f4d9039")

    def test_rounds_differ_and_repeat(self):
        seed, key = b"s" * 16, b"k" * 16
        r0 = prim.hkdf_session(seed, 0, key)
        r1 = prim.hkdf_session(seed, 1, key)
        assert r0 != r1
        assert prim.hkdf_session(seed, 0, key) == r0

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            prim.hkdf_session(b"s" * 16, -1, b"k" * 16)


class TestMac:
    def test_round_trip(self):
        key = b"m" * 32
        tag = prim.hmac_tag(b"payload", key)
        assert prim.hmac_verify(b"payload", key, tag)

    def test_every_tag_bit_flip_fails(self):
        key = b"m" * 32
        msg = b"frame contents"
        tag = bytearray(prim.hmac_tag(msg, key))
        for bit in range(len(tag) * 8):
            tag[bit // 8] ^= 1 << (bit % 8)
            assert not prim.hmac_verify(msg, key, bytes(tag))
            tag[bit // 8] ^= 1 << (bit % 8)

    @given(st.binary(max_size=128), st.integers(min_value=0))
    @settings(max_examples=100)
    def test_message_bit_flip_fails(self, msg, seed):
        if not msg:
            return
        key = b"m" * 32
        tag = prim.hmac_tag(msg, key)
        bit = seed % (len(msg) * 8)
        mutated = bytearray(msg)
        mutated[bit // 8] ^= 1 << (bit % 8)
        assert not prim.hmac_verify(bytes(mutated), key, tag)

    def test_wrong_key_length_rejected(self):
        with pytest.raises(ValueError):
            prim.hmac_tag(b"x", b"short")


class TestSymmetricCipher:
    @given(st.binary(max_size=64))
    @settings(max_examples=100)
    def test_round_trip(self, plaintext):
        key, nonce = b"k" * 16, b"n" * 16
        assert prim.sym_decrypt(prim.sym_encrypt(plaintext, key, nonce), key) \
            == plaintext

    def test_distinct_nonces_give_distinct_ciphertexts(self):
        key = b"k" * 16
        secret = b"s" * 16
        a = prim.sym_encrypt(secret, key, b"\x00" * 16)
        b = prim.sym_encrypt(secret, key, b"\x01" + b"\x00" * 15)
        assert a != b
        assert a[16:] != b[16:]

    def test_truncated_ciphertext_rejected(self):
        with pytest.raises(DecryptError):
            prim.sym_decrypt(b"\x00" * 15, b"k" * 16)

    def test_role_length_enforcement(self):
        with pytest.raises(ValueError):
            prim.sym_encrypt(b"x", b"k" * 32, b"n" * 16)   # MAC key in enc slot
        with pytest.raises(ValueError):
            prim.sym_encrypt(b"x", b"k" * 16, b"n" * 8)
        wrapped = prim.sym_encrypt(b"x", b"k" * 16, b"n" * 16)
        for key in (b"k" * 15, b"k" * 32):
            with pytest.raises(ValueError, match="encryption key must be 16 bytes"):
                prim.sym_decrypt(wrapped, key)


class TestCtrAgainstOracle:
    """libcrypto's AES-128-CTR, through ``sym_encrypt`` and ``sym_decrypt``,
    against the ``cryptography`` package."""

    @staticmethod
    def check(key: bytes, nonce: bytes, body: bytes):
        wrapped = prim.sym_encrypt(body, key, nonce)
        assert wrapped == nonce + oracle_ctr(key, nonce, body)
        assert prim.sym_decrypt(wrapped, key) == body

    @pytest.mark.parametrize("length", BODY_LENGTHS)
    def test_body_lengths(self, length):
        rng = Random(length)
        for _ in range(20):
            self.check(rng.randbytes(16), rng.randbytes(16), rng.randbytes(length))

    @pytest.mark.parametrize("nonce", WRAP_NONCES, ids=["wrap128", "carry64"])
    @pytest.mark.parametrize("length", BODY_LENGTHS + (200,))
    def test_counter_wrap_and_carry(self, nonce, length):
        rng = Random(length)
        self.check(rng.randbytes(16), nonce, rng.randbytes(length))

    @settings(max_examples=200, deadline=None)
    @given(key=blocks, nonce=blocks, body=st.binary(max_size=200))
    @example(key=bytes(16), nonce=WRAP_NONCES[0], body=bytes(200))
    @example(key=bytes(16), nonce=WRAP_NONCES[1], body=bytes(200))
    def test_draws(self, key, nonce, body):
        self.check(key, nonce, body)

    @pytest.mark.parametrize("key_len, iv_len",
                             [(15, 16), (17, 16), (32, 16), (16, 15), (16, 17)])
    def test_refuses_other_key_and_iv_lengths(self, key_len, iv_len):
        with pytest.raises(ValueError):
            aes128_ctr(bytes(key_len), bytes(iv_len), b"data")

    def test_threads_match_serial(self):
        rng = Random(4)
        jobs = [(rng.randbytes(16), rng.randbytes(16), rng.randbytes(rng.randrange(201)))
                for _ in range(2000)]
        serial = [aes128_ctr(*job) for job in jobs]
        with ThreadPoolExecutor(4) as pool:
            assert list(pool.map(lambda job: aes128_ctr(*job), jobs)) == serial
        assert serial[:50] == [oracle_ctr(*job) for job in jobs[:50]]
