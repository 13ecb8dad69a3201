"""KEM tests: a fully forced toy trace, exhaustive toy sweeps against a
modular-arithmetic oracle, and randomized production-group trials."""

from itertools import product
from random import Random

import pytest

import canvault.group
from canvault import kem, primitives
from canvault.errors import ConsistencyError, DecodeError
from canvault.group import Group, GroupElement, get_group


class ScriptedRng:
    """Stand-in RNG returning a scripted sequence of scalar draws."""

    def __init__(self, values):
        self._values = list(values)

    def randrange(self, *_args):
        return self._values.pop(0)


def oracle_accepts(group, x, y, c_val, binding_val) -> bool:
    """Brute-force consistency predicate computed outside the package path."""
    t = primitives.hash_to_scalar(group, GroupElement(c_val))
    return pow(c_val, (x * t + y) % group.order, group.modulus) == binding_val


@pytest.fixture(scope="module")
def toy():
    return get_group("toy23")


@pytest.fixture(scope="module")
def big():
    return get_group("schnorr256")


class TestForcedToyTrace:
    """Forcing x=3, y=5, r=4 and the exponent hash to 7 pins every
    intermediate value of one encapsulation/decapsulation round trip."""

    FORCED_HASH = staticmethod(lambda e: 7)

    def keypair(self, toy):
        return kem.keygen(toy, ecu_id=0, rng=ScriptedRng([3, 5]))

    def test_keygen_publics(self, toy):
        kp = self.keypair(toy)
        assert kp.pub_key == GroupElement(8)      # 2^3 mod 23
        assert kp.pub_bind == GroupElement(9)     # 2^5 mod 23
        assert (kp.key_exp, kp.bind_exp) == (3, 5)

    def test_encapsulation_values(self, toy):
        kp = self.keypair(toy)
        key, ct = kem.encapsulate(toy, kp.public, ScriptedRng([4]),
                                  scalar_hash=self.FORCED_HASH)
        # u^7 = 8^7 = 12; 12*9 = 16; 16^4 = 9; u^4 = 8^4 = 2
        assert ct.ephemeral == GroupElement(16)
        assert ct.binding == GroupElement(9)
        assert key == primitives.hash_to_key(toy, GroupElement(2))

    def test_decapsulation_matches(self, toy):
        kp = self.keypair(toy)
        key, ct = kem.encapsulate(toy, kp.public, ScriptedRng([4]),
                                  scalar_hash=self.FORCED_HASH)
        # combined exponent: 3*7 + 5 = 26 = 4 mod 11; 16^4 = 9 = binding
        out = kem.decapsulate(toy, kp, ct, scalar_hash=self.FORCED_HASH)
        assert out == key == primitives.hash_to_key(toy, GroupElement(2))

    def test_perturbed_binding_rejected(self, toy):
        kp = self.keypair(toy)
        _, ct = kem.encapsulate(toy, kp.public, ScriptedRng([4]),
                                scalar_hash=self.FORCED_HASH)
        bad = kem.KemCiphertext(ct.ephemeral, toy.mul(ct.binding, toy.generator))
        with pytest.raises(ConsistencyError):
            kem.decapsulate(toy, kp, bad, scalar_hash=self.FORCED_HASH)


class TestToyExhaustive:
    def test_round_trip_over_full_secret_space(self, toy):
        """Every (x, y, r) combination agrees on the derived key."""
        for x in range(1, toy.order):
            for y in range(1, toy.order):
                kp = kem.keygen(toy, 0, ScriptedRng([x, y]))
                for r in range(1, toy.order):
                    key, ct = kem.encapsulate(toy, kp.public, ScriptedRng([r]))
                    assert kem.decapsulate(toy, kp, ct) == key

    def test_consistency_predicate_matches_oracle_exactly(self, toy):
        """Decapsulation accepts iff the brute-force oracle accepts, for
        every (c, binding) pair under every keypair."""
        elements = toy.elements()
        for x in range(1, toy.order):
            for y in range(1, toy.order):
                kp = kem.keygen(toy, 0, ScriptedRng([x, y]))
                for c in elements:
                    for binding in elements:
                        ct = kem.KemCiphertext(c, binding)
                        expected = oracle_accepts(toy, x, y, c.value, binding.value)
                        if expected:
                            kem.decapsulate(toy, kp, ct)
                        else:
                            with pytest.raises(ConsistencyError):
                                kem.decapsulate(toy, kp, ct)

    def test_open_ciphertext_matches_decode_then_decapsulate(self, toy):
        """Every pair of one-byte halves, members or not, gets the same key
        or the same refusal from :func:`kem.open_ciphertext` as from
        :func:`kem.decode_ciphertext` followed by :func:`kem.decapsulate`."""
        def outcome(step):
            try:
                return step()
            except (DecodeError, ConsistencyError) as exc:
                return type(exc)

        halves = [*range(25), 255]
        for x, y in [(1, 1), (3, 5), (10, 2), (7, 9)]:
            kp = kem.keygen(toy, 0, ScriptedRng([x, y]))
            for c, binding in product(halves, repeat=2):
                body = bytes([c, binding])
                assert outcome(lambda: kem.open_ciphertext(toy, kp, body)) == \
                    outcome(lambda: kem.decapsulate(
                        toy, kp, kem.decode_ciphertext(toy, body))), (x, y, body)

    def test_every_binding_perturbation_rejected(self, toy):
        kp = kem.keygen(toy, 0, ScriptedRng([3, 5]))
        _, ct = kem.encapsulate(toy, kp.public, ScriptedRng([4]))
        for k in range(1, toy.order):
            bad = kem.KemCiphertext(
                ct.ephemeral, toy.mul(ct.binding, toy.exp(toy.generator, k)))
            with pytest.raises(ConsistencyError):
                kem.decapsulate(toy, kp, bad)


class TestProductionGroup:
    def test_round_trip_randomized(self, big):
        rng = Random(101)
        for _ in range(1000):
            kp = kem.keygen(big, 0, rng)
            key, ct = kem.encapsulate(big, kp.public, rng)
            assert kem.decapsulate(big, kp, ct) == key
            assert len(key) == kem.PAIRWISE_KEY_LEN

    def test_fresh_randomness_changes_everything(self, big):
        kp1 = kem.keygen(big, 0, Random(1))
        kp2 = kem.keygen(big, 0, Random(2))
        assert kp1.public != kp2.public
        _, ct1 = kem.encapsulate(big, kp1.public, Random(3))
        _, ct2 = kem.encapsulate(big, kp1.public, Random(4))
        assert ct1.ephemeral != ct2.ephemeral

    def test_keygen_publics_definitional(self, big):
        rng = Random(5)
        kp = kem.keygen(big, 3, rng)
        assert big.exp(big.generator, kp.key_exp) == kp.pub_key
        assert big.exp(big.generator, kp.bind_exp) == kp.pub_bind


@pytest.fixture
def counted(big, monkeypatch):
    """A fresh schnorr256 group, and a function that returns the powers
    ("fixed" for the generator's, "exp" or "exp2" for a backend single or
    double power) made since its last call."""
    grp = Group("schnorr256", modulus=big.modulus, order=big.order,
                generator=big.generator.value)
    grp.exp(GroupElement(3), 2)                     # resolve the backend
    kinds = {"_powmod_fixed": "fixed", "_powmod": "exp", "_powmod2": "exp2"}
    calls = []
    for name, kind in kinds.items():
        fn = getattr(canvault.group, name)
        monkeypatch.setattr(canvault.group, name,
                            lambda *a, fn=fn, kind=kind: calls.append(kind) or fn(*a))

    def used():
        out = list(calls)
        calls.clear()
        return out

    used()
    return grp, used


def test_backend_calls_per_unit_on_schnorr256(counted):
    """The per-unit power budget: 3 generator powers plus 6 backend calls.
    The generator's powers, g^x and g^y at keygen and g^r at encapsulation,
    come from its fixed-base comb, which costs about half a single power and
    no backend call. Encapsulation takes K = u^r, whose base is used once, as
    one single power, and the binding K^t v^r as one double power. Receipt
    decodes c with c^(2^h) attached, so c^order, c^(xt+y) and c^x are one
    double power each."""
    grp, used = counted
    rng = Random(102)
    kp = kem.keygen(grp, 0, rng)
    assert used() == ["fixed", "fixed"]
    key, ct = kem.encapsulate(grp, kp.public, rng)
    assert used() == ["fixed", "exp", "exp2"]
    assert kem.open_ciphertext(grp, kp, kem.encode_ciphertext(grp, ct)) == key
    assert used() == ["exp", "exp2", "exp2", "exp2"]


@pytest.mark.parametrize("binding, error", [
    (lambda grp: grp.exp(grp.generator, 5), ConsistencyError),
    (lambda grp: GroupElement(grp.modulus - 1), DecodeError),
], ids=["member", "non-member"])
def test_backend_calls_per_refused_binding(counted, binding, error):
    """A binding that fails the check costs the decode of c and c^(xt+y),
    then one single power for the binding's membership, which gives the
    reason: no c^x, and no second decode of c."""
    grp, used = counted
    rng = Random(103)
    kp = kem.keygen(grp, 0, rng)
    _, ct = kem.encapsulate(grp, kp.public, rng)
    body = grp.encode_element(ct.ephemeral) + grp.encode_element(binding(grp))
    used()
    with pytest.raises(error):
        kem.open_ciphertext(grp, kp, body)
    assert used() == ["exp", "exp2", "exp2", "exp"]


class TestExponentHashCollisions:
    """Distinct ephemerals mapping to one exponent value would defeat the
    consistency check; the hash should look uniform."""

    def test_toy_collision_rate_is_birthday_like(self, toy):
        tems = {e.value: primitives.hash_to_scalar(toy, e) for e in toy.elements()}
        rng = Random(2024)
        values = list(tems)
        collisions = 0
        trials = 100_000
        for _ in range(trials):
            a, b = rng.sample(values, 2)
            if tems[a] == tems[b]:
                collisions += 1
        # Uniform hashing into 11 buckets collides on ~1/11 of pairs.
        assert collisions < trials * (1 / toy.order) * 1.5

    def test_production_hash_distinct_over_many_elements(self, big):
        cur = big.generator
        seen = set()
        for _ in range(100_000):
            seen.add(primitives.hash_to_scalar(big, cur))
            cur = big.mul(cur, big.generator)
        assert len(seen) == 100_000


class TestCiphertextCodec:
    def test_round_trip(self, toy):
        kp = kem.keygen(toy, 0, ScriptedRng([3, 5]))
        _, ct = kem.encapsulate(toy, kp.public, ScriptedRng([4]))
        data = kem.encode_ciphertext(toy, ct)
        assert len(data) == 2 * toy.element_len
        assert kem.decode_ciphertext(toy, data) == ct

    def test_wrong_length_rejected(self, toy):
        with pytest.raises(DecodeError):
            kem.decode_ciphertext(toy, b"\x02")
        with pytest.raises(DecodeError):
            kem.decode_ciphertext(toy, b"\x02\x03\x04")

    def test_non_member_halves_rejected(self, toy):
        # 5 and 7 are outside the order-11 subgroup of Z*_23
        with pytest.raises(DecodeError):
            kem.decode_ciphertext(toy, bytes([5, 2]))
        with pytest.raises(DecodeError):
            kem.decode_ciphertext(toy, bytes([2, 7]))
