"""KEM tests: a fully forced toy trace, exhaustive toy sweeps against a
modular-arithmetic oracle, and randomized production-group trials."""

import json
from itertools import product
from random import Random
from types import SimpleNamespace

import pytest

from canvault import harness, kem, primitives
from canvault.errors import ConfigError, ConsistencyError, DecodeError
from canvault.group import Group, GroupElement, get_group
from support import decoded_as_members, elements, mul


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

    @pytest.fixture(autouse=True)
    def forced_hash(self, monkeypatch):
        monkeypatch.setattr(primitives, "hash_to_scalar", lambda group, e: 7)

    def keypair(self, toy):
        return kem.keygen(toy, ecu_id=0, rng=ScriptedRng([3, 5]))

    def test_keygen_publics(self, toy):
        kp = self.keypair(toy)
        assert kp.pub_key == GroupElement(8)      # 2^3 mod 23
        assert kp.pub_bind == GroupElement(9)     # 2^5 mod 23
        assert (kp.key_exp, kp.bind_exp) == (3, 5)

    def test_keygen_draws_x_then_y_into_keypair(self, toy):
        assert self.keypair(toy) == kem.keypair(toy, 0, 3, 5) \
            == kem.EcuKeyPair(0, 3, 5, GroupElement(8), GroupElement(9))

    def test_encapsulation_values(self, toy):
        kp = self.keypair(toy)
        key, ct = kem.encapsulate(toy, kp.public, ScriptedRng([4]))
        # u^7 = 8^7 = 12; 12*9 = 16; 16^4 = 9; u^4 = 8^4 = 2
        assert ct.ephemeral == GroupElement(16)
        assert ct.binding == GroupElement(9)
        assert key == primitives.hash_to_key(toy, GroupElement(2))

    def test_decapsulation_matches(self, toy):
        kp = self.keypair(toy)
        key, ct = kem.encapsulate(toy, kp.public, ScriptedRng([4]))
        # combined exponent: 3*7 + 5 = 26 = 4 mod 11; 16^4 = 9 = binding
        out = kem.decapsulate(toy, kp, ct)
        assert out == key == primitives.hash_to_key(toy, GroupElement(2))

    def test_perturbed_binding_rejected(self, toy):
        kp = self.keypair(toy)
        _, ct = kem.encapsulate(toy, kp.public, ScriptedRng([4]))
        bad = kem.KemCiphertext(ct.ephemeral, mul(toy, ct.binding, toy.generator))
        with pytest.raises(ConsistencyError):
            kem.decapsulate(toy, kp, bad)


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
        members = elements(toy)
        for x in range(1, toy.order):
            for y in range(1, toy.order):
                kp = kem.keygen(toy, 0, ScriptedRng([x, y]))
                for c in members:
                    for binding in members:
                        ct = kem.KemCiphertext(c, binding)
                        expected = oracle_accepts(toy, x, y, c.value, binding.value)
                        if expected:
                            kem.decapsulate(toy, kp, ct)
                        else:
                            with pytest.raises(ConsistencyError):
                                kem.decapsulate(toy, kp, ct)

    def test_decode_then_decapsulate_matches_decoding_both_halves(self, toy):
        """Every pair of one-byte halves, members or not, gets the same key
        or the same refusal from :func:`kem.decode_ciphertext` followed by
        :func:`kem.decapsulate` as from decoding both halves as members
        first, which refuses a non-member binding before the binding check."""
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
                assert outcome(lambda: kem.decapsulate(
                    toy, kp, kem.decode_ciphertext(toy, body))) == \
                    outcome(lambda: kem.decapsulate(
                        toy, kp, decoded_as_members(toy, body))), (x, y, body)

    def test_every_binding_perturbation_rejected(self, toy):
        kp = kem.keygen(toy, 0, ScriptedRng([3, 5]))
        _, ct = kem.encapsulate(toy, kp.public, ScriptedRng([4]))
        for k in range(1, toy.order):
            bad = kem.KemCiphertext(
                ct.ephemeral, mul(toy, ct.binding, toy.exp(toy.generator, k)))
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
def counted(big):
    """A fresh schnorr256 group whose backend counts its calls, and a
    function that returns the powers ("fixed" for the generator's, "exp" or
    "exp2" for a single or double power of another base) made since its last
    call."""
    grp = Group("schnorr256", modulus=big.modulus, order=big.order,
                generator=big.generator.value)
    backend, calls = grp._powers, []

    def counting(fn, kind):
        return lambda *a: calls.append(kind) or fn(*a)

    grp._powers = SimpleNamespace(
        fixed_base_exp=counting(backend.fixed_base_exp, "fixed"),
        mod_exp=counting(backend.mod_exp, "exp"),
        mod_exp2=counting(backend.mod_exp2, "exp2"))

    def used():
        out = list(calls)
        calls.clear()
        return out

    return grp, used


def test_backend_calls_per_unit_on_schnorr256(counted):
    """The per-unit power budget: 3 generator powers plus 6 backend calls.
    The generator's powers, g^x and g^y at keygen and g^r at encapsulation,
    come from its fixed-base table, which costs about a third of a single power and
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
    body = kem.encode_ciphertext(grp, ct)
    assert kem.decapsulate(grp, kp, kem.decode_ciphertext(grp, body)) == key
    assert used() == ["exp", "exp2", "exp2", "exp2"]


def test_backend_calls_per_keyfile_entry(counted, tmp_path):
    """A keyfile entry is checked through kem.keypair, as keygen builds one:
    two generator powers and no backend call."""
    grp, used = counted
    keypairs = harness.generate_keypairs(grp, 2, 0)
    path = str(tmp_path / "params.json")
    harness.write_keyfile(path, grp, keypairs)
    used()
    assert harness.load_keyfile(path, grp, 2) == keypairs
    assert used() == ["fixed", "fixed"] * 2


@pytest.mark.parametrize("spoil, message", [
    (lambda entries: entries[1].update(ecu_id=0), "unit ids"),
    (lambda entries: entries[-1].update(x="0x" + entries[-1]["x"]),
     "is not lower-case hex"),
], ids=["duplicate_id", "last_x_misspelled"])
def test_keyfile_refused_before_any_power(counted, tmp_path, spoil, message):
    """Every entry's fields are checked before the first keypair is
    derived, so a keyfile that fails a check costs no power at all."""
    grp, used = counted
    path = tmp_path / "params.json"
    harness.write_keyfile(str(path), grp, harness.generate_keypairs(grp, 3, 0))
    data = json.loads(path.read_text())
    spoil(data["keypairs"])
    path.write_text(json.dumps(data))
    used()
    with pytest.raises(ConfigError, match=message):
        harness.load_keyfile(str(path), grp, 3)
    assert used() == []


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
        kem.decapsulate(grp, kp, kem.decode_ciphertext(grp, body))
    assert used() == ["exp", "exp2", "exp2", "exp"]


def test_backend_calls_per_refused_c(counted):
    """A non-member c costs its decode, c^(2^h) and c^order, and nothing
    more: the body is decoded once, and no binding check runs."""
    grp, used = counted
    rng = Random(104)
    kp = kem.keygen(grp, 0, rng)
    _, ct = kem.encapsulate(grp, kp.public, rng)
    body = grp.encode_element(GroupElement(grp.modulus - 1)) + \
        grp.encode_element(ct.binding)
    used()
    with pytest.raises(DecodeError):
        kem.decapsulate(grp, kp, kem.decode_ciphertext(grp, body))
    assert used() == ["exp", "exp2"]


class TestExponentHashCollisions:
    """Distinct ephemerals mapping to one exponent value would defeat the
    consistency check; the hash should look uniform."""

    def test_toy_collision_rate_is_birthday_like(self, toy):
        tems = {e.value: primitives.hash_to_scalar(toy, e) for e in elements(toy)}
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
            cur = mul(big, cur, big.generator)
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

    # 5 and 7 are outside the order-11 subgroup of Z*_23.
    def test_non_member_c_rejected(self, toy):
        with pytest.raises(DecodeError):
            kem.decode_ciphertext(toy, bytes([5, 2]))

    def test_non_member_binding_rejected_by_decapsulate(self, toy):
        kp = kem.keygen(toy, 0, ScriptedRng([3, 5]))
        ct = kem.decode_ciphertext(toy, bytes([2, 7]))
        with pytest.raises(DecodeError):
            kem.decapsulate(toy, kp, ct)
