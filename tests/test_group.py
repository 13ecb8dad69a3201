"""Group-law tests against brute-force oracles.

The toy group is small enough to check everything exhaustively with a naive
repeated-multiplication oracle; the production group gets randomized trials
plus independent primality verification of its frozen constants.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from pathlib import Path
from random import Random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import canvault.group
from canvault import kem
from canvault.errors import DecodeError
from canvault.group import GROUP_NAMES, Group, GroupElement, get_group

BIG_ORDER = get_group("schnorr256").order
BIG_MODULUS = get_group("schnorr256").modulus
# Powers with an exponent of at least 2^HALF are split into two halves.
HALF = (BIG_ORDER.bit_length() + 1) // 2

# Reduced scalars, and unreduced ones as a keyfile may hold them.
exponents = (st.integers(min_value=0, max_value=2 ** 256)
             | st.integers(min_value=2 ** 600, max_value=2 ** 600 + 2 ** 64))
residues = st.integers(min_value=1, max_value=BIG_MODULUS - 1)


def naive_pow(base: int, e: int, mod: int) -> int:
    """Oracle exponentiation by literal repeated multiplication."""
    acc = 1
    for _ in range(e):
        acc = (acc * base) % mod
    return acc


@pytest.fixture(scope="module")
def toy():
    return get_group("toy23")


@pytest.fixture(scope="module")
def big():
    return get_group("schnorr256")


class TestToyGroup:
    def test_parameters(self, toy):
        assert toy.modulus == 23
        assert toy.order == 11
        assert toy.generator == GroupElement(2)
        assert toy.security_bits == 3
        assert toy.element_len == 1

    def test_subgroup_enumeration(self, toy):
        members = toy.elements()
        assert len(set(members)) == toy.order
        assert sorted(e.value for e in members) == [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]

    def test_exp_matches_oracle_exhaustively(self, toy):
        # Every residue, member or not, and unreduced exponents: only a power
        # of g may reduce its exponent.
        for base in range(23):
            for e in range(4 * toy.order):
                assert toy.exp(GroupElement(base), e).value == naive_pow(base, e, 23)
            assert toy.exp(GroupElement(base), 2 ** 20 + 3).value \
                == pow(base, 2 ** 20 + 3, 23)

    def test_is_member_matches_enumeration(self, toy):
        members = {e.value for e in toy.elements()}
        for v in range(-2, 50):
            assert toy.is_member(GroupElement(v)) == (v in members)

    def test_generator_table_matches_pow_exhaustively(self, toy):
        for g in (toy.generator, GroupElement(2)):
            for e in range(3 * toy.order):
                assert toy.exp(g, e).value == pow(2, e, 23)

    def test_exp2_matches_pow_exhaustively(self, toy):
        # Bases 0 and m included: libcrypto's double power returns 0 for a
        # base that is 0 mod m even when that base's exponent is 0.
        m = toy.modulus
        for a, b in product(range(m + 1), repeat=2):
            for x, y in product(range(toy.order + 1), repeat=2):
                assert toy.exp2(GroupElement(a), x, GroupElement(b), y).value \
                    == pow(a, x, m) * pow(b, y, m) % m, (a, x, b, y)

    def test_exp2_refuses_negative_exponents(self, toy):
        for x, y in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                toy.exp2(toy.generator, x, GroupElement(3), y)

    def test_exp_refuses_negative_exponents(self, toy):
        with pytest.raises(ValueError):
            toy.exp(GroupElement(3), -1)
        with pytest.raises(ValueError):
            toy.exp(GroupElement(0), -1)
        # A power of g reduces its exponent mod the order instead.
        assert toy.exp(toy.generator, -1) == toy.exp(toy.generator, toy.order - 1)

    def test_exp_worked_examples(self, toy):
        assert toy.exp(GroupElement(2), 4) == GroupElement(16)
        assert toy.exp(GroupElement(8), 7) == GroupElement(12)
        assert toy.exp(toy.generator, 0) == toy.identity

    def test_exp_of_order_is_identity(self, toy):
        assert toy.exp(toy.generator, toy.order) == toy.identity

    def test_mul_worked_examples(self, toy):
        assert toy.mul(GroupElement(12), GroupElement(9)) == GroupElement(16)
        assert toy.mul(GroupElement(16), GroupElement(16)) == GroupElement(3)

    def test_mul_identity_commutativity_associativity(self, toy):
        elems = toy.elements()
        for a in elems:
            assert toy.mul(a, toy.identity) == a
            for b in elems:
                assert toy.mul(a, b) == toy.mul(b, a)
        rng = Random(1)
        for _ in range(200):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert toy.mul(toy.mul(a, b), c) == toy.mul(a, toy.mul(b, c))

    def test_double_exp_law_exhaustive(self, toy):
        for a in toy.elements():
            for e1 in range(toy.order):
                inner = toy.exp(a, e1)
                for e2 in range(toy.order):
                    assert toy.exp(inner, e2) == toy.exp(a, (e1 * e2) % toy.order)

    def test_encode_decode_round_trip(self, toy):
        for e in toy.elements():
            data = toy.encode_element(e)
            assert len(data) == 1
            assert toy.decode_element(data) == e

    def test_decode_rejects_every_non_member(self, toy):
        members = {e.value for e in toy.elements()}
        for v in range(256):
            data = bytes([v])
            if v in members:
                assert toy.decode_element(data).value == v
            else:
                with pytest.raises(DecodeError):
                    toy.decode_element(data)

    def test_decoded_element_is_its_value(self, toy):
        # A decoded element carries value^(2^h), h = 2 here: equality,
        # hashing and repr ignore it, and its powers, split or not, are the
        # value's. A residue decoded only for range carries none.
        for e in toy.elements():
            data = toy.encode_element(e)
            decoded = toy.decode_element(data)
            assert decoded.high == pow(e.value, 4, 23)
            assert toy.decode_residue(data).high is None
            assert decoded == e and hash(decoded) == hash(e)
            assert repr(decoded) == repr(e)
            for k in range(4 * toy.order):
                assert toy.exp(decoded, k).value == pow(e.value, k, 23)

    def test_decode_rejects_wrong_length(self, toy):
        with pytest.raises(DecodeError):
            toy.decode_element(b"")
        with pytest.raises(DecodeError):
            toy.decode_element(b"\x02\x02")

    def test_random_scalar_determinism_and_coverage(self, toy):
        a = toy.random_scalar(Random("s0"))
        b = toy.random_scalar(Random("s0"))
        assert a == b
        rng = Random(7)
        seen = {toy.random_scalar(rng) for _ in range(10_000)}
        assert seen == set(range(1, 11))
        assert 0 not in seen


@pytest.mark.usefixtures("builtin_pow")
class TestToyGroupUnderBuiltinPow(TestToyGroup):
    """Every toy23 oracle again on the builtin ``pow`` fallback."""


class TestSchnorr256:
    def test_constants_are_a_valid_prime_order_subgroup(self, big):
        assert big.order.bit_length() == 256
        assert big.modulus.bit_length() == 2048
        assert sympy.isprime(big.order)
        assert sympy.isprime(big.modulus)
        assert (big.modulus - 1) % big.order == 0
        assert big.generator != big.identity
        assert big.exp(big.generator, big.order) == big.identity

    def test_parameters(self, big):
        assert big.security_bits == 255
        assert big.element_len == 256

    def test_double_exp_law_randomized(self, big):
        rng = Random(11)
        a = big.exp(big.generator, big.random_scalar(rng))
        for _ in range(1000):
            e1 = big.random_scalar(rng)
            e2 = big.random_scalar(rng)
            assert big.exp(big.exp(a, e1), e2) == big.exp(a, (e1 * e2) % big.order)

    def test_exp_agrees_with_builtin_pow(self, big):
        rng = Random(12)
        for _ in range(50):
            e = big.random_scalar(rng)
            assert big.exp(big.generator, e).value == pow(
                big.generator.value, e, big.modulus)

    @settings(max_examples=60, deadline=None)
    @given(e=exponents)
    @example(e=0)
    @example(e=BIG_ORDER)
    @example(e=BIG_ORDER - 1)
    @example(e=BIG_ORDER + 1)
    @example(e=2 ** 600 + 1)
    def test_generator_table_matches_builtin_pow(self, big, e):
        expected = pow(big.generator.value, e, big.modulus)
        assert big.exp(big.generator, e).value == expected
        assert big.exp(GroupElement(int(big.generator.value)), e).value == expected

    @settings(max_examples=65, deadline=None)
    @given(a=residues, e=exponents)
    @example(a=2, e=0)
    @example(a=3, e=BIG_ORDER - 1)
    @example(a=2, e=BIG_ORDER)
    @example(a=3, e=2 ** 600 + 5)
    @example(a=BIG_MODULUS - 1, e=2 ** 255 + 1)
    @example(a=2, e=2 ** 600)
    def test_exp_of_any_residue_matches_builtin_pow(self, big, a, e):
        assert big.exp(GroupElement(a), e).value == pow(a, e, big.modulus)

    @pytest.mark.parametrize("e", [0, 1, 2 ** 255, 2 ** 255 + 1, 2 ** 600])
    def test_exp_at_edge_exponents(self, big, e):
        m = big.modulus
        for a in (2, m - 2, 0, 3, 1, m - 1):
            assert big.exp(GroupElement(a), e).value == pow(a, e, m)

    @pytest.mark.parametrize("e", [2 ** HALF - 1, 2 ** HALF, 2 ** HALF + 1,
                                   2 ** (2 * HALF), BIG_ORDER, 2 ** 600 + 1])
    def test_exp_at_split_boundary(self, big, e):
        assert HALF == 128
        m = big.modulus
        for a in (big.generator.value, 3, m - 1, 0, 1, m):
            assert big.exp(GroupElement(a), e).value == pow(a, e, m), a

    def test_decoded_element_powers_at_split_boundary(self, big):
        m = big.modulus
        for e in (big.generator, big.identity, big.exp(big.generator, 2 ** 200 + 9)):
            decoded = big.decode_element(big.encode_element(e))
            assert decoded == GroupElement(e.value)
            assert hash(decoded) == hash(GroupElement(e.value))
            assert decoded.high == pow(e.value, 2 ** HALF, m)
            for k in (2 ** HALF - 1, 2 ** HALF, 2 ** HALF + 1, 2 ** (2 * HALF),
                      BIG_ORDER, 2 ** 600 + 1):
                assert big.exp(decoded, k).value == pow(e.value, k, m), (e, k)

    @settings(max_examples=40, deadline=None)
    @given(a=residues, x=exponents, b=residues, y=exponents)
    @example(a=0, x=0, b=3, y=5)
    @example(a=BIG_MODULUS, x=0, b=3, y=5)
    @example(a=3, x=2 ** 255, b=0, y=1)
    @example(a=2, x=BIG_ORDER, b=3, y=2 ** 600 + 1)
    def test_exp2_matches_builtin_pow(self, big, a, x, b, y):
        m = big.modulus
        assert big.exp2(GroupElement(a), x, GroupElement(b), y).value \
            == pow(a, x, m) * pow(b, y, m) % m

    def test_interleaved_bases_and_groups_match_pow(self, big):
        # Plain bases, decoded ones carrying b^(2^h) and the generator, whose
        # powers come from its comb, alternate; the same value in two groups
        # must not mix.
        toy, m = get_group("toy23"), big.modulus
        decoded = [big.decode_element(big.encode_element(big.exp(big.generator, k)))
                   for k in (3, 2 ** 255 + 1)]
        rng = Random(15)
        for _ in range(20):
            a = rng.choice((GroupElement(3), GroupElement(m - 1), big.generator,
                            *decoded))
            e = rng.randrange(2 ** HALF, 2 ** 256)
            assert big.exp(a, e).value == pow(a.value, e, m), (a, e)
        for e in (2 ** HALF + 7, 2 ** 200 + 3):
            assert toy.exp(GroupElement(3), e).value == pow(3, e, 23)
            assert big.exp(GroupElement(3), e).value == pow(3, e, m)
            assert toy.exp(GroupElement(3), e + 1).value == pow(3, e + 1, 23)

    def test_threads_sharing_one_group_match_pow(self, big):
        m = big.modulus
        rng = Random(16)
        work = [[(rng.choice((2, 3, 5, big.generator.value)),
                  rng.randrange(2 ** HALF, 2 ** 160)) for _ in range(50)]
                for _ in range(4)]
        expected = [[pow(a, e, m) for a, e in powers] for powers in work]

        def run(powers):
            return [big.exp(GroupElement(a), e).value for a, e in powers]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(run, work, timeout=60)) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_encode_decode_round_trip(self, big):
        rng = Random(13)
        for _ in range(20):
            e = big.exp(big.generator, big.random_scalar(rng))
            data = big.encode_element(e)
            assert len(data) == 256
            assert big.decode_element(data) == e

    def test_decode_rejects_non_members_and_bad_lengths(self, big):
        for bad in (0, 2, 3, big.modulus - 1, big.modulus):
            with pytest.raises(DecodeError):
                big.decode_element(bad.to_bytes(256, "big") if bad < 2 ** 2048
                                   else b"\xff" * 256)
        with pytest.raises(DecodeError):
            big.decode_element(b"\x01" * 255)

    def test_random_scalar_in_range_and_nonzero(self, big):
        rng = Random(14)
        for _ in range(1000):
            s = big.random_scalar(rng)
            assert 1 <= s < big.order


def test_bad_generator_rejected():
    with pytest.raises(ValueError):
        Group("broken", modulus=23, order=11, generator=1)
    with pytest.raises(ValueError):
        Group("broken", modulus=23, order=11, generator=5)


def test_get_group_returns_one_instance_per_name():
    for name in GROUP_NAMES:
        assert get_group(name) is get_group(name)
    assert get_group("toy23") is not get_group("schnorr256")


def test_unknown_group_name():
    with pytest.raises(ValueError):
        get_group("nope")


class TestPowmodBackend:
    """The single and double powers that the first group power resolves
    (libcrypto's ``BN_mod_exp_mont`` and ``BN_mod_exp2_mont`` where that
    library loads) against builtin ``pow``."""

    @pytest.fixture(scope="class")
    def powmod(self):
        get_group("toy23").exp(GroupElement(3), 2)
        return canvault.group._powmod

    @pytest.fixture(scope="class")
    def powmod2(self, powmod):
        return canvault.group._powmod2

    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_edge_cases_match_builtin_pow(self, powmod, name):
        grp = get_group(name)
        m, q = grp.modulus, grp.order
        # 2**2048 - 1 is wider than either modulus and is reduced first.
        for base, e in product([0, 1, m - 1, m, 2 ** 2048 - 1],
                               [0, 1, q, q - 1, q + 1, 2 ** 600 + 1]):
            assert powmod(base, e, m) == pow(base, e, m), (base, e)

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(GROUP_NAMES),
           base=st.integers(min_value=0, max_value=2 ** 2048 + 5), e=exponents)
    def test_draws_match_builtin_pow(self, powmod, name, base, e):
        m = get_group(name).modulus
        assert powmod(base, e, m) == pow(base, e, m)

    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_exp2_edge_cases_match_builtin_pow(self, powmod2, name):
        grp = get_group(name)
        m, q = grp.modulus, grp.order
        bases, exps = [0, 1, 3, m - 1, m, 2 ** 2048 - 1], [0, 1, q, 2 ** 600 + 1]
        single = {(a, x): pow(a, x, m) for a, x in product(bases, exps)}
        for (a, x), (b, y) in product(single, repeat=2):
            assert powmod2(a, x, b, y, m) == single[a, x] * single[b, y] % m, \
                (a, x, b, y)
        assert powmod2(0, 0, 3, 5, m) == powmod2(m, 0, 3, 5, m) == pow(3, 5, m)


BACKEND_LOAD_PROBE = """
import sys
from canvault.group import GroupElement, get_group
from canvault.harness import ScenarioConfig

grp = get_group("schnorr256")
ScenarioConfig.from_dict({"group": "schnorr256", "n_ecus": 35})
if "ctypes" in sys.modules or "canvault._libcrypto" in sys.modules:
    sys.exit("libcrypto loaded before the first group power")
grp.exp(GroupElement(3), 5)
try:
    from canvault import _libcrypto
except (ImportError, OSError, AttributeError):
    sys.exit(0)
if _libcrypto._combs:
    sys.exit("comb built before the first generator power")
grp.exp(grp.generator, 5)
if list(_libcrypto._combs) != [(grp.generator.value, grp.modulus, 256)]:
    sys.exit(f"first generator power built {list(_libcrypto._combs)}")
"""


def test_backend_loads_on_first_power_not_at_import():
    # Importing canvault, building a group and parsing a config (setup_s in
    # perfbench) must not pay for loading ctypes, _ssl and libcrypto, nor for
    # the generator's comb, which waits for the first generator power.
    src = Path(canvault.group.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", BACKEND_LOAD_PROBE], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


class TestFixedBaseComb:
    """Generator powers from libcrypto's fixed-base comb against builtin
    ``pow``, through :meth:`Group.exp` and called directly."""

    @pytest.fixture(scope="class")
    def libcrypto(self):
        try:
            from canvault import _libcrypto
        except (ImportError, OSError, AttributeError):
            pytest.skip("libcrypto cannot be loaded on this host")
        return _libcrypto

    # The comb reads a 256-bit exponent as 8 rows of 32 bits.
    @settings(max_examples=60, deadline=None)
    @given(e=st.integers(min_value=0, max_value=2 ** 256 - 1))
    @example(e=0)
    @example(e=1)
    @example(e=BIG_ORDER - 1)
    @example(e=BIG_ORDER)
    @example(e=BIG_ORDER + 1)
    @example(e=2 ** 255)
    @example(e=2 ** 224 - 1)                        # top row all zero
    @example(e=BIG_ORDER >> 32 << 32)               # bottom row all zero
    @example(e=2 ** 256 - 1)
    def test_draws_match_builtin_pow(self, big, libcrypto, e):
        g, m = big.generator.value, big.modulus
        assert big.exp(big.generator, e).value == pow(g, e, m)
        assert libcrypto.fixed_base_exp(g, e, m, 256) == pow(g, e, m)

    def test_negative_exponent_is_reduced_mod_order(self, big):
        g, m, q = big.generator.value, big.modulus, big.order
        for e in (-1, -q, -q - 5, -(2 ** 300)):
            assert big.exp(big.generator, e).value == pow(g, e % q, m)

    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_every_table_entry(self, libcrypto, name):
        # Rows i set for the bits i of u put u in every column, so each
        # entry of both tables is read by one of these powers. The comb for
        # 8 * width bits is laid out as the group's (the same one for
        # schnorr256), but admits every exponent that fills its rows.
        grp = get_group(name)
        g, m = grp.generator.value, grp.modulus
        width = ((grp.order.bit_length() + 7) // 8 + 1) // 2 * 2
        bits = 8 * width
        for u in range(256):
            e = sum(((1 << width) - 1) << (i * width) for i in range(8) if u >> i & 1)
            assert libcrypto.fixed_base_exp(g, e, m, bits) == pow(g, e, m), u

    def test_toy_exhaustively(self, toy, libcrypto):
        g, m = toy.generator.value, toy.modulus
        for e in range(toy.order):
            assert libcrypto.fixed_base_exp(g, e, m, 4) == pow(g, e, m)

    def test_refuses_exponents_outside_its_bits(self, toy, libcrypto):
        for e in (-1, 16, 2 ** 600):
            with pytest.raises(ValueError):
                libcrypto.fixed_base_exp(toy.generator.value, e, toy.modulus, 4)


@pytest.fixture
def libcrypto_tripwire(monkeypatch):
    """Replace the loaded libcrypto with an object that records and refuses
    every function lookup; yields the list of names looked up."""
    get_group("toy23").exp(GroupElement(3), 2)      # resolve the backend first
    try:
        from canvault import _libcrypto
    except (ImportError, OSError, AttributeError):
        pytest.skip("libcrypto cannot be loaded on this host")
    calls = []

    class Tripwire:
        def __getattr__(self, name):
            calls.append(name)
            raise AssertionError(f"libcrypto {name} called")

    monkeypatch.setattr(_libcrypto, "lib", Tripwire())
    yield calls


def every_kind_of_power():
    """Single, split, double and generator powers on both groups, and one
    honest schnorr256 keying round trip."""
    for grp in map(get_group, GROUP_NAMES):
        three = GroupElement(3)
        grp.exp(three, 2)
        grp.exp(three, 2 ** 600 + 1)
        grp.exp(grp.generator, grp.order - 1)
        grp.is_member(three)
        grp.exp2(three, 5, grp.generator, 2 ** 300)
    big = get_group("schnorr256")
    rng = Random(17)
    kp = kem.keygen(big, 0, rng)
    key, ct = kem.encapsulate(big, kp.public, rng)
    assert kem.open_ciphertext(big, kp, kem.encode_ciphertext(big, ct)) == key


@pytest.mark.usefixtures("builtin_pow")
class TestBuiltinPowFixture:
    def test_no_libcrypto_call_under_the_fixture(self, libcrypto_tripwire):
        every_kind_of_power()
        assert libcrypto_tripwire == []


def test_tripwire_sees_libcrypto_calls(libcrypto_tripwire):
    # Without the fixture the same powers reach libcrypto, so the test
    # above would see a call that slipped past the fixture.
    with pytest.raises(AssertionError, match="libcrypto"):
        every_kind_of_power()
    assert libcrypto_tripwire
