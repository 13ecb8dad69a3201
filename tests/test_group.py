"""Group-law tests against brute-force oracles.

The toy group is small enough to check everything exhaustively with a naive
repeated-multiplication oracle; the production group gets randomized trials
plus independent primality verification of its frozen constants.
"""

import ast
import os
import re
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
from canvault.group import (GROUP_NAMES, Group, GroupElement, _BuiltinPowers,
                            get_group)
from support import elements, identity, mul, security_bits

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


@pytest.fixture(scope="module")
def libcrypto():
    from canvault import _libcrypto
    return _libcrypto


class TestToyGroup:
    def test_parameters(self, toy):
        assert toy.modulus == 23
        assert toy.order == 11
        assert toy.generator == GroupElement(2)
        assert security_bits(toy) == 3
        assert toy.element_len == 1

    def test_subgroup_enumeration(self, toy):
        members = elements(toy)
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
        members = {e.value for e in elements(toy)}
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
        assert toy.exp(toy.generator, 0) == identity(toy)

    def test_exp_of_order_is_identity(self, toy):
        assert toy.exp(toy.generator, toy.order) == identity(toy)

    def test_mul_worked_examples(self, toy):
        assert mul(toy, GroupElement(12), GroupElement(9)) == GroupElement(16)
        assert mul(toy, GroupElement(16), GroupElement(16)) == GroupElement(3)

    def test_mul_identity_commutativity_associativity(self, toy):
        elems = elements(toy)
        for a in elems:
            assert mul(toy, a, identity(toy)) == a
            for b in elems:
                assert mul(toy, a, b) == mul(toy, b, a)
        rng = Random(1)
        for _ in range(200):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert mul(toy, mul(toy, a, b), c) == mul(toy, a, mul(toy, b, c))

    def test_double_exp_law_exhaustive(self, toy):
        for a in elements(toy):
            for e1 in range(toy.order):
                inner = toy.exp(a, e1)
                for e2 in range(toy.order):
                    assert toy.exp(inner, e2) == toy.exp(a, (e1 * e2) % toy.order)

    def test_encode_decode_round_trip(self, toy):
        for e in elements(toy):
            data = toy.encode_element(e)
            assert len(data) == 1
            assert toy.decode_element(data) == e

    def test_decode_rejects_every_non_member(self, toy):
        members = {e.value for e in elements(toy)}
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
        for e in elements(toy):
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


class TestToyGroupOnLibcrypto(TestToyGroup):
    """Every toy23 oracle again with libcrypto's powers forced onto toy23,
    whose own backend is builtin ``pow``, so that the exhaustive oracles
    check libcrypto's single, double and fixed-base powers."""

    @pytest.fixture(scope="class", autouse=True)
    def toy_on_libcrypto(self, toy, libcrypto):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(toy, "_powers", libcrypto)
            yield

    def test_powers_are_libcrypto(self, toy, libcrypto):
        assert toy._powers is libcrypto


class TestSchnorr256:
    def test_constants_are_a_valid_prime_order_subgroup(self, big):
        assert big.order.bit_length() == 256
        assert big.modulus.bit_length() == 2048
        assert sympy.isprime(big.order)
        assert sympy.isprime(big.modulus)
        assert (big.modulus - 1) % big.order == 0
        assert big.generator != identity(big)
        assert big.exp(big.generator, big.order) == identity(big)

    def test_parameters(self, big):
        assert security_bits(big) == 255
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
        for e in (big.generator, identity(big), big.exp(big.generator, 2 ** 200 + 9)):
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
        # powers come from its table, alternate; the same value in two groups
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
    assert GROUP_NAMES == ("toy23", "schnorr256")
    for name in GROUP_NAMES:
        assert get_group(name) is get_group(name)
        assert get_group(name).name == name
    assert get_group("toy23") is not get_group("schnorr256")


def test_unknown_group_name():
    with pytest.raises(ValueError, match=re.escape(
            "unknown group 'nope'; choose from ('toy23', 'schnorr256')")):
        get_group("nope")


def test_each_group_picks_its_backend_from_its_modulus(libcrypto):
    assert get_group("toy23")._powers is _BuiltinPowers
    assert get_group("schnorr256")._powers is libcrypto
    # Any prime m has the order-2 subgroup {1, m - 1}.
    for bits, backend in ((511, _BuiltinPowers), (512, libcrypto)):
        m = sympy.prevprime(2 ** bits)
        assert Group("edge", modulus=m, order=2, generator=m - 1)._powers \
            is backend, bits


def test_large_group_without_libcrypto_raises(monkeypatch):
    # No fallback to builtin pow: a broken install fails the first power.
    monkeypatch.delattr(canvault, "_libcrypto", raising=False)
    monkeypatch.setitem(sys.modules, "canvault._libcrypto", None)
    m = sympy.prevprime(2 ** 512)
    grp = Group("edge", modulus=m, order=2, generator=m - 1)
    with pytest.raises(ImportError):
        grp.exp(GroupElement(3), 2)


class TestPowmodBackend:
    """The single and double powers of schnorr256's backend (libcrypto's
    ``BN_mod_exp_mont`` and ``BN_mod_exp2_mont``) against builtin ``pow``, on
    both groups' moduli."""

    @pytest.fixture(scope="class")
    def powmod(self):
        return get_group("schnorr256")._powers.mod_exp

    @pytest.fixture(scope="class")
    def powmod2(self):
        return get_group("schnorr256")._powers.mod_exp2

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

    @pytest.mark.parametrize("m", [1, 2, 22, BIG_MODULUS + 1])
    def test_refuses_an_even_or_unit_modulus(self, powmod, m):
        with pytest.raises(ValueError, match="needs an odd modulus > 1"):
            powmod(3, 5, m)

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
before = set(sys.modules)
from canvault.group import GroupElement, _BuiltinPowers, get_group
from canvault.harness import ScenarioConfig, run_scenario

toy, grp = get_group("toy23"), get_group("schnorr256")
toy_cfg = ScenarioConfig.from_dict({"group": "toy23", "n_ecus": 3})
ScenarioConfig.from_dict({"group": "schnorr256", "n_ecus": 35})
not_in_setup = {"ctypes", "canvault._libcrypto", "cryptography", "fractions",
                "decimal", "ssl", "_ssl", "dataclasses", "inspect", "argparse",
                "canvault.cli"}
loaded = not_in_setup & (set(sys.modules) - before)
if loaded:
    sys.exit(f"setup loaded {sorted(loaded)}")
run_scenario(toy_cfg)
_libcrypto = sys.modules.get("canvault._libcrypto")
if _libcrypto is None:
    sys.exit("a toy23 run's AES-CTR did not run on libcrypto")
if _libcrypto._tables:
    sys.exit("a toy23 run built a fixed-base table")
if toy._powers is not _BuiltinPowers:
    sys.exit(f"toy23 powers on {toy._powers}")
if "cryptography" in sys.modules:
    sys.exit("a toy23 run loaded cryptography")
grp.exp(GroupElement(3), 5)
if _libcrypto._tables:
    sys.exit("table built before the first generator power")
grp.exp(grp.generator, 5)
if list(_libcrypto._tables) != [(grp.generator.value, grp.modulus, 256)]:
    sys.exit(f"first generator power built {list(_libcrypto._tables)}")
from canvault.primitives import sym_encrypt
sym_encrypt(b"probe", bytes(16), bytes(16))
if "ssl" in sys.modules or "_ssl" in sys.modules:
    sys.exit("a power or an AES call loaded ssl")
if sys.platform.startswith("linux"):
    import ctypes
    spans = {}
    with open("/proc/self/maps") as maps:
        for line in maps:
            fields = line.split()
            if len(fields) == 6 and fields[5].rsplit("/", 1)[-1].startswith("libcrypto"):
                lo, hi = (int(a, 16) for a in fields[0].split("-"))
                spans.setdefault(fields[5], []).append((lo, hi))
    if len(spans) != 1:
        sys.exit(f"libcrypto files mapped: {sorted(spans)}")
    [(path, ranges)] = spans.items()
    addr = ctypes.cast(_libcrypto.lib.BN_mod_exp_mont, ctypes.c_void_p).value
    if not any(lo <= addr < hi for lo, hi in ranges):
        sys.exit(f"BN_mod_exp_mont at {addr:#x} lies outside {path}")
"""


def test_backend_loads_on_first_power_not_at_import():
    # Importing canvault, building both groups and parsing a config (setup_s
    # in perfbench) load neither ctypes, libcrypto nor cryptography. A toy23
    # run then loads libcrypto for its AES-CTR only: its powers stay on
    # builtin pow and it builds no table. schnorr256's generator table waits
    # for its first generator power. No run loads cryptography. Setup loads
    # neither fractions, decimal, ssl, dataclasses nor inspect, and powers
    # and AES calls never load ssl. On Linux the process maps exactly one
    # libcrypto file, the copy hashlib uses, and libcrypto's symbols resolve
    # inside it.
    src = Path(canvault.group.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", BACKEND_LOAD_PROBE], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


class TestFixedBaseTable:
    """Generator powers from libcrypto's fixed-base table against builtin
    ``pow``, through :meth:`Group.exp` and called directly."""

    @settings(max_examples=60, deadline=None)
    @given(e=st.integers(min_value=0, max_value=2 ** 256 - 1))
    @example(e=0)
    @example(e=1)
    @example(e=BIG_ORDER - 1)
    @example(e=BIG_ORDER)
    @example(e=BIG_ORDER + 1)
    @example(e=2 ** 255)
    @example(e=2 ** 224 - 1)                        # top 32 bits zero
    @example(e=BIG_ORDER >> 32 << 32)               # bottom 32 bits zero
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
        # A power with the one nonzero digit d in window i reads exactly the
        # entry g^(d * 2^(w * i)), at the group's own exponent bits.
        grp = get_group(name)
        g, m, bits = grp.generator.value, grp.modulus, grp.order.bit_length()
        w = libcrypto._WINDOW
        for i in range(-(-bits // w)):
            row_base = pow(g, 1 << w * i, m)
            for d in range(1, 1 << min(w, bits - w * i)):
                assert libcrypto.fixed_base_exp(g, d << w * i, m, bits) \
                    == pow(row_base, d, m), (i, d)

    def test_toy_exhaustively(self, toy, libcrypto):
        g, m = toy.generator.value, toy.modulus
        for e in range(toy.order):
            assert libcrypto.fixed_base_exp(g, e, m, 4) == pow(g, e, m)

    def test_refuses_exponents_outside_its_bits(self, toy, libcrypto):
        for e in (-1, 16, 2 ** 600):
            with pytest.raises(ValueError):
                libcrypto.fixed_base_exp(toy.generator.value, e, toy.modulus, 4)


@pytest.fixture
def libcrypto_tripwire(libcrypto, monkeypatch):
    """Replace the loaded libcrypto with an object that records and refuses
    every function lookup; yields the list of names looked up."""
    calls = []

    class Tripwire:
        def __getattr__(self, name):
            calls.append(name)
            raise AssertionError(f"libcrypto {name} called")

    monkeypatch.setattr(libcrypto, "lib", Tripwire())
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
    body = kem.encode_ciphertext(big, ct)
    assert kem.decapsulate(big, kp, kem.decode_ciphertext(big, body)) == key


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


def test_failed_montgomery_context_frees_what_it_made(libcrypto, monkeypatch):
    # A modulus that fails BN_MONT_CTX_set is not kept, and its context and
    # BIGNUM are freed before MemoryError is raised.
    real, freed = libcrypto.lib, []

    class FailingSet:
        def __getattr__(self, name):
            return getattr(real, name)

        def BN_MONT_CTX_set(self, mont, mod, ctx):
            return 0

        def BN_MONT_CTX_free(self, mont):
            freed.append("BN_MONT_CTX_free")
            real.BN_MONT_CTX_free(mont)

        def BN_free(self, num):
            freed.append("BN_free")
            real.BN_free(num)

    m = (1 << 127) + 0x2b
    assert m not in libcrypto._moduli
    before = dict(libcrypto._moduli)
    monkeypatch.setattr(libcrypto, "lib", FailingSet())
    with pytest.raises(MemoryError, match="BN_MONT_CTX_set failed"):
        libcrypto.mod_exp(3, 5, m)
    assert libcrypto._moduli == before
    assert freed == ["BN_MONT_CTX_free", "BN_free"]


@pytest.mark.parametrize("symbol, power", [
    ("BN_mod_exp_mont", lambda lc: lc.mod_exp(3, 5, BIG_MODULUS)),
    ("BN_mod_exp2_mont", lambda lc: lc.mod_exp2(3, 5, 7, 11, BIG_MODULUS)),
    # 33 has two nonzero digits, so its power multiplies two table entries.
    ("BN_mod_mul_montgomery", lambda lc: lc.fixed_base_exp(3, 33, BIG_MODULUS, 16)),
    ("BN_mod_mul_montgomery", lambda lc: lc._Table(5, BIG_MODULUS, 16)),
], ids=["mod_exp", "mod_exp2", "table_power", "table_build"])
def test_failed_power_raises_and_frees_what_it_made(libcrypto, monkeypatch,
                                                    symbol, power):
    # The modulus and the table a power reads are kept for the process, so
    # both exist before counting starts; every BIGNUM and BN_CTX the failed
    # call allocates must be freed by the time MemoryError is raised.
    libcrypto.fixed_base_exp(3, 1, BIG_MODULUS, 16)
    real, live, made = libcrypto.lib, set(), []

    def fail(*args):
        return 0
    fail.__name__ = symbol

    def allocating(fn):     # _bn passes BN_bin2bn no BIGNUM to fill
        def allocate(*args):
            ptr = fn(*args)
            live.add(ptr)
            made.append(ptr)
            return ptr
        return allocate

    def freeing(fn):
        def free(ptr):
            if ptr is not None:
                live.remove(ptr)
            fn(ptr)
        return free

    class Counting:
        def __getattr__(self, name):
            fn = getattr(real, name)
            if name == symbol:
                return fail
            if name in ("BN_new", "BN_CTX_new", "BN_bin2bn"):
                return allocating(fn)
            if name in ("BN_free", "BN_CTX_free"):
                return freeing(fn)
            return fn

    monkeypatch.setattr(libcrypto, "lib", Counting())
    with pytest.raises(MemoryError, match="libcrypto"):
        power(libcrypto)
    assert made and live == set()


def _undeclared_symbols(source: str) -> set[str]:
    """The ``lib.<symbol>`` names a module's source reads that its one
    signature table (the ``for _name, _restype, _argtypes in`` loop) does
    not declare."""
    tree = ast.parse(source)
    [table] = [node.iter for node in ast.walk(tree) if isinstance(node, ast.For)
               and isinstance(node.target, ast.Tuple)
               and [getattr(t, "id", None) for t in node.target.elts]
               == ["_name", "_restype", "_argtypes"]]
    declared = {row.elts[0].value for row in table.elts}
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "lib"}
    return used - declared


def test_every_libcrypto_symbol_is_declared(libcrypto):
    # An undeclared symbol would get ctypes' default int return type, which
    # truncates a 64-bit pointer.
    source = Path(libcrypto.__file__).read_text()
    assert _undeclared_symbols(source) == set()
    assert _undeclared_symbols(source + "\nlib.EC_POINT_new()\n") == {"EC_POINT_new"}
