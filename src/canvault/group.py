"""Prime-order multiplicative groups backing the key encapsulation layer.

Two instantiations ship with the package:

* ``toy23`` -- the order-11 subgroup of Z*_23 with generator 2. Small enough
  to enumerate exhaustively, which is what the test oracles do.
* ``schnorr256`` -- a 2048-bit prime modulus with a 256-bit prime-order
  subgroup, giving a 128-bit security level without any curve plumbing.

All exponents are plain ints in ``[0, order)``; elements are wrapped so the
wire-decoding path can enforce subgroup membership once, at construction.

Powers of the generator come from a fixed-base table of ``g^(d * 16^i)``,
built on the first such power in a process. :meth:`Group.powers` reads
several powers of one base from a single chain of ``base^(16^i)`` (Yao), and
the chain of the last base is kept, so a membership check followed by more
powers of the same value squares once. :meth:`Group.exp2` gives
``a^x * b^y`` in one pass over interleaved sliding 5-bit windows. All three
are from *Handbook of Applied Cryptography* §14.6.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from random import Random

from .errors import DecodeError

try:                                    # ~4x faster exponentiation when present
    from gmpy2 import powmod as _powmod
except ImportError:                     # pragma: no cover - environment dependent
    _powmod = pow

__all__ = ["Group", "GroupElement", "get_group", "GROUP_NAMES"]

_WINDOW_BITS = 4
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1
_SLIDING_BITS = 5


@dataclass(frozen=True)
class GroupElement:
    """Reduced residue that belongs to the prime-order subgroup of a Group."""

    value: int


class Group:
    """Multiplicative subgroup of prime order ``order`` inside Z*_modulus.

    Attributes:
        name: registry name of the instantiation.
        modulus: prime defining the ambient field Z*_modulus.
        order: prime order of the cyclic subgroup; exponents live mod this.
        generator: fixed generator of the subgroup.
        security_bits: k such that 2^k < order < 2^(k+1).
        key_len_bits: output width of the key-derivation hash (256).
        element_len: byte length of the fixed-width element encoding.
    """

    def __init__(self, name: str, modulus: int, order: int, generator: int,
                 key_len_bits: int = 256):
        self.name = name
        self.modulus = modulus
        self.order = order
        self.generator = GroupElement(generator % modulus)
        self.security_bits = order.bit_length() - 1
        self.key_len_bits = key_len_bits
        self.element_len = (modulus.bit_length() + 7) // 8
        if pow(generator, order, modulus) != 1 or generator % modulus == 1:
            raise ValueError(f"{name}: generator does not have order {order}")
        # Row i holds g^(d * 16^i) for d in [0, 16); built on first use.
        self._generator_table: list[list[int]] | None = None
        # (base value, [base^(16^i)]) of the last base given to powers().
        self._chain: tuple[int | None, list[int]] = (None, [])

    def __repr__(self) -> str:
        return f"Group({self.name!r}, {self.modulus.bit_length()}-bit modulus)"

    @property
    def identity(self) -> GroupElement:
        return GroupElement(1)

    def is_member(self, value: int) -> bool:
        """True iff ``value`` is a representative of the order-p subgroup.

        ``value^order`` is read from the chain of ``value``, which stays kept
        for further :meth:`powers` of the same value.
        """
        return 0 < value < self.modulus and \
            self.powers(GroupElement(value), [self.order])[0].value == 1

    def element(self, value: int) -> GroupElement:
        """Checked constructor; rejects values outside the subgroup."""
        if not self.is_member(value):
            raise DecodeError(f"{value} is not in the order-{self.order} subgroup")
        return GroupElement(value)

    def exp(self, base: GroupElement, e: int) -> GroupElement:
        """base ** e within the group (e >= 0, not necessarily reduced).

        A power of the generator reduces ``e`` mod ``order`` and multiplies
        one table entry per 4-bit digit, about 64 products at 256 bits. Any
        other base goes to builtin ``pow``, which beats a fresh chain of
        :meth:`powers` for a single exponent.
        """
        if base.value == self.generator.value:
            return GroupElement(self._generator_power(e % self.order))
        return GroupElement(int(_powmod(base.value, e, self.modulus)))

    def powers(self, base: GroupElement, exps: list[int]) -> list[GroupElement]:
        """[base ** e for e in exps] from one chain of ``base^(16^i)`` (e >= 0,
        not necessarily reduced).

        Each power gathers the chain rows by their 4-bit digit and combines
        the 15 products with 30 more (Yao): about 90 products per 256-bit
        exponent after 252 squarings shared by all of them. The chain is kept
        for the next call on the same base, and extended when a longer
        exponent needs more rows.
        """
        if any(e < 0 for e in exps):
            raise ValueError("powers takes exponents >= 0")
        chain = self._chain_rows(base.value, max(exps, default=0).bit_length())
        m = self.modulus
        out = []
        for e in exps:
            buckets = [1] * (1 << _WINDOW_BITS)
            for row in chain:
                if not e:
                    break
                if d := e & _WINDOW_MASK:
                    buckets[d] = buckets[d] * row % m
                e >>= _WINDOW_BITS
            acc = run = 1
            for d in range(_WINDOW_MASK, 0, -1):
                run = run * buckets[d] % m      # product of rows with digit >= d
                acc = acc * run % m
            out.append(GroupElement(acc))
        return out

    def _chain_rows(self, value: int, bits: int) -> list[int]:
        """``value^(16^i)`` for every 4-bit digit of a ``bits``-bit exponent,
        from the kept chain when it is the chain of ``value``."""
        kept, chain = self._chain
        if kept != value:
            chain = [value % self.modulus]
            self._chain = (value, chain)
        m = self.modulus
        while len(chain) * _WINDOW_BITS < bits:
            row = chain[-1]
            for _ in range(_WINDOW_BITS):
                row = row * row % m
            chain.append(row)
        return chain

    def exp2(self, a: GroupElement, x: int, b: GroupElement, y: int) -> GroupElement:
        """a ** x * b ** y in one square-and-multiply pass over interleaved
        sliding 5-bit windows of x and y (x, y >= 0, not necessarily reduced).

        Each window is an odd digit below 32, so each side needs a table of
        16 odd powers and about one product per six exponent bits.
        """
        if x < 0 or y < 0:
            raise ValueError("exp2 takes exponents >= 0")
        m = self.modulus
        bits = max(x, y).bit_length()
        x_digits, y_digits = _sliding_windows(x, bits), _sliding_windows(y, bits)
        a_odd, b_odd = _odd_powers(a.value % m, m), _odd_powers(b.value % m, m)
        acc = 1
        for i in range(bits - 1, -1, -1):
            acc = acc * acc % m
            if d := x_digits[i]:
                acc = acc * a_odd[d >> 1] % m
            if d := y_digits[i]:
                acc = acc * b_odd[d >> 1] % m
        return GroupElement(acc)

    def _generator_power(self, e: int) -> int:
        """g ** e for 0 <= e < order, one table entry per 4-bit digit of e."""
        table = self._generator_table
        if table is None:
            table = self._generator_table = self._build_generator_table()
        m = self.modulus
        acc = 1
        for row in table:
            if d := e & _WINDOW_MASK:
                acc = acc * row[d] % m
            e >>= _WINDOW_BITS
        return acc

    def _build_generator_table(self) -> list[list[int]]:
        m = self.modulus
        table = []
        base = self.generator.value
        rows = (self.order.bit_length() + _WINDOW_BITS - 1) // _WINDOW_BITS
        for _ in range(rows):
            row = [1, base]
            for _ in range(2, 1 << _WINDOW_BITS):
                row.append(row[-1] * base % m)
            table.append(row)
            base = row[-1] * base % m
        return table

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return GroupElement((a.value * b.value) % self.modulus)

    def random_scalar(self, rng: Random) -> int:
        """Uniform nonzero exponent in [1, order)."""
        return rng.randrange(1, self.order)

    def encode_element(self, e: GroupElement) -> bytes:
        """Canonical fixed-length big-endian encoding."""
        return e.value.to_bytes(self.element_len, "big")

    def decode_element(self, data: bytes) -> GroupElement:
        """Inverse of :meth:`encode_element`; rejects non-members.

        Raises:
            DecodeError: wrong length, or the value is not a subgroup member.
        """
        if len(data) != self.element_len:
            raise DecodeError(
                f"element encoding must be {self.element_len} bytes, got {len(data)}")
        return self.element(int.from_bytes(data, "big"))

    def elements(self) -> list[GroupElement]:
        """Every subgroup member, by enumerating generator powers.

        Only sensible for the toy instantiation; used by exhaustive tests.
        """
        out = []
        cur = self.identity
        for _ in range(self.order):
            out.append(cur)
            cur = self.mul(cur, self.generator)
        return out


def _sliding_windows(e: int, bits: int) -> list[int]:
    """Odd digits d[j] < 32 with ``e == sum(d[j] << j)``, found left to right:
    each window starts at a set bit and ends at the lowest set bit among its
    next five (``bits >= e.bit_length()``)."""
    digits = [0] * bits
    i = e.bit_length() - 1
    while i >= 0:
        if e >> i & 1:
            j = max(i - _SLIDING_BITS + 1, 0)
            while not e >> j & 1:
                j += 1
            digits[j] = e >> j & ((1 << (i - j + 1)) - 1)
            i = j
        i -= 1
    return digits


def _odd_powers(base: int, m: int) -> list[int]:
    """base^(2k+1) mod m for k in [0, 16): the table of odd 5-bit windows."""
    square = base * base % m
    out = [base]
    for _ in range(1, 1 << (_SLIDING_BITS - 1)):
        out.append(out[-1] * square % m)
    return out


# 2048-bit modulus with a 256-bit prime-order subgroup. The constants were
# found by a deterministic SHA-256 counter search seeded with the string
# "canvault schnorr256 v1" (order candidates first, then the smallest even
# cofactor stream value giving a 2048-bit prime modulus; generator is
# 2^((modulus-1)/order)). Primality and order are re-verified in the tests.
_SCHNORR256_ORDER = int(
    "e0dcb5f61d0767264ef31284bdc16ae737a2cafaa1e0fa43174747b5c3f03c0d", 16)
_SCHNORR256_MODULUS = int(
    "f7e788be31ac8611bd545a0e313a59f3ec7f18e5462204bde9169a13e9c88215"
    "23647f8c38fba2241916944444156c19684ef1c766bcf626decea6f13f2975fc"
    "f4e9aa60e85834bad3cf0543a3883e5308a9bed5ecb43b68d05f8230162b5be2"
    "1debfdbe824d547930e345f84e5dcb96d87f3ad14cf5bc4e56bdd192f22cb88e"
    "b76eb8e7f0979542b2e44bff52688cd51b4fb118bfd8b762c61dc01d959b0ca9"
    "a0093b0b57e49239dae96758909be006933544918f3eda10d7d2b48dba3c0194"
    "9ed44fa55c29f4834d9bf21a1da15ed1720426f772cbe8a939999b9106e081c6"
    "5738b052121ebfc66b3fed007c55f9800a24cabefe6769be6520d5972db59521", 16)
_SCHNORR256_GENERATOR = int(
    "9c0a3875197eabc169d527bb14b27e2511fcfd469eed1cf0f5154859b577b133"
    "c7e3ceb0bcb0cebfe64dca9eaf48b2e4d9fafd814ecd164e7b169146df1e26ad"
    "b16d23a5ecd82b92528df71dce3bb331074ed31d0372ced92d02d8731c07e70d"
    "d37455c0420069b2d457a14c96f69f520bcd5c6d80c393b039d0bfa26f658ddf"
    "3305979720b17dddb48e0795d6c5a53df300d0ac7fd34df95b676a1906ab1ed9"
    "92ea011245f9d4458b4218dcda9f53b02f3bb525cc576550d4858d25fd12ab95"
    "ab9499b95a1cb579825de7cc2e0b8965c5a83a7f35fef321186080906e439379"
    "b6d36212e551259fec0fc26a4a8ed0bbe6be8a794b00c8cce9e46131b84a6bae", 16)


def _toy23() -> Group:
    return Group("toy23", modulus=23, order=11, generator=2)


def _schnorr256() -> Group:
    return Group("schnorr256", modulus=_SCHNORR256_MODULUS,
                 order=_SCHNORR256_ORDER, generator=_SCHNORR256_GENERATOR)


_FACTORIES = {"toy23": _toy23, "schnorr256": _schnorr256}
GROUP_NAMES = tuple(_FACTORIES)


@cache
def get_group(name: str) -> Group:
    """The process's one instantiation of the named group, built (and its
    generator checked) on the first request."""
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise ValueError(f"unknown group {name!r}; choose from {GROUP_NAMES}") from None
