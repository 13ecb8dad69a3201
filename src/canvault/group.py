"""Prime-order multiplicative groups backing the key encapsulation layer.

Two instantiations ship with the package:

* ``toy23`` -- the order-11 subgroup of Z*_23 with generator 2. Small enough
  to enumerate exhaustively, which is what the test oracles do.
* ``schnorr256`` -- a 2048-bit prime modulus with a 256-bit prime-order
  subgroup, giving a 128-bit security level without any curve plumbing.

All exponents are plain ints in ``[0, order)``. An element's format, its
fixed-width bytes and its keyfile text, is known only here: other modules
handle elements through :class:`Group`'s methods.

Every group power is one call of the group's backend, :attr:`Group._powers`:
``fixed_base_exp`` (a power of the generator), ``mod_exp`` (a single power of
any other base) or ``mod_exp2`` (a double power ``a^x b^y``). A modulus of
512 bits or more takes the Montgomery powers of the libcrypto that CPython's
``_hashlib`` module links (``canvault._libcrypto``), the generator's from a
fixed-window table of its precomputed powers. A smaller modulus takes builtin
``pow``.
"""

from __future__ import annotations

from functools import cache, cached_property
from random import Random
from typing import Optional

from .errors import DecodeError

__all__ = ["Group", "GroupElement", "get_group", "GROUP_NAMES"]


# Below this modulus size a ``ctypes`` call costs far more than the power:
# 12-19 us against about 0.2 us for builtin ``pow`` on toy23's 5 bits.
_LIBCRYPTO_MIN_BITS = 512


class _BuiltinPowers:
    """The three powers of ``canvault._libcrypto`` on builtin ``pow``."""

    mod_exp = staticmethod(pow)

    @staticmethod
    def mod_exp2(a: int, x: int, b: int, y: int, m: int) -> int:
        return pow(a, x, m) * pow(b, y, m) % m

    @staticmethod
    def fixed_base_exp(g: int, e: int, m: int, bits: int) -> int:
        return pow(g, e, m)


class GroupElement:
    """Reduced residue of a Group's modulus; :meth:`Group.decode_element`
    returns only subgroup members, each carrying ``high``, its
    ``value ** (2 ** h)`` (see :meth:`Group._pow`). Equality, hashing and
    ``repr`` read only ``value``. Its fields cannot be assigned."""

    __slots__ = ("value", "high")

    def __init__(self, value: int, high: Optional[int] = None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "high", high)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to GroupElement.{name}")

    def __reduce__(self):       # copies and pickles build through __init__
        return GroupElement, (self.value, self.high)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"GroupElement(value={self.value!r})"


class Group:
    """Multiplicative subgroup of prime order ``order`` inside Z*_modulus.

    Attributes:
        name: registry name of the instantiation.
        modulus: prime defining the ambient field Z*_modulus.
        order: prime order of the cyclic subgroup; exponents live mod this.
        generator: fixed generator of the subgroup.
        element_len: byte length of the fixed-width element encoding.
    """

    def __init__(self, name: str, modulus: int, order: int, generator: int):
        self.name = name
        self.modulus = modulus
        self.order = order
        self.element_len = (modulus.bit_length() + 7) // 8
        self.generator = GroupElement(generator % modulus)
        self._half = (order.bit_length() + 1) // 2     # split point, see _pow
        if pow(generator, order, modulus) != 1 or generator % modulus == 1:
            raise ValueError(f"{name}: generator does not have order {order}")

    def __repr__(self) -> str:
        return f"Group({self.name!r}, {self.modulus.bit_length()}-bit modulus)"

    @cached_property
    def _powers(self):
        """This group's backend: ``canvault._libcrypto`` for a modulus of
        :data:`_LIBCRYPTO_MIN_BITS` or more, else :class:`_BuiltinPowers`.

        Resolved on the group's first power, so ``ctypes`` and libcrypto load
        then, never at import or in :func:`get_group`. Where that library
        cannot be loaded, the first power raises its import error: a run
        needs it for AES-CTR anyway.
        """
        if self.modulus.bit_length() < _LIBCRYPTO_MIN_BITS:
            return _BuiltinPowers
        from . import _libcrypto
        return _libcrypto

    def is_member(self, e: GroupElement) -> bool:
        """True iff ``e`` is a reduced member of the order-p subgroup."""
        return 0 < e.value < self.modulus and self._pow(e, self.order) == 1

    def exp(self, base: GroupElement, e: int) -> GroupElement:
        """base ** e within the group.

        A power of the generator (compared by value) reduces ``e`` mod
        ``order``, so any int works there, and comes from the fixed-base table
        that the first one builds. Any other base takes ``e >= 0``, not necessarily
        reduced.

        Raises:
            ValueError: ``e < 0`` and ``base`` is not the generator.
        """
        g = self.generator.value
        if base.value == g:
            return GroupElement(self._powers.fixed_base_exp(
                g, e % self.order, self.modulus, self.order.bit_length()))
        if e < 0:
            raise ValueError("exp takes exponents >= 0 for a base other than g")
        return GroupElement(self._pow(base, e))

    def exp2(self, a: GroupElement, x: int, b: GroupElement, y: int) -> GroupElement:
        """a ** x * b ** y within the group, in one pass.

        Raises:
            ValueError: ``x < 0`` or ``y < 0``.
        """
        if x < 0 or y < 0:
            raise ValueError("exp2 takes exponents >= 0")
        return GroupElement(self._powers.mod_exp2(a.value, x, b.value, y,
                                                  self.modulus))

    def _pow(self, base: GroupElement, e: int) -> int:
        """base ** e mod modulus for ``e >= 0``.

        Where the base carries ``base ** (2 ** _half)`` (every decoded element
        does), an exponent of more than ``_half`` bits is split there and
        taken as one double power of two half-length exponents, about two
        thirds of the cost of a single power.
        """
        h = self._half
        if e >> h and base.high is not None:
            return self._powers.mod_exp2(base.value, e & ((1 << h) - 1),
                                         base.high, e >> h, self.modulus)
        return self._powers.mod_exp(base.value, e, self.modulus)

    def random_scalar(self, rng: Random) -> int:
        """Uniform nonzero exponent in [1, order)."""
        return rng.randrange(1, self.order)

    def encode_element(self, e: GroupElement) -> bytes:
        """Canonical fixed-length big-endian encoding."""
        return e.value.to_bytes(self.element_len, "big")

    def decode_element(self, data: bytes) -> GroupElement:
        """Inverse of :meth:`encode_element`; rejects non-members.

        The element carries ``value ** (2 ** _half)`` for its membership
        check and its later powers.

        Raises:
            DecodeError: wrong length, or the value is not a subgroup member.
        """
        value = self.decode_residue(data).value
        e = GroupElement(value, self._powers.mod_exp(value, 1 << self._half,
                                                     self.modulus))
        if not self.is_member(e):
            raise DecodeError(f"{value} is not in the order-{self.order} subgroup")
        return e

    def decode_residue(self, data: bytes) -> GroupElement:
        """Like :meth:`decode_element`, but only checks that the value is a
        residue in [1, modulus), not that it is a subgroup member.

        Meant for a value that is later compared with a subgroup member: a
        non-member never equals one, so the comparison stands in for the
        membership check.

        Raises:
            DecodeError: wrong length, or the value is outside [1, modulus).
        """
        if len(data) != self.element_len:
            raise DecodeError(
                f"element encoding must be {self.element_len} bytes, got {len(data)}")
        value = int.from_bytes(data, "big")
        if not 0 < value < self.modulus:
            raise DecodeError(f"{value} is not a residue mod the modulus")
        return GroupElement(value)

    def element_hex(self, e: GroupElement) -> str:
        """Keyfile text form: lower-case hex, no prefix, no leading zeros."""
        return f"{e.value:x}"


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


# Each group's (modulus, order, generator), by name.
_PARAMETERS = {
    "toy23": (23, 11, 2),
    "schnorr256": (_SCHNORR256_MODULUS, _SCHNORR256_ORDER, _SCHNORR256_GENERATOR),
}
GROUP_NAMES = tuple(_PARAMETERS)


@cache
def get_group(name: str) -> Group:
    """The process's one instantiation of the named group, built (and its
    generator checked) on the first request."""
    try:
        params = _PARAMETERS[name]
    except KeyError:
        raise ValueError(f"unknown group {name!r}; choose from {GROUP_NAMES}") from None
    return Group(name, *params)
