"""Modular powers on the libcrypto that CPython's ``_ssl`` module links.

Importing this module loads the library through ``ctypes`` and declares every
signature it calls, in one table; it raises ``ImportError``, ``OSError`` or
``AttributeError`` where that library cannot be loaded. ``_ssl`` has already
mapped the library, so opening it by its soname returns the same copy.

Three powers: :func:`mod_exp` and :func:`mod_exp2` (a single and a double
Montgomery power of any base), and :func:`fixed_base_exp`, a power of one
fixed base from a Lim-Lee comb (CRYPTO '94) of precomputed powers in
Montgomery form.

Each odd modulus gets one ``BN_MONT_CTX``, and each ``(base, modulus,
exponent bits)`` one comb, built on its first power and kept, read-only, for
the process; libcrypto never writes a Montgomery context or a multiplicand it
is handed, so threads share both safely. Every call allocates its own
``BN_CTX`` scratch space and BIGNUMs and frees them before it returns.
"""

from __future__ import annotations

import _ssl
import ctypes
import threading

_major, _minor = _ssl.OPENSSL_VERSION_INFO[:2]
lib = ctypes.CDLL(f"libcrypto.so.{_major}" if _major >= 3
                  else f"libcrypto.so.{_major}.{_minor}")

_ptr, _int = ctypes.c_void_p, ctypes.c_int
for _name, _restype, _argtypes in (
        ("BN_CTX_new", _ptr, []),
        ("BN_CTX_free", None, [_ptr]),
        ("BN_new", _ptr, []),
        ("BN_free", None, [_ptr]),
        ("BN_bin2bn", _ptr, [_ptr, _int, _ptr]),
        ("BN_bn2binpad", _int, [_ptr, _ptr, _int]),
        ("BN_copy", _ptr, [_ptr, _ptr]),
        ("BN_MONT_CTX_new", _ptr, []),
        ("BN_MONT_CTX_set", _int, [_ptr, _ptr, _ptr]),
        ("BN_to_montgomery", _int, [_ptr] * 4),
        ("BN_from_montgomery", _int, [_ptr] * 4),
        ("BN_mod_mul_montgomery", _int, [_ptr] * 5),
        ("BN_mod_exp_mont", _int, [_ptr] * 6),
        ("BN_mod_exp2_mont", _int, [_ptr] * 8)):
    _fn = getattr(lib, _name)
    _fn.restype, _fn.argtypes = _restype, _argtypes
del _name, _restype, _argtypes, _fn

# modulus -> (its byte length, its BIGNUM, its BN_MONT_CTX); never freed.
_moduli: dict[int, tuple[int, int, int]] = {}
_moduli_lock = threading.Lock()
# (base, modulus, exponent bits) -> its _Comb; never freed.
_combs: dict[tuple[int, int, int], "_Comb"] = {}
_combs_lock = threading.Lock()


def _modulus(m: int) -> tuple[int, int, int]:
    try:
        return _moduli[m]
    except KeyError:
        pass
    if m < 3 or not m & 1:
        raise ValueError("Montgomery form needs an odd modulus > 1")
    with _moduli_lock:
        if m not in _moduli:
            n = (m.bit_length() + 7) // 8
            ctx, mont = lib.BN_CTX_new(), lib.BN_MONT_CTX_new()
            mod = lib.BN_bin2bn(m.to_bytes(n, "big"), n, None)
            ok = ctx and mont and mod and lib.BN_MONT_CTX_set(mont, mod, ctx)
            lib.BN_CTX_free(ctx)
            if not ok:
                raise MemoryError("libcrypto BN_MONT_CTX_set failed")
            _moduli[m] = (n, mod, mont)
    return _moduli[m]


def _bn(v: int) -> int:
    """A fresh BIGNUM holding ``v >= 0``; the caller frees it."""
    data = v.to_bytes((v.bit_length() + 7) // 8, "big")
    return lib.BN_bin2bn(data, len(data), None)


def _call(m: int, exp_fn, values: tuple[int, ...]) -> int:
    """``exp_fn(r, *values, mod, ctx, mont)`` on fresh BIGNUMs, as an int."""
    n, mod, mont = _modulus(m)
    out = ctypes.create_string_buffer(n)
    ctx, nums = lib.BN_CTX_new(), [lib.BN_new()]
    try:
        for v in values:
            nums.append(_bn(v))
        if not (ctx and all(nums) and exp_fn(*nums, mod, ctx, mont)
                and lib.BN_bn2binpad(nums[0], out, n) == n):
            raise MemoryError(f"libcrypto {exp_fn.__name__} failed")
        return int.from_bytes(out.raw, "big")
    finally:
        for num in nums:
            lib.BN_free(num)
        lib.BN_CTX_free(ctx)


def mod_exp(base: int, e: int, m: int) -> int:
    """``base ** e mod m`` for ``e >= 0`` and an odd ``m > 1``."""
    return _call(m, lib.BN_mod_exp_mont, (base % m, e))


def mod_exp2(a: int, x: int, b: int, y: int, m: int) -> int:
    """``a**x * b**y mod m`` for ``x, y >= 0`` and an odd ``m > 1``, in one
    interleaved pass.

    ``BN_mod_exp2_mont`` returns 0 whenever either base is 0 mod ``m``, even
    when that base's exponent is 0, so such a pair takes two single powers.
    """
    a, b = a % m, b % m
    if not (a and b):
        return mod_exp(a, x, m) * mod_exp(b, y, m) % m
    return _call(m, lib.BN_mod_exp2_mont, (a, x, b, y))


# _SPREAD[b] moves bit j of the byte b to bit 8j.
_SPREAD = tuple(sum((b >> j & 1) << 8 * j for j in range(8)) for b in range(256))


class _Comb:
    """Lim-Lee comb for powers ``g^e mod m``, ``0 <= e < 2^(8 * width)``.

    ``e`` is read as 8 rows of ``width`` bits, row ``i`` being bits
    ``[i * width, (i + 1) * width)``; ``width`` is even, and ``half`` is half
    of it. Column ``k`` of the rows is an 8-bit index ``u`` whose bit ``i`` is
    e's bit ``i * width + k``. ``tables[0][u]`` holds the product of
    ``g^(2^(i * width))`` over the bits ``i`` set in ``u``, and ``tables[1][u]``
    the same for ``g^(2^(i * width + half))``, both as BIGNUMs in Montgomery
    form (entry 0 is unused). Column ``k < half`` indexes the first table and
    column ``k + half`` the second, so ``g^e`` takes at most ``half - 1``
    squarings and ``2 * half`` multiplications.
    """

    def __init__(self, g: int, m: int, bits: int):
        self.n, _, self.mont = _modulus(m)
        self.width = (bits + 7) // 8 + 1 & ~1
        self.half = self.width // 2
        # g^(2^(j * half)) for j < 16, each from the one before it.
        powers = [g % m]
        for _ in range(15):
            powers.append(mod_exp(powers[-1], 1 << self.half, m))
        ctx, made = lib.BN_CTX_new(), []
        try:
            tables = ([None], [None])
            for u in range(1, 256):
                low = u & -u
                for parity, table in enumerate(tables):
                    if u == low:
                        entry = _bn(powers[2 * low.bit_length() - 2 + parity])
                        ok = entry and lib.BN_to_montgomery(entry, entry, self.mont, ctx)
                    else:
                        entry = lib.BN_new()
                        ok = entry and lib.BN_mod_mul_montgomery(
                            entry, table[u - low], table[low], self.mont, ctx)
                    made.append(entry)
                    if not (ctx and ok):
                        raise MemoryError("libcrypto comb table failed")
                    table.append(entry)
        except BaseException:
            for num in made:
                lib.BN_free(num)
            raise
        finally:
            lib.BN_CTX_free(ctx)
        self.tables = tuple(map(tuple, tables))

    def __call__(self, e: int) -> int:
        width, half, mont = self.width, self.half, self.mont
        nb = (width + 7) // 8
        spread, mask = 0, (1 << width) - 1
        for i in range(8):
            for j, byte in enumerate((e >> i * width & mask).to_bytes(nb, "little")):
                spread |= _SPREAD[byte] << 64 * j + i
        cols = spread.to_bytes(8 * nb, "little")
        mul = lib.BN_mod_mul_montgomery
        out = ctypes.create_string_buffer(self.n)
        ctx, acc = lib.BN_CTX_new(), lib.BN_new()
        try:
            ok, started = ctx and acc, False
            for k in range(half - 1, -1, -1):
                if started:
                    ok = ok and mul(acc, acc, acc, mont, ctx)
                for table, u in zip(self.tables, (cols[k], cols[k + half])):
                    if u and started:
                        ok = ok and mul(acc, acc, table[u], mont, ctx)
                    elif u:
                        ok, started = ok and lib.BN_copy(acc, table[u]), True
            if not started:
                return 1
            if not (ok and lib.BN_from_montgomery(acc, acc, mont, ctx)
                    and lib.BN_bn2binpad(acc, out, self.n) == self.n):
                raise MemoryError("libcrypto comb power failed")
            return int.from_bytes(out.raw, "big")
        finally:
            lib.BN_free(acc)
            lib.BN_CTX_free(ctx)


def fixed_base_exp(g: int, e: int, m: int, bits: int) -> int:
    """``g ** e mod m`` for ``0 <= e < 2 ** bits`` and an odd ``m > 1``, from
    the comb kept for ``(g, m, bits)``, which the first such call builds."""
    if e < 0 or e >> bits:
        raise ValueError(f"fixed_base_exp takes 0 <= e < 2^{bits}")
    key = (g, m, bits)
    try:
        comb = _combs[key]
    except KeyError:
        with _combs_lock:
            comb = _combs.get(key) or _combs.setdefault(key, _Comb(g, m, bits))
    return comb(e)
