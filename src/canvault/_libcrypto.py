"""Modular powers and AES-128-CTR on the libcrypto that CPython's ``_hashlib``
module links.

Importing this module opens ``_hashlib``'s shared object with ``ctypes`` and
declares every signature it calls, in one table. Symbols looked up through that
handle resolve in ``_hashlib``'s dependencies: the libcrypto copy ``hashlib``
has already mapped, with no soname to guess. Where ``_hashlib`` exposes no
libcrypto, import raises ``ImportError``, ``OSError`` or ``AttributeError``.

Three powers: :func:`mod_exp` and :func:`mod_exp2` (a single and a double
Montgomery power of any base), and :func:`fixed_base_exp`, a power of one
fixed base from a fixed-window table of its precomputed powers in Montgomery
form (the fixed-base windowing method, HAC 14.6.3). One cipher:
:func:`aes128_ctr`, AES-128 in counter mode through libcrypto's EVP interface.

Each odd modulus gets one ``BN_MONT_CTX``, and each ``(base, modulus,
exponent bits)`` one table, built on its first power and kept, read-only, for
the process; libcrypto never writes a Montgomery context or a multiplicand it
is handed, so threads share both safely. Every call allocates its own
``BN_CTX`` scratch space and BIGNUMs, or its own ``EVP_CIPHER_CTX``, and frees
them before it returns.
"""

from __future__ import annotations

import _hashlib
import ctypes
import threading

lib = ctypes.CDLL(_hashlib.__file__)

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
        ("BN_MONT_CTX_free", None, [_ptr]),
        ("BN_MONT_CTX_set", _int, [_ptr, _ptr, _ptr]),
        ("BN_to_montgomery", _int, [_ptr] * 4),
        ("BN_from_montgomery", _int, [_ptr] * 4),
        ("BN_mod_mul_montgomery", _int, [_ptr] * 5),
        ("BN_mod_exp_mont", _int, [_ptr] * 6),
        ("BN_mod_exp2_mont", _int, [_ptr] * 8),
        ("EVP_aes_128_ctr", _ptr, []),
        ("EVP_CIPHER_CTX_new", _ptr, []),
        ("EVP_CIPHER_CTX_free", None, [_ptr]),
        ("EVP_EncryptInit_ex", _int, [_ptr] * 5),
        ("EVP_EncryptUpdate", _int, [_ptr] * 4 + [_int])):
    _fn = getattr(lib, _name)
    _fn.restype, _fn.argtypes = _restype, _argtypes
del _name, _restype, _argtypes, _fn

# modulus -> (its byte length, its BIGNUM, its BN_MONT_CTX); never freed.
_moduli: dict[int, tuple[int, int, int]] = {}
_moduli_lock = threading.Lock()
# (base, modulus, exponent bits) -> its _Table; never freed.
_tables: dict[tuple[int, int, int], "_Table"] = {}
_tables_lock = threading.Lock()


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
                lib.BN_MONT_CTX_free(mont)
                lib.BN_free(mod)
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


# Exponent bits per digit of a fixed-base table.
_WINDOW = 5
_MASK = (1 << _WINDOW) - 1


class _Table:
    """Fixed-base windowing table for powers ``g^e mod m``, ``0 <= e < 2^bits``.

    ``rows[i][d]`` is ``g^(d * 2^(_WINDOW * i))`` as a BIGNUM in Montgomery
    form, for each window ``i`` and each digit ``1 <= d < 2^_WINDOW`` (entry 0
    is ``None``); the last row stops at the bits that are left. ``g^e`` is the
    product of one entry per nonzero digit of ``e``, with no squarings.
    """

    def __init__(self, g: int, m: int, bits: int):
        self.m, mont = m, _modulus(m)[2]
        mul, half = lib.BN_mod_mul_montgomery, 1 << _WINDOW - 1
        ctx, base = lib.BN_CTX_new(), _bn(g % m)
        made, rows = [base], []
        try:
            ok = ctx and base and lib.BN_to_montgomery(base, base, mont, ctx)
            for i in range(0, bits, _WINDOW):
                row = [None, base]
                for _ in range(2, 1 << min(_WINDOW, bits - i)):
                    entry = lib.BN_new()
                    made.append(entry)
                    ok = ok and entry and mul(entry, row[-1], base, mont, ctx)
                    row.append(entry)
                rows.append(tuple(row))
                if i + _WINDOW < bits:
                    # The next row's base, g^(2^(_WINDOW * (i + 1))).
                    base = lib.BN_new()
                    made.append(base)
                    ok = ok and base and mul(base, row[half], row[half], mont, ctx)
            if not ok:
                raise MemoryError("libcrypto fixed-base table failed")
        except BaseException:
            for num in made:
                lib.BN_free(num)
            raise
        finally:
            lib.BN_CTX_free(ctx)
        self.rows = tuple(rows)

    def __call__(self, e: int) -> int:
        entries = [row[d] for i, row in enumerate(self.rows)
                   if (d := e >> _WINDOW * i & _MASK)]
        if not entries:
            return 1

        def fixed_base_product(acc, _mod, ctx, mont):
            ok = lib.BN_copy(acc, entries[0])
            for entry in entries[1:]:
                ok = ok and lib.BN_mod_mul_montgomery(acc, acc, entry, mont, ctx)
            return ok and lib.BN_from_montgomery(acc, acc, mont, ctx)

        return _call(self.m, fixed_base_product, ())


def fixed_base_exp(g: int, e: int, m: int, bits: int) -> int:
    """``g ** e mod m`` for ``0 <= e < 2 ** bits`` and an odd ``m > 1``, from
    the table kept for ``(g, m, bits)``, which the first such call builds."""
    if e < 0 or e >> bits:
        raise ValueError(f"fixed_base_exp takes 0 <= e < 2^{bits}")
    key = (g, m, bits)
    try:
        table = _tables[key]
    except KeyError:
        with _tables_lock:
            table = _tables.get(key) or _tables.setdefault(key, _Table(g, m, bits))
    return table(e)


def aes128_ctr(key: bytes, iv: bytes, data: bytes) -> bytes:
    """``data`` XOR the AES-128-CTR keystream of ``key`` from the initial
    counter block ``iv``, which counts as one big-endian 128-bit integer;
    encryption and decryption are the same call.

    libcrypto reads 16 bytes through each of ``key`` and ``iv``, so any other
    length is refused here.
    """
    if len(key) != 16 or len(iv) != 16:
        raise ValueError("aes128_ctr takes a 16-byte key and a 16-byte iv")
    n = len(data)
    out, outl = ctypes.create_string_buffer(n), ctypes.c_int()
    ctx = lib.EVP_CIPHER_CTX_new()
    try:
        if not (ctx and lib.EVP_EncryptInit_ex(ctx, lib.EVP_aes_128_ctr(), None,
                                               key, iv)
                and lib.EVP_EncryptUpdate(ctx, out, ctypes.byref(outl), data, n)
                and outl.value == n):
            raise MemoryError("libcrypto AES-128-CTR failed")
        return out.raw
    finally:
        lib.EVP_CIPHER_CTX_free(ctx)
