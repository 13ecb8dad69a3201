"""Modular powers on the libcrypto that CPython's ``_ssl`` module links.

Importing this module loads the library through ``ctypes`` and declares every
signature it calls, in one table; it raises ``ImportError``, ``OSError`` or
``AttributeError`` where that library cannot be loaded. ``_ssl`` has already
mapped the library, so opening it by its soname returns the same copy.

Each odd modulus gets one ``BN_MONT_CTX``, built on its first power and kept,
read-only, for the process; libcrypto never writes a Montgomery context it is
handed, so threads share it safely. Every call allocates its own ``BN_CTX``
scratch space and BIGNUMs and frees them before it returns.
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
        ("BN_MONT_CTX_new", _ptr, []),
        ("BN_MONT_CTX_set", _int, [_ptr, _ptr, _ptr]),
        ("BN_mod_exp_mont", _int, [_ptr] * 6),
        ("BN_mod_exp2_mont", _int, [_ptr] * 8)):
    _fn = getattr(lib, _name)
    _fn.restype, _fn.argtypes = _restype, _argtypes
del _name, _restype, _argtypes, _fn

# modulus -> (its byte length, its BIGNUM, its BN_MONT_CTX); never freed.
_moduli: dict[int, tuple[int, int, int]] = {}
_moduli_lock = threading.Lock()


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
