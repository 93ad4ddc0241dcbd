"""Modular powers in OpenSSL.

Powers use `BN_mod_exp_mont_consttime`, OpenSSL's constant-time Montgomery
exponentiation, called through `ctypes` on the libcrypto that CPython's
`_hashlib` links, so nothing is added to the dependencies.  The library is
loaded on a process's first power and kept for the process, so forked
workers inherit it; where it or one of its functions cannot be loaded, every
power raises RuntimeError rather than fall back to the built-in `pow`, which
is not constant-time.
"""

from __future__ import annotations

import threading

# The process's power function, OpenSSL's, loaded on the first call of `mod_exp`.
_power = None


def mod_exp(base: int, exponent: int, modulus: int) -> int:
    """`pow(base, exponent, modulus)` for an odd modulus > 1."""
    if _power is None:
        _load()
    # pow's own semantics (inverses, reduction) for what OpenSSL is not given
    if exponent < 0 or not 0 < base < modulus:
        return pow(base, exponent, modulus)
    return _power(base, exponent, modulus)


def _load():
    global _power
    try:
        _power = _OpenSSL().power
    except (ImportError, OSError, AttributeError) as exc:  # no shared libcrypto, or no such symbol
        raise RuntimeError(
            f"group powers need the libcrypto that hashlib links, and it cannot be loaded ({exc})"
        ) from exc


class _OpenSSL:
    """Scratch BIGNUMs, a BN_CTX, and per modulus a Montgomery context and
    an output buffer.  PyDLL calls hold the GIL, so no two OpenSSL calls
    overlap; the lock keeps one power's calls from interleaving with another
    thread's, which share the scratch."""

    def __init__(self):
        import _hashlib
        import ctypes

        lib = ctypes.PyDLL(_hashlib.__file__)  # its libcrypto's symbols resolve through it
        ptr, c_int, c_bytes = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p

        def declare(name, restype, *argtypes):
            fn = getattr(lib, name)
            fn.restype, fn.argtypes, fn.errcheck = restype, list(argtypes), _check
            return fn

        self._from_bytes = declare("BN_bin2bn", ptr, c_bytes, c_int, ptr)
        self._to_bytes = declare("BN_bn2binpad", c_int, ptr, c_bytes, c_int)
        self._mont_set = declare("BN_MONT_CTX_set", c_int, ptr, ptr, ptr)
        self._exp = declare("BN_mod_exp_mont_consttime", c_int, ptr, ptr, ptr, ptr, ptr, ptr)
        new, self._buffer = declare("BN_new", ptr), ctypes.create_string_buffer
        self._mont_new = declare("BN_MONT_CTX_new", ptr)
        self._ctx = declare("BN_CTX_new", ptr)()
        self._base, self._exponent, self._result = new(), new(), new()
        self._moduli: dict[int, tuple] = {}  # q -> (BIGNUM, BN_MONT_CTX, output buffer)
        self._lock = threading.Lock()

    def _bignum(self, value: int, target) -> int:
        data = value.to_bytes((value.bit_length() + 7) // 8, "big")
        return self._from_bytes(data, len(data), target)

    def _montgomery(self, modulus: int) -> tuple:
        m = self._moduli.get(modulus)
        if m is None:
            bn, mont = self._bignum(modulus, None), self._mont_new()
            self._mont_set(mont, bn, self._ctx)
            m = self._moduli[modulus] = (bn, mont, self._buffer((modulus.bit_length() + 7) // 8))
        return m

    def power(self, base: int, exponent: int, modulus: int) -> int:
        with self._lock:
            bn_modulus, mont, out = self._montgomery(modulus)
            self._exp(
                self._result,
                self._bignum(base, self._base),
                self._bignum(exponent, self._exponent),
                bn_modulus,
                self._ctx,
                mont,
            )
            self._to_bytes(self._result, out, len(out))
            return int.from_bytes(out.raw, "big")


def _check(result, fn, args):
    # each declared call returns 0 or NULL on failure (BN_bn2binpad: -1)
    if not result or result < 0:
        raise RuntimeError(f"OpenSSL {fn.__name__} failed")
    return result
