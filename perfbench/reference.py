"""A fixed computation that measures how fast the host runs right now.

The benchmark's host is shared: the speed of the same code drifts by up to
~40% over tens of seconds as other tenants load the machine, in Python
bytecode and in OpenSSL alike.  The benchmark times this reference, which
does not use the program, whenever a stage opens or closes, and reports
each time scaled by NOMINAL_S / mean(reference samples): the time the run
would have taken on a host where the reference takes NOMINAL_S.  The mean,
not the median, because the host's speed flips between a fast and a slow
state many times a second, and a stage's time is the mean over the states
it ran in.  The mix is that of the pipeline: X25519 and AES-GCM, 256-bit
modular exponentiation, and interpreted dictionary and bytes work.
"""

from __future__ import annotations

import hashlib
import statistics
from time import perf_counter

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

NOMINAL_S = 0.010
_REPEATS = 2
_MODULUS = 0xC3AD137D536F65822CC765EA97B25FA735C5D87EA4BA8AE681008C269A719A2B


class SpeedReference:
    def __init__(self):
        self.samples: list[float] = []
        self._peer = X25519PrivateKey.from_private_bytes(b"\x01" * 32).public_key()
        self._keys = [hashlib.sha256(bytes([i])).digest() for i in range(16)]
        self._aead = AESGCM(b"\x02" * 16)

    def _work(self) -> int:
        for k in self._keys:
            X25519PrivateKey.from_private_bytes(k).exchange(self._peer)
            self._aead.encrypt(k[:12], k * 4, None)
        acc = 4
        for k in self._keys[:8]:
            acc = pow(acc, int.from_bytes(k, "big"), _MODULUS)
        table: dict[int, bytes] = {}
        for i in range(6000):
            table[i & 255] = table.get(i & 255, b"")[:8] + bytes([i & 255])
        return acc

    def sample(self) -> None:
        start = perf_counter()
        for _ in range(_REPEATS):
            self._work()
        self.samples.append(perf_counter() - start)

    def time_scale(self) -> float:
        """Factor that turns a time measured in this run into nominal time."""
        return NOMINAL_S / statistics.fmean(self.samples)
