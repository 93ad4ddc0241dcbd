"""Wire and file formats shared by all pipeline stages.

Report wire format (bit exact):
    version (1) || outer envelope

The outer envelope is sealed to the shuffler; its plaintext is
    crowd_id_kind (1) || crowd_id (width by kind) || inner envelope
and the inner envelope is sealed to the analyzer; its plaintext is
    payload length (u16 LE) || payload || zero padding to pad_to bytes.
An envelope is its plaintext plus ENVELOPE_OVERHEAD bytes (see
`anonpipe.crypto.envelope`).  The crowd ID travels only inside the outer
envelope, so only the shuffler, after opening it, learns a report's crowd.

Batch file format:
    magic (8) || record_length (u32 LE) || count (u64 LE) || records

On the blinded path, `harness.shuffle_file` joins and `harness.shuffle2_file`
splits the intermediate batch's records
    crowd ID (group.ciphertext_len) || inner envelope
where the crowd ID is an El Gamal ciphertext c1 || c2 that only the
`GroupParams` methods read or write.

All reports within one pipeline run serialize to the same length, so an
observer learns nothing from record sizes.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

from anonpipe.crypto.envelope import ENVELOPE_OVERHEAD
from anonpipe.crypto.group import GroupParams
from anonpipe.errors import DecryptionError, PayloadTooLarge

REPORT_VERSION = 2

# Crowd-ID kinds and their serialized widths.
KIND_PLAIN = 0
KIND_HASHED = 1
KIND_FIXED = 2
KIND_BLINDED = 3

PLAIN_CROWD_WIDTH = 24  # 1 length byte + up to 23 key bytes, zero padded
HASHED_CROWD_WIDTH = 8
FIXED_CROWD_WIDTH = 8
FIXED_CROWD_SENTINEL = b"\x00" * FIXED_CROWD_WIDTH

BATCH_MAGIC = b"APBATCH1"
_BATCH_HEADER = struct.Struct("<8sIQ")


def crowd_id_width(kind: int, group: GroupParams | None = None) -> int:
    if kind == KIND_PLAIN:
        return PLAIN_CROWD_WIDTH
    if kind == KIND_HASHED:
        return HASHED_CROWD_WIDTH
    if kind == KIND_FIXED:
        return FIXED_CROWD_WIDTH
    if kind == KIND_BLINDED:
        if group is None:
            # a party without group parameters cannot parse this kind
            raise DecryptionError("blinded crowd IDs need group parameters")
        return group.ciphertext_len
    raise DecryptionError(f"unknown crowd-ID kind {kind}")


def encode_plain_crowd(key: bytes) -> bytes:
    if len(key) > PLAIN_CROWD_WIDTH - 1:
        raise PayloadTooLarge("plain crowd key longer than 23 bytes")
    return bytes([len(key)]) + key.ljust(PLAIN_CROWD_WIDTH - 1, b"\x00")


def padded_length(payload_len: int) -> int:
    """The smallest pad_to that holds a payload of `payload_len` bytes."""
    return 2 + payload_len


def pad_payload(payload: bytes, pad_to: int) -> bytes:
    """Length-prefixed, zero-padded payload of exactly pad_to bytes."""
    if padded_length(len(payload)) > pad_to:
        raise PayloadTooLarge(f"{len(payload)}-byte payload exceeds pad_to={pad_to}")
    return struct.pack("<H", len(payload)) + payload.ljust(pad_to - 2, b"\x00")


def unpad_payload(padded: bytes) -> bytes:
    if len(padded) < 2:
        raise DecryptionError("padded payload shorter than its length prefix")
    (n,) = struct.unpack_from("<H", padded)
    if n + 2 > len(padded):
        raise DecryptionError("corrupt padded payload")
    return padded[2 : 2 + n]


def build_report(outer: bytes) -> bytes:
    return bytes([REPORT_VERSION]) + outer


def parse_report(data: bytes) -> bytes:
    """The outer envelope bytes of a report of this version."""
    if not data or data[0] != REPORT_VERSION:
        raise DecryptionError("bad report header")
    return data[1:]


def build_outer_plaintext(kind: int, crowd_id: bytes, inner: bytes) -> bytes:
    return bytes([kind]) + crowd_id + inner


def parse_outer_plaintext(
    data: bytes, group: GroupParams | None = None
) -> tuple[int, bytes, bytes]:
    """Split an opened outer layer into (kind, crowd_id, inner envelope bytes)."""
    if not data:
        raise DecryptionError("empty outer plaintext")
    kind = data[0]
    width = crowd_id_width(kind, group)
    if len(data) < 1 + width + ENVELOPE_OVERHEAD:
        raise DecryptionError("truncated outer plaintext")
    return kind, data[1 : 1 + width], data[1 + width :]


def inner_envelope_length(pad_to: int) -> int:
    return ENVELOPE_OVERHEAD + pad_to


def outer_plaintext_length(kind: int, pad_to: int, group: GroupParams | None = None) -> int:
    return 1 + crowd_id_width(kind, group) + inner_envelope_length(pad_to)


def report_length(kind: int, pad_to: int, group: GroupParams | None = None) -> int:
    """Serialized report size: a pipeline constant given kind and padding."""
    return 1 + ENVELOPE_OVERHEAD + outer_plaintext_length(kind, pad_to, group)


def write_batch(path: str | Path, records: list[bytes]) -> None:
    """`records` as the batch file at `path`, which is replaced whole: they go
    to a new file beside it, moved over `path` once all are written, so an
    error or a kill midway leaves any old file as it was.  The new file gets
    the mode `open(path, "wb")` gives a new file."""
    record_len = len(records[0]) if records else 0
    if any(len(rec) != record_len for rec in records):
        raise ValueError("batch records must share one length")
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(_BATCH_HEADER.pack(BATCH_MAGIC, record_len, len(records)))
            fh.writelines(records)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_batch(path: str | Path) -> list[bytes]:
    with open(path, "rb") as fh:
        header = fh.read(_BATCH_HEADER.size)
        if len(header) != _BATCH_HEADER.size:
            raise DecryptionError("batch header truncated")
        magic, record_len, count = _BATCH_HEADER.unpack(header)
        if magic != BATCH_MAGIC:
            raise DecryptionError("bad batch magic")
        body = fh.read()
    if count and not record_len:
        raise DecryptionError("batch records of length 0")
    if len(body) != record_len * count:
        raise DecryptionError("batch body does not match its header")
    return [body[i * record_len : (i + 1) * record_len] for i in range(count)]
