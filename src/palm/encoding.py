"""Little-endian wire helpers used by every canonical byte encoding in palm.

All variable-length fields are prefixed with a u32 little-endian length;
counts are u32 and 64-bit quantities are u64, both little-endian. Keeping
the rules in one place means every digest-covered encoding agrees on them.
"""

import hashlib
import struct

from .errors import FormatError


def sha3_256(data: bytes) -> bytes:
    """The plain-hash algorithm used everywhere a single digest is taken."""
    return hashlib.sha3_256(data).digest()


def hex_bytes(text: str) -> bytes:
    """The bytes that canonical hex text (lowercase, no separators) encodes;
    any other text is a ValueError, and a value that is not text a TypeError."""
    data = bytes.fromhex(text)
    if data.hex() != text:
        raise ValueError(f"hex text {text[:16]!r} is not canonical")
    return data


def check_keys(doc, keys: tuple[str, ...], what: str) -> None:
    """Check that doc is an object whose keys are all in `keys`: a document
    holds nothing it is not read for, so each value has one encoding. Any
    other value is a TypeError, and a key not in `keys` a ValueError."""
    if not isinstance(doc, dict):
        raise TypeError(f"{what} must be an object, not {type(doc).__name__}")
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise ValueError(f"{what} has keys it is not read for: {unknown}")


def u32(value: int) -> bytes:
    return struct.pack("<I", value)


def u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def lp(data: bytes) -> bytes:
    """Length-prefix a byte string (u32 LE length, then the bytes)."""
    return struct.pack("<I", len(data)) + data


class Reader:
    """Cursor over a byte string; raises FormatError on truncation."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"truncated: wanted {n} bytes at offset {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def lp(self) -> bytes:
        return self.take(self.u32())

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{len(self.data) - self.pos} trailing byte(s)")
