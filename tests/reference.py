"""Pure-Python reference implementation of the multiset hash.

Deliberately avoids numpy (and everything else in the package) so tests
can compare the production limb arithmetic against an independent route:
plain ints reduced mod 2^64.
"""

import hashlib

PREFIX = b"PALM-MSH-v1\x00"
LIMBS = 64
LIMB_BYTES = 8
MOD = 2**64


def oracle_limbs(record: bytes) -> list[int]:
    raw = hashlib.shake_256(PREFIX + record).digest(LIMBS * LIMB_BYTES)
    return [
        int.from_bytes(raw[i * LIMB_BYTES : (i + 1) * LIMB_BYTES], "little")
        for i in range(LIMBS)
    ]


def oracle_msh(records) -> tuple[list[int], int]:
    acc = [0] * LIMBS
    count = 0
    for record in records:
        for i, v in enumerate(oracle_limbs(record)):
            acc[i] = (acc[i] + v) % MOD
        count += 1
    return acc, count


def oracle_encode(limbs: list[int], count: int) -> bytes:
    out = bytearray(b"mu4096\x00")
    out += count.to_bytes(8, "little")
    for limb in limbs:
        out += limb.to_bytes(LIMB_BYTES, "little")
    return bytes(out)


def oracle_msh_params(records, limbs: int, limb_bits: int) -> list[int]:
    """The same construction for any legal parameter set: the XOF output read
    as `limbs` little-endian limbs of `limb_bits` bits, summed mod 2^limb_bits."""
    width = limb_bits // 8
    mod = 2**limb_bits
    acc = [0] * limbs
    for record in records:
        raw = hashlib.shake_256(PREFIX + record).digest(limbs * width)
        for i in range(limbs):
            acc[i] = (acc[i] + int.from_bytes(raw[i * width : (i + 1) * width], "little")) % mod
    return acc
