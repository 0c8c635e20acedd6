"""Trusted authority's published state: keys, accepted platforms, references.

One JSON document holds everything a verifier consults: registered quoting
and GPU public keys, the accepted trust-domain and module measurements,
expected digest values per (operation, label), and plain/multiset binding
pairs. Digests are canonical hex (lowercase, no separators) so the file
diffs and audits cleanly; loading and saving round-trip losslessly, and
any other spelling of a digest, a key no field is read from, or an object
where an array belongs is a SchemaError. A save replaces the file whole.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
from dataclasses import dataclass, field
from typing import Optional

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from .encoding import check_keys, hex_bytes
from .errors import SchemaError

STORE_VERSION = 1


def _json(kind: type, value):
    """`value` when it is a JSON object (kind dict) or array (kind list);
    any other value is a TypeError."""
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "an array"
        raise TypeError(f"expected {what}, not {type(value).__name__}")
    return value


@dataclass
class ReferenceStore:
    qe_pubkeys: dict[str, bytes] = field(default_factory=dict)
    gpu_pubkeys: dict[str, bytes] = field(default_factory=dict)
    accepted_h_td: set[bytes] = field(default_factory=set)
    accepted_h_module: set[bytes] = field(default_factory=set)
    # operation name → measurement label → accepted digest encodings
    property_refs: dict[str, dict[str, set[bytes]]] = field(default_factory=dict)
    # (plain file digest, multiset digest encoding) pairs attested together
    bindings: list[tuple[bytes, bytes]] = field(default_factory=list)

    # -- registration -----------------------------------------------------

    def add_qe_key(self, key_id: str, public_bytes: bytes) -> None:
        self.qe_pubkeys[key_id] = public_bytes

    def add_gpu_key(self, key_id: str, public_bytes: bytes) -> None:
        self.gpu_pubkeys[key_id] = public_bytes

    def accept_td(self, h_td: bytes) -> None:
        self.accepted_h_td.add(h_td)

    def accept_module(self, h_module: bytes) -> None:
        self.accepted_h_module.add(h_module)

    def add_property_ref(self, op_name: str, label: str, digest: bytes) -> None:
        self.property_refs.setdefault(op_name, {}).setdefault(label, set()).add(digest)

    def add_binding(self, plain: bytes, msh: bytes) -> None:
        pair = (plain, msh)
        if pair not in self.bindings:
            self.bindings.append(pair)

    # -- lookup -----------------------------------------------------------

    def qe_public_key(self, key_id: str) -> Optional[Ed25519PublicKey]:
        raw = self.qe_pubkeys.get(key_id)
        return None if raw is None else Ed25519PublicKey.from_public_bytes(raw)

    def gpu_public_keys(self) -> list[Ed25519PublicKey]:
        return [Ed25519PublicKey.from_public_bytes(raw) for raw in self.gpu_pubkeys.values()]

    def refs_for(self, op_name: str, label: str) -> Optional[set[bytes]]:
        """Accepted digests for (op, label), or None when nothing is registered."""
        return self.property_refs.get(op_name, {}).get(label)

    def plain_for_msh(self, msh: bytes) -> Optional[bytes]:
        """Translate a multiset digest to its bound plain digest, if attested."""
        for plain, bound in self.bindings:
            if bound == msh:
                return plain
        return None

    # -- persistence ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": STORE_VERSION,
            "qe_pubkeys": {k: v.hex() for k, v in sorted(self.qe_pubkeys.items())},
            "gpu_pubkeys": {k: v.hex() for k, v in sorted(self.gpu_pubkeys.items())},
            "accepted_h_td": sorted(h.hex() for h in self.accepted_h_td),
            "accepted_h_module": sorted(h.hex() for h in self.accepted_h_module),
            "property_refs": {
                op: {label: sorted(d.hex() for d in digests) for label, digests in sorted(labels.items())}
                for op, labels in sorted(self.property_refs.items())
            },
            "bindings": [{"plain": p.hex(), "msh": m.hex()} for p, m in self.bindings],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ReferenceStore":
        try:
            check_keys(doc, tuple(cls().to_json()), "reference store")
            if doc["version"] != STORE_VERSION:
                raise SchemaError(f"unsupported store version {doc['version']!r}")
            bindings = _json(list, doc["bindings"])
            for binding in bindings:
                check_keys(binding, ("plain", "msh"), "binding")
            return cls(
                qe_pubkeys={k: hex_bytes(v) for k, v in _json(dict, doc["qe_pubkeys"]).items()},
                gpu_pubkeys={k: hex_bytes(v) for k, v in _json(dict, doc["gpu_pubkeys"]).items()},
                accepted_h_td={hex_bytes(h) for h in _json(list, doc["accepted_h_td"])},
                accepted_h_module={hex_bytes(h) for h in _json(list, doc["accepted_h_module"])},
                property_refs={
                    op: {label: {hex_bytes(d) for d in _json(list, digests)}
                         for label, digests in _json(dict, labels).items()}
                    for op, labels in _json(dict, doc["property_refs"]).items()
                },
                bindings=[(hex_bytes(b["plain"]), hex_bytes(b["msh"])) for b in bindings],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad reference store document: {exc}") from exc

    def save(self, path: str | os.PathLike) -> None:
        """Replace the store whole or not at all: the document is written
        to a new file beside it, flushed to disk, and renamed over it. The
        new file takes the old store's permission bits before it is written."""
        tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
        f = open(tmp, "x", encoding="utf-8")
        try:
            with f:
                with contextlib.suppress(FileNotFoundError):
                    os.fchmod(f.fileno(), stat.S_IMODE(os.stat(path).st_mode))
                f.write(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ReferenceStore":
        with open(path, "r", encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
                raise SchemaError(f"reference store {path} is not JSON: {exc}") from exc
        return cls.from_json(doc)
