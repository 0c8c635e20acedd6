#!/usr/bin/env python3
"""Datasets on untrusted storage, and why measurement happens at sample time.

An in-memory dataset is loaded once and hashed once. A memory-mapped
dataset stays on storage an attacker may control, so each record is
hashed at the moment it is sampled and the epoch is forced to cover
every record exactly once. Storage that mutates mid-epoch changes the
resulting digest instead of going unnoticed.
"""

import tempfile

from palm import (
    DuplicateAccess,
    IncompleteEpoch,
    MappedDataset,
    finish_epoch,
    load_in_memory,
    write_dataset,
)
from palm.dataset import tamper_record

records = [f"example {i}".encode() for i in range(8)]

with tempfile.NamedTemporaryFile(suffix=".palmds") as f:
    write_dataset(f.name, records)

    # Trusted-side copy: one plain hash over the file bytes.
    inmem = load_in_memory(f.name)
    print(f"in-memory: {len(inmem)} records, plain hash {inmem.file_bytes_hash.hex()[:24]}...")

    # Mapped: sample every record exactly once; the handle folds each into
    # its epoch's accumulator as it is read.
    with MappedDataset(f.name) as ds:
        for i in range(len(ds)):
            ds.sample_record(i)
        clean = finish_epoch(ds)
    print(f"mapped epoch digest: {clean.hex()[:24]}...")

    # The exactly-once discipline is enforced, not assumed.
    with MappedDataset(f.name) as ds:
        ds.sample_record(0)
        try:
            ds.sample_record(0)
        except DuplicateAccess as exc:
            print(f"double sample refused: {exc}")
        try:
            finish_epoch(ds)
        except IncompleteEpoch as exc:
            print(f"short epoch refused: {exc}")

    # Mid-epoch tampering: rewrite record 5 on disk after the epoch has
    # started. The sample-time hash folds in what storage actually holds,
    # so the final digest no longer matches the clean one.
    with MappedDataset(f.name) as ds:
        for i in range(4):
            ds.sample_record(i)
        tamper_record(f.name, 5, b"evil data")
        for i in range(4, len(ds)):
            ds.sample_record(i)
        dirty = finish_epoch(ds)
    print(f"mid-epoch tamper shifted digest: {dirty != clean}")
