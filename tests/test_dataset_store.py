"""Dataset container format and the exactly-once mapped epoch."""

import hashlib
import threading

import pytest

from palm.dataset import (
    MAGIC,
    InMemoryDataset,
    MappedDataset,
    finish_epoch,
    load_in_memory,
    pack_records,
    tamper_record,
    unpack_records,
    write_dataset,
)
from palm.errors import (
    DuplicateAccess,
    FormatError,
    IncompleteEpoch,
    IndexOutOfRange,
)
from palm.msh import msh_of_records

from reference import oracle_encode, oracle_msh


class TestContainerFormat:
    def test_round_trip(self):
        records = (b"", b"one", b"\x00\xff" * 10)
        assert unpack_records(pack_records(records)) == records

    def test_header_layout(self):
        packed = pack_records([b"ab"])
        assert packed[:8] == MAGIC
        assert packed[8:16] == (1).to_bytes(8, "little")
        assert packed[16:20] == (2).to_bytes(4, "little")
        assert packed[20:] == b"ab"

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            unpack_records(b"NOTPALM\x00" + b"\x00" * 8)

    def test_truncated_record(self):
        packed = pack_records([b"abcdef"])
        with pytest.raises(FormatError):
            unpack_records(packed[:-2])

    def test_trailing_bytes(self):
        with pytest.raises(FormatError):
            unpack_records(pack_records([b"a"]) + b"junk")


class TestInMemory:
    def test_load(self, tmp_path, corpus):
        path = tmp_path / "d.palmds"
        write_dataset(path, corpus)
        ds = load_in_memory(path)
        assert ds.records == tuple(corpus)
        assert ds.file_bytes_hash == hashlib.sha3_256(path.read_bytes()).digest()


class TestMappedEpoch:
    def test_full_epoch_matches_oracle(self, dataset_path, corpus):
        with MappedDataset(dataset_path) as ds:
            assert len(ds) == len(corpus)
            for i in range(len(ds)):
                assert ds.sample_record(i) == corpus[i]
            digest = finish_epoch(ds)
        limbs, count = oracle_msh(corpus)
        assert digest.encode() == oracle_encode(limbs, count)

    def test_sampling_order_is_irrelevant(self, dataset_path, corpus, rng):
        order = list(range(len(corpus)))
        rng.shuffle(order)
        with MappedDataset(dataset_path) as ds:
            for i in order:
                ds.sample_record(i)
            digest = finish_epoch(ds)
        assert digest == msh_of_records(corpus)

    def test_duplicate_access_rejected(self, dataset_path):
        with MappedDataset(dataset_path) as ds:
            ds.sample_record(0)
            with pytest.raises(DuplicateAccess):
                ds.sample_record(0)

    def test_index_out_of_range(self, dataset_path, corpus):
        with MappedDataset(dataset_path) as ds:
            with pytest.raises(IndexOutOfRange):
                ds.sample_record(len(corpus))

    def test_incomplete_epoch_lists_missing(self, dataset_path):
        with MappedDataset(dataset_path) as ds:
            for i in range(len(ds)):
                if i not in (2, 5):
                    ds.sample_record(i)
            with pytest.raises(IncompleteEpoch) as exc:
                finish_epoch(ds)
        assert exc.value.missing_indices == [2, 5]

    def test_concurrent_claims_are_exclusive(self, dataset_path):
        with MappedDataset(dataset_path) as ds:
            losses = []
            barrier = threading.Barrier(8)

            def worker():
                barrier.wait()
                try:
                    ds.sample_record(7)
                except DuplicateAccess:
                    losses.append(1)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(losses) == 7  # exactly one thread won the claim

    def test_scan_rejects_truncated_file(self, tmp_path, corpus):
        path = tmp_path / "cut.palmds"
        path.write_bytes(pack_records(corpus)[:-3])
        with pytest.raises(FormatError):
            MappedDataset(path)


class TestTamper:
    def test_rewrites_in_place(self, tmp_path, corpus):
        path = tmp_path / "d.palmds"
        write_dataset(path, corpus)
        tamper_record(path, 1, b"replaced")
        records = unpack_records(path.read_bytes())
        assert records[1] == b"replaced"
        assert records[0] == corpus[0]

    def test_mid_epoch_tamper_is_measured(self, tmp_path, corpus):
        """A record rewritten on disk after the epoch started is measured as
        the bytes actually read, so the digest leaves the clean reference."""
        path = tmp_path / "d.palmds"
        write_dataset(path, corpus)
        clean = msh_of_records(corpus)
        with MappedDataset(path) as ds:
            ds.sample_record(0)
            tamper_record(path, 1, b"Y" * len(corpus[1]))  # same length: offsets hold
            seen = ds.sample_record(1)
            assert seen == b"Y" * len(corpus[1])
            for i in range(2, len(ds)):
                ds.sample_record(i)
            digest = finish_epoch(ds)
        assert digest != clean
        expected = [corpus[0], b"Y" * len(corpus[1]), *corpus[2:]]
        assert digest == msh_of_records(expected)

    def test_tamper_out_of_range(self, tmp_path, corpus):
        path = tmp_path / "d.palmds"
        write_dataset(path, corpus)
        with pytest.raises(IndexOutOfRange):
            tamper_record(path, 99, b"x")


class TestReadsWithPread:
    """Mapped records are read with os.pread on the handle's file."""

    def test_scan_in_small_chunks_finds_every_record(self, tmp_path, corpus):
        from unittest import mock

        from palm import dataset

        path = tmp_path / "d.palmds"
        write_dataset(path, corpus)
        with mock.patch.object(dataset, "SCAN_CHUNK", dataset.HEADER_LEN):
            with MappedDataset(path) as ds:
                got = [ds.sample_record(i) for i in range(len(ds))]
                assert finish_epoch(ds) == msh_of_records(corpus)
            assert got == corpus
            path.write_bytes(pack_records(corpus)[:-3])
            with pytest.raises(FormatError, match="truncated record bytes"):
                MappedDataset(path)

    def test_file_shrunk_mid_epoch_is_a_format_error(self, tmp_path):
        """Run in a child process: reading a record the file no longer holds
        must raise FormatError, where a memory mapping dies of SIGBUS."""
        import os
        import subprocess
        import sys
        import textwrap

        import palm

        path = tmp_path / "big.palmds"
        write_dataset(path, [bytes([65 + i]) * 1000 for i in range(20)])  # several pages
        script = textwrap.dedent(
            f"""
            import os
            from palm.dataset import MappedDataset
            from palm.errors import FormatError
            with MappedDataset({str(path)!r}) as ds:
                ds.sample_record(0)
                os.truncate({str(path)!r}, 100)
                try:
                    ds.sample_record(len(ds) - 1)
                except FormatError as exc:
                    print("FormatError:", exc)
            """
        )
        src = os.path.dirname(os.path.dirname(palm.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
        )
        assert child.returncode == 0, f"child exited with {child.returncode}: {child.stderr}"
        assert child.stdout.startswith("FormatError: record 19 truncated on disk")
