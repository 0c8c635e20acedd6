"""Multiset hash unit and property tests, checked against a pure-int oracle."""

import os
import threading
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palm import msh
from palm.errors import ParamsMismatch
from palm.msh import (
    DIGEST_BYTES,
    DTYPE,
    FLUSH_RECORDS,
    HASH_DOMAIN,
    PARAM_ID,
    L,
    MshAccumulator,
    MshDigest,
    hash_record,
    msh_of_records,
)
from palm.toyops import preproc_record

from reference import (
    LIMB_BYTES,
    LIMBS,
    MOD,
    PREFIX,
    oracle_encode,
    oracle_limbs,
    oracle_msh,
    oracle_preproc,
)

records_strategy = st.lists(st.binary(min_size=0, max_size=64), max_size=40)


def _pooled(records, pool):
    """The digest of `records` hashed by `pool`'s workers."""
    return msh_of_records(records, into=MshAccumulator(pool=pool))


class TestParams:
    def test_mu4096_shape(self):
        """The one parameter set: m = 4096 bits as 64 limbs of 64 bits, the
        shape the oracle computes independently."""
        assert PARAM_ID == "mu4096"
        assert (L, DTYPE, DIGEST_BYTES) == (64, np.dtype("<u8"), 512)
        assert (L, DTYPE.itemsize, 2 ** (8 * DTYPE.itemsize)) == (LIMBS, LIMB_BYTES, MOD)
        assert HASH_DOMAIN == PREFIX


class TestHashRecord:
    def test_matches_oracle(self):
        assert list(hash_record(b"hello")) == oracle_limbs(b"hello")
        assert list(hash_record(b"")) == oracle_limbs(b"")

    def test_domain_prefix_is_absorbed(self):
        # A record equal to the prefix itself must not hash like the empty
        # record under a prefix-free implementation.
        assert hash_record(HASH_DOMAIN) != hash_record(b"")

    def test_limb_range(self):
        assert all(0 <= v < 2**64 for v in hash_record(b"xyz"))


class TestAccumulator:
    def test_insert_updates_count(self):
        acc = MshAccumulator()
        acc.insert(b"a").insert(b"b")
        assert acc.count == 2

    def test_empty_digest_is_zero_vector(self):
        digest = MshAccumulator().finalize()
        assert digest.limbs == (0,) * 64
        assert digest.count == 0

    def test_multiplicity_matters(self):
        once = msh_of_records([b"a"])
        twice = msh_of_records([b"a", b"a"])
        assert once != twice
        assert list(twice.limbs) == [(2 * v) % MOD for v in oracle_limbs(b"a")]

    def test_finalize_is_a_snapshot(self):
        acc = MshAccumulator().insert(b"a")
        first = acc.finalize()
        acc.insert(b"b")
        assert acc.finalize() != first
        assert first == msh_of_records([b"a"])

    def test_encoding_layout(self):
        digest = msh_of_records([b"a", b"b", b"c"])
        encoded = digest.encode()
        limbs, count = oracle_msh([b"a", b"b", b"c"])
        assert encoded == oracle_encode(limbs, count)
        assert encoded.startswith(b"mu4096\x00")
        assert encoded[7:15] == (3).to_bytes(8, "little")
        assert len(encoded) == 7 + 8 + 64 * 8
        assert digest.hex() == encoded.hex()
        assert MshAccumulator().finalize().encode() == oracle_encode([0] * LIMBS, 0)


class TestProperties:
    @given(records_strategy)
    @settings(max_examples=60)
    def test_matches_pure_python_oracle(self, records):
        digest = msh_of_records(records)
        limbs, count = oracle_msh(records)
        assert list(digest.limbs) == limbs
        assert digest.count == count

    @given(records_strategy, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_permutation_invariance(self, records, rnd):
        shuffled = list(records)
        rnd.shuffle(shuffled)
        assert msh_of_records(shuffled) == msh_of_records(records)

    @given(records_strategy, st.integers(min_value=0, max_value=39))
    @settings(max_examples=60)
    def test_merge_homomorphism(self, records, split_at):
        split_at = min(split_at, len(records))
        left = MshAccumulator()
        for r in records[:split_at]:
            left.insert(r)
        right = MshAccumulator()
        for r in records[split_at:]:
            right.insert(r)
        assert left.merge(right).finalize() == msh_of_records(records)

    @given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=20))
    @settings(max_examples=60)
    def test_extra_record_changes_digest(self, records):
        assert msh_of_records(records) != msh_of_records(records + [records[0]])


class TestBatchedReduction:
    """Inserts hash at call time and add up in batches of FLUSH_RECORDS; the
    batched sum must equal the record-by-record one."""

    @given(
        st.lists(st.binary(max_size=24), min_size=1, max_size=8),
        st.integers(min_value=FLUSH_RECORDS - 2, max_value=2 * FLUSH_RECORDS + 2),
    )
    @settings(max_examples=12, deadline=None)
    def test_matches_oracle_across_flushes(self, base, n):
        records = [base[i % len(base)] for i in range(n)]
        digest = msh_of_records(records)
        limbs, count = oracle_msh(records)
        assert list(digest.limbs) == limbs
        assert digest.count == count == n

    def test_wraps_like_the_oracle(self):
        # Past two flushes, so every limb sum wraps many times over.
        records = [b"r%d" % (i % 700) for i in range(2 * FLUSH_RECORDS + 5)]
        acc = MshAccumulator().insert_many(records)
        assert list(acc.limbs) == oracle_msh(records)[0]
        digest = acc.finalize()
        assert digest.count == len(records)
        assert len(digest.encode()) == len(PARAM_ID) + 1 + 8 + DIGEST_BYTES

    def test_reads_mid_batch_see_every_insert(self):
        records = [b"x%d" % i for i in range(FLUSH_RECORDS + 10)]
        acc = MshAccumulator()
        for i, record in enumerate(records, start=1):
            acc.insert(record)
            if i in (1, FLUSH_RECORDS - 1, FLUSH_RECORDS, FLUSH_RECORDS + 10):
                want = oracle_msh(records[:i])[0]
                assert list(acc.limbs) == want
                assert list(acc.finalize().limbs) == want
                assert acc.finalize().count == i

    @given(
        st.lists(st.binary(max_size=16), max_size=40),
        st.lists(st.binary(max_size=16), max_size=12),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=40),
                      st.sampled_from(["finalize", "limbs", "merge"])),
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_interleaved_reads_and_merges(self, records, extra, reads):
        """With a batch of three, reads and merges land mid-batch, on a flush
        boundary and right after one; each must see exactly what went in."""
        with mock.patch.object(msh, "FLUSH_RECORDS", 3):
            acc = MshAccumulator()
            folded: list[bytes] = []
            at = sorted(reads)
            for i, record in enumerate([*records, None]):
                while at and at[0][0] <= i:
                    _, kind = at.pop(0)
                    if kind == "merge":
                        other = MshAccumulator().insert_many(extra)
                        acc = acc.merge(other)
                        assert other.finalize() == msh_of_records(extra)
                        folded += extra
                    want, count = oracle_msh(folded)
                    got = acc.limbs if kind == "limbs" else acc.finalize().limbs
                    assert list(got) == want
                    assert acc.count == count
                if record is not None:
                    acc.insert(record)
                    folded.append(record)
            assert acc.finalize() == msh_of_records(folded)

    def test_insert_hashes_the_bytes_given_at_call_time(self):
        record = bytearray(b"mutable record")
        acc = MshAccumulator().insert(record)
        record[:] = b"changed later!"
        assert acc.finalize() == msh_of_records([b"mutable record"])


class TestPooledAccumulator:
    """An accumulator built with a pool ships its records to worker processes;
    the digest must equal the in-process one and the oracle's, bit for bit."""

    @given(
        st.lists(st.binary(max_size=40), max_size=40),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_pooled_equals_in_process_equals_oracle(self, msh_pool, records, batch):
        """Batches of one to five records put many batch boundaries, and the
        in-flight cap, inside one digest."""
        with mock.patch.object(msh, "FLUSH_RECORDS", batch):
            pooled = _pooled(records, msh_pool)
        assert pooled == msh_of_records(records)
        assert list(pooled.limbs) == oracle_msh(records)[0]
        assert pooled.count == len(records)

    @pytest.mark.parametrize("n", [0, FLUSH_RECORDS - 1, FLUSH_RECORDS, 2 * FLUSH_RECORDS + 5])
    def test_real_batch_boundaries(self, msh_pool, n):
        records = [b"r%d" % (i % 700) for i in range(n)]
        pooled = _pooled(records, msh_pool)
        assert pooled == msh_of_records(records)
        assert list(pooled.limbs) == oracle_msh(records)[0]

    def test_reads_and_merges_mid_stream(self, msh_pool):
        records = [b"x%d" % i for i in range(20)]
        with mock.patch.object(msh, "FLUSH_RECORDS", 3):
            acc = MshAccumulator(pool=msh_pool)
            for i, record in enumerate(records, start=1):
                acc.insert(record)
                if i in (1, 3, 7, 20):
                    assert list(acc.limbs) == oracle_msh(records[:i])[0]
                    assert acc.finalize().count == i
            merged = acc.merge(MshAccumulator().insert_many([b"extra"]))
        assert merged.finalize() == msh_of_records([*records, b"extra"])

    def test_threads_share_one_pool(self, msh_pool):
        """More threads than workers, tiny batches and a short switch interval
        keep every thread contending for the in-flight cap and the replies;
        a reply settled on the wrong batch would change some digest."""
        import sys
        import threading

        streams = [[b"t%d-r%d" % (t, i) for i in range(60 + 7 * t)] for t in range(4)]
        digests: dict[int, MshDigest] = {}

        def digest(t: int) -> None:
            digests[t] = _pooled(streams[t], msh_pool)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(msh, "FLUSH_RECORDS", 2):
                threads = [threading.Thread(target=digest, args=(t,)) for t in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert digests == {t: msh_of_records(stream) for t, stream in enumerate(streams)}

    def test_insert_snapshots_the_bytes_given(self, msh_pool):
        record = bytearray(b"mutable record")
        acc = MshAccumulator(pool=msh_pool).insert(record)
        record[:] = b"changed later!"
        assert acc.finalize() == msh_of_records([b"mutable record"])


def _wait_gone(pid: int, timeout: float = 10.0) -> None:
    """Wait until a killed process has released its files: it is reaped, or a
    zombie with no other thread left. A worker runs more than one thread
    (numpy starts some), and its main thread can read as a zombie while
    another thread, which still holds the files, is exiting."""
    import os
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as f:
                zombie = f.read().rsplit(")", 1)[1].split()[0] == "Z"
            if zombie and len(os.listdir(f"/proc/{pid}/task")) == 1:
                return
        except (FileNotFoundError, ProcessLookupError):
            return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} still running {timeout}s after SIGKILL")


class _Exiting:
    """A worker process that was killed and has not exited yet: a write to
    its stdin still succeeds, its stdout reads end of file, and poll()
    reports it running."""

    pid = -1

    def __init__(self):
        read, write = os.pipe()
        self.stdin, self._stdin_reader = open(write, "wb", 0), open(read, "rb", 0)
        read, write = os.pipe()
        os.close(write)
        self.stdout = open(read, "rb", 0)

    def poll(self):
        return None

    def kill(self):
        pass

    def wait(self, timeout=None):
        self._stdin_reader.close()
        return -9


def _exiting_worker(name: str) -> msh._Worker:
    worker = object.__new__(msh._Worker)
    worker.name, worker.process = name, _Exiting()
    worker.unanswered, worker.recv_lock = deque(), threading.Lock()
    return worker


class TestPoolFaults:
    """A worker that dies or answers out of protocol fails its batches with a
    PalmError at once, and the pool serves the next digest with new workers.
    Each test runs its own pool, so the session's stays whole."""

    def test_killed_worker_fails_its_batches(self):
        import os
        import signal

        from palm.errors import MshWorkerError

        with msh.MshPool() as pool:
            assert _pooled([b"warm"], pool) == msh_of_records([b"warm"])
            pids = pool.pids()
            acc = MshAccumulator(pool=pool)
            with mock.patch.object(msh, "FLUSH_RECORDS", 2):
                for pid in pids:  # stopped workers cannot answer before the kill
                    os.kill(pid, signal.SIGSTOP)
                acc.insert_many([b"a", b"b", b"c", b"d"])
                for pid in pids:
                    os.kill(pid, signal.SIGKILL)
                with pytest.raises(MshWorkerError, match="exited with code -9"):
                    acc.finalize()
            for pid in pids:
                _wait_gone(pid)
            assert _pooled([b"a", b"b"], pool) == msh_of_records([b"a", b"b"])
            assert not set(pool.pids()) & set(pids)

    def test_workers_killed_before_they_are_reaped_are_replaced(self):
        """A killed worker is a zombie until the pool, its parent, reaps it.
        The pool must not send the next digest to it in that window: the
        workers are killed while they hold batches nobody reads, so nothing
        reaps them before the next submit."""
        import os
        import signal

        from palm.errors import MshWorkerError

        with msh.MshPool() as pool:
            assert _pooled([b"warm"], pool) == msh_of_records([b"warm"])
            pids = pool.pids()
            acc = MshAccumulator(pool=pool)
            with mock.patch.object(msh, "FLUSH_RECORDS", 2):
                for pid in pids:  # each worker holds one unanswered batch
                    os.kill(pid, signal.SIGSTOP)
                acc.insert_many([b"a", b"b", b"c", b"d"])
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            for pid in pids:
                _wait_gone(pid)
                with open(f"/proc/{pid}/stat") as f:
                    assert f.read().rsplit(")", 1)[1].split()[0] == "Z"
            assert _pooled([b"a", b"b"], pool) == msh_of_records([b"a", b"b"])
            assert not set(pool.pids()) & set(pids)
            with pytest.raises(MshWorkerError, match="exited with code -9"):
                acc.finalize()

    def test_lost_batch_settles_the_others_before_it_fails(self):
        """A killed worker whose threads are still exiting takes writes, and
        poll() reports it running. An accumulator that meets a lost batch
        reads its other batches before it raises, so a worker that died
        with them is retired then, not handed the next digest's batch while
        it exits. Both workers here are such exiting workers."""
        from palm.errors import MshWorkerError

        with msh.MshPool() as pool:
            pool.size = 2
            pool._workers = [_exiting_worker("exiting-0"), _exiting_worker("exiting-1")]
            acc = MshAccumulator(pool=pool)
            with mock.patch.object(msh, "FLUSH_RECORDS", 2):
                acc.insert_many([b"a", b"b", b"c", b"d"])  # one batch to each
                with pytest.raises(MshWorkerError, match="^exiting-0 exited with code -9"):
                    acc.finalize()
                records = [b"e", b"f", b"g", b"h"]  # a batch to each worker
                assert _pooled(records, pool) == msh_of_records(records)

    def test_out_of_protocol_reply_fails_the_batch(self):
        from palm.errors import MshWorkerError

        with msh.MshPool() as pool:
            batch = pool.submit(*_batch([b"x"]), False)  # answers 512 bytes
            batch.size = 8  # but 8 are expected
            with pytest.raises(MshWorkerError, match="answered 512 bytes, not 8"):
                pool.result(batch)
            assert _pooled([b"y"], pool) == msh_of_records([b"y"])

    def test_stopped_worker_does_not_hold_up_the_others(self):
        """Batches go to the worker holding the fewest, and a sender that
        finds every worker at the cap waits for any of them, so a worker
        that cannot run leaves the batches to the others."""
        import os
        import signal
        import threading

        with msh.MshPool() as pool:
            if pool.size < 2:
                pytest.skip("needs two workers")
            assert _pooled([b"warm"], pool) == msh_of_records([b"warm"])
            stopped = pool.pids()[0]
            records = [b"r%d" % i for i in range(40)]  # 20 batches of two
            acc = MshAccumulator(pool=pool)
            thread = threading.Thread(target=acc.insert_many, args=(records,))
            os.kill(stopped, signal.SIGSTOP)
            try:
                with mock.patch.object(msh, "FLUSH_RECORDS", 2):
                    thread.start()
                    thread.join(30)
                    shipped_while_stopped = not thread.is_alive()
            finally:
                os.kill(stopped, signal.SIGCONT)
                thread.join(30)
            assert shipped_while_stopped
            assert acc.finalize() == msh_of_records(records)

    def test_close_stops_every_worker(self):
        import os

        pool = msh.MshPool()
        _pooled([b"z"], pool)
        pids = pool.pids()
        assert len(pids) == pool.size
        pool.close()
        assert pool.pids() == []
        for pid in pids:  # stopped and reaped
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_script_without_a_main_guard_runs_once(self, tmp_path):
        """A worker is a fresh interpreter that imports palm.msh only, so a
        script that hashes with a pool at top level, with no
        `if __name__ == "__main__":` guard, runs once. The script finds palm
        through sys.path alone, as tools and benchmark scripts do."""
        import os
        import subprocess
        import sys
        import textwrap

        log = tmp_path / "runs.log"
        script = tmp_path / "unguarded.py"
        script.write_text(textwrap.dedent(f"""\
            import sys
            sys.path.insert(0, {os.path.dirname(os.path.dirname(msh.__file__))!r})
            from palm.msh import MshAccumulator, MshPool, msh_of_records
            with open({str(log)!r}, "a") as f:
                f.write("ran\\n")
            records = [b"r%d" % i for i in range(600)]
            with MshPool() as pool:
                print(msh_of_records(records, into=MshAccumulator(pool)) == msh_of_records(records))
            """))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.split() == ["True"]
        assert log.read_text().splitlines() == ["ran"]


# --------------------------------------------------------------------------
# The companion: MSH over preproc_record of the records its source takes,
# hashed by the source's workers in the same fused batches when pooled.

def _batch(records):
    """One batch: the records joined into a buffer, and their spans in it."""
    lengths = np.array([len(r) for r in records], np.int64)
    return b"".join(records), np.column_stack((np.cumsum(lengths) - lengths, lengths))


def _fused(records, pool):
    """(MSH(D), MSH(Dpre)) the way mapped Preprocessing takes them: each
    record into the source, then into the source's companion."""
    source = MshAccumulator(pool=pool)
    companion = source.companion()
    for record in records:
        source.insert(record)
        companion.insert(record)
    d_pre = companion.finalize()
    return source.finalize(), d_pre


# Empty records, records whose preprocessed form is empty, and one past the cap.
EDGE_RECORDS = st.sampled_from([b"", b" ", b" \t\n\r\x0b\x0c", b"  Mixed\tCASE  ", b"Q" * 300])


class TestFusedCompanion:
    @given(
        st.sampled_from([0, 1, FLUSH_RECORDS - 1, FLUSH_RECORDS, FLUSH_RECORDS + 1,
                         2 * FLUSH_RECORDS + 1]),
        st.lists(st.binary(max_size=40) | EDGE_RECORDS, min_size=1, max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_pooled_equals_in_process_equals_oracle(self, msh_pool, n, palette):
        records = [palette[i % len(palette)] for i in range(n)]
        pooled = _fused(records, msh_pool)
        assert pooled == _fused(records, None)
        d, d_pre = pooled
        assert list(d.limbs) == oracle_msh(records)[0]
        assert list(d_pre.limbs) == oracle_msh([oracle_preproc(r) for r in records])[0]
        assert d.count == d_pre.count == n

    @pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pooled"])
    def test_covers_only_records_taken_after_it(self, msh_pool, pooled):
        source = MshAccumulator(pool=msh_pool if pooled else None).insert(b"Before")
        companion = source.companion()
        source.insert(b"After  It")
        companion.insert(b"After  It")
        assert companion.finalize() == msh_of_records([b"after it"])
        assert source.finalize() == msh_of_records([b"Before", b"After  It"])

    @pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pooled"])
    def test_count_mismatch_fails_closed(self, msh_pool, pooled):
        source = MshAccumulator(pool=msh_pool if pooled else None)
        companion = source.companion()
        source.insert_many([b"a", b"b"])
        companion.insert(b"a")
        with pytest.raises(ParamsMismatch, match="1 records preprocessed of the 2 taken"):
            companion.finalize()
        companion.insert_many([b"b", b"c"])
        with pytest.raises(ParamsMismatch, match="3 records preprocessed of the 2 taken"):
            companion.limbs

    def test_one_companion_per_accumulator(self):
        source = MshAccumulator()
        source.companion()
        with pytest.raises(ValueError, match="at most one companion"):
            source.companion()

    def test_fused_batch_is_answered_with_two_sums(self, msh_pool):
        """A worker answers with _hash_spans, the function an accumulator
        without a pool calls: the two replies are the same bytes."""
        records = [b"One  Two", b"", b"THREE"]
        reply = msh_pool.result(msh_pool.submit(*_batch(records), True))
        assert len(reply) == 2 * DIGEST_BYTES
        limbs = [int.from_bytes(reply[i:i + 8], "little") for i in range(0, len(reply), 8)]
        assert limbs[:64] == oracle_msh(records)[0]
        assert limbs[64:] == oracle_msh(map(preproc_record, records))[0]
        buffer, spans = _batch(records + [b" \t\n", b"Q" * 300])
        for fused in (False, True):
            reply = msh_pool.result(msh_pool.submit(buffer, spans, fused))
            assert len(reply) == DIGEST_BYTES * (1 + fused)
            assert reply == msh._hash_spans(buffer, spans, fused), fused


class _Unflagged:
    """The batch header as the parent packs it, with the fused flag cleared:
    the worker, which reads the real header, answers L limbs only."""

    def __init__(self, real):
        self.real = real
        self.size = real.size

    def pack(self, count, fused):
        return self.real.pack(count, 0)


class TestFusedPoolFaults:
    """Each test runs its own pool, so the session's stays whole."""

    def test_killed_worker_fails_the_companion_without_hanging(self):
        import os
        import signal
        import threading

        from palm.errors import MshWorkerError

        with msh.MshPool() as pool:
            assert _fused([b"warm"], pool) == _fused([b"warm"], None)
            pids = pool.pids()
            outcome = []

            def run():
                source = MshAccumulator(pool=pool)
                companion = source.companion()
                for record in [b"a", b"b", b"c", b"d"]:
                    source.insert(record)
                    companion.insert(record)
                for pid in pids:
                    os.kill(pid, signal.SIGKILL)
                try:
                    companion.finalize()
                except MshWorkerError as exc:
                    outcome.append(str(exc))

            with mock.patch.object(msh, "FLUSH_RECORDS", 2):
                for pid in pids:  # stopped workers cannot answer before the kill
                    os.kill(pid, signal.SIGSTOP)
                thread = threading.Thread(target=run)
                thread.start()
                thread.join(60)
            assert not thread.is_alive()
            assert len(outcome) == 1 and "exited with code -9" in outcome[0]
            for pid in pids:
                _wait_gone(pid)
            assert _fused([b"a", b"b"], pool) == _fused([b"a", b"b"], None)

    def test_l_limbs_for_a_fused_batch_fail(self):
        from palm.errors import MshWorkerError

        n = DIGEST_BYTES
        with msh.MshPool() as pool:
            assert _fused([b"warm"], pool) == _fused([b"warm"], None)
            with mock.patch.object(msh, "_BATCH_HEAD", _Unflagged(msh._BATCH_HEAD)):
                source = MshAccumulator(pool=pool)
                companion = source.companion()
                source.insert(b"x")
                companion.insert(b"x")
                with pytest.raises(MshWorkerError, match=f"answered {n} bytes, not {2 * n}"):
                    companion.finalize()
            assert _fused([b"y"], pool) == _fused([b"y"], None)
