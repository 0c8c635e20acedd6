"""Measurement-set assembly: label schemas, mode resolution, determinism."""

import hashlib
from unittest import mock

import pytest

from palm import measurers
from palm import msh
from palm.dataset import (
    MappedDataset,
    load_in_memory,
    pack_records,
    tamper_record,
    write_dataset,
)
from palm.encoding import sha3_256
from palm.errors import DuplicateAccess, FormatError, IncompleteEpoch, UnknownOptimization
from palm.errors import PalmError
from palm.measurers import (
    GpuToken,
    MeasurementSet,
    OperationId,
    measure_attribute_distribution,
    measure_binding,
    measure_evaluation,
    measure_inference,
    measure_optimization,
    measure_preprocessing,
    measure_session_inference,
    measure_training,
)
from palm.msh import msh_of_records
from palm.toyops import (
    TrainConfig,
    attribute_distribution,
    evaluate,
    preproc,
    serialize_distribution,
    serialize_history,
)

from reference import oracle_encode, oracle_msh


def labels(group):
    return [e.label for e in group]


def fake_gpu_token():
    return GpuToken(b"\x11" * 32, b"\x22" * 32, b"\x33" * 64)


class TestPreprocessing:
    def test_inmem_hashes_file_bytes(self, dataset_path, corpus):
        m = measure_preprocessing(load_in_memory(dataset_path))
        assert labels(m.mset.h_i) == ["h(D)"]
        assert labels(m.mset.h_o) == ["h(Dpre)"]
        with open(dataset_path, "rb") as f:
            assert m.mset.h_i[0].data == hashlib.sha3_256(f.read()).digest()
        assert m.mset.h_o[0].data == sha3_256(pack_records(preproc(corpus)))
        assert m.outputs["h(Dpre)"] == pack_records(preproc(corpus))

    def test_mapped_uses_multiset(self, dataset_path, corpus):
        with MappedDataset(dataset_path) as ds:
            m = measure_preprocessing(ds)
        assert labels(m.mset.h_i) == ["MSH(D)"]
        assert labels(m.mset.h_o) == ["MSH(Dpre)"]
        limbs, count = oracle_msh(corpus)
        assert m.mset.h_i[0].data == oracle_encode(limbs, count)
        assert m.mset.h_o[0].data == msh_of_records(preproc(corpus)).encode()

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.palmds"
        write_dataset(path, [])
        m = measure_preprocessing(load_in_memory(path))
        assert m.result == ()
        assert len(m.mset.h_i) == 1 and len(m.mset.h_o) == 1

    def test_gpu_token_appended_last(self, dataset_path):
        m = measure_preprocessing(load_in_memory(dataset_path), gpu=fake_gpu_token())
        assert labels(m.mset.h_i) == ["h(D)", "GPU_att"]
        assert m.mset.h_i[-1].data == fake_gpu_token().encode()


class TestAttributeDistribution:
    def test_histogram_measured(self, tmp_path):
        path = tmp_path / "d.palmds"
        write_dataset(path, [b"abc", b"abcde", b"xyz"])
        m = measure_attribute_distribution(load_in_memory(path))
        assert m.result == {3: 2, 5: 1}
        assert m.outputs["h(Adist)"] == b"{3:2,5:1}"
        assert m.mset.h_o[0].data == sha3_256(b"{3:2,5:1}")

    def test_mode_changes_input_not_output(self, dataset_path):
        inmem = measure_attribute_distribution(load_in_memory(dataset_path))
        with MappedDataset(dataset_path) as ds:
            mapped = measure_attribute_distribution(ds)
        assert inmem.mset.h_o == mapped.mset.h_o
        assert labels(inmem.mset.h_i) == ["h(D)"]
        assert labels(mapped.mset.h_i) == ["MSH(D)"]


class TestBinding:
    def test_ties_both_digests(self, dataset_path, corpus):
        m = measure_binding(dataset_path)
        with open(dataset_path, "rb") as f:
            plain = hashlib.sha3_256(f.read()).digest()
        limbs, count = oracle_msh(corpus)
        msh = oracle_encode(limbs, count)
        assert m.outputs == {"h(D)": plain, "MSH(D)": msh}
        assert m.mset.h_i == ()
        assert labels(m.mset.h_o) == ["h(h(D)||MSH(D))"]
        assert m.mset.h_o[0].data == sha3_256(plain + msh)

    @pytest.mark.parametrize(
        "cut, message",
        [
            (lambda b: b"NOTPALM\x00" + b[8:], "bad magic"),
            (lambda b: b[:10], "bad magic"),
            (lambda b: b[:17], "truncated record length"),
            (lambda b: b[:-2], "truncated record bytes"),
            (lambda b: b + b"junk", "4 trailing bytes after last record"),
        ],
    )
    def test_layout_faults_match_the_mapped_scan(self, tmp_path, corpus, cut, message):
        path = tmp_path / "bad.palmds"
        path.write_bytes(cut(pack_records(corpus)))
        with pytest.raises(FormatError, match=message):
            MappedDataset(path)
        with pytest.raises(FormatError, match=message):
            measure_binding(path)

    def test_empty_dataset_binding_defined(self, tmp_path):
        path = tmp_path / "empty.palmds"
        write_dataset(path, [])
        m = measure_binding(path)
        assert m.mset.h_o[0].data == sha3_256(m.outputs["h(D)"] + m.outputs["MSH(D)"])


class TestTraining:
    def test_label_schema(self, dataset_path, tokenizer, config):
        m = measure_training("bigram", load_in_memory(dataset_path), config, tokenizer)
        assert labels(m.mset.h_i) == ["h(Mar)", "h(Dtr)", "h(T)", "h(Mtok)"]
        assert labels(m.mset.h_o) == ["h(Mtr)"]

    def test_deterministic(self, dataset_path, tokenizer, config):
        a = measure_training("bigram", load_in_memory(dataset_path), config, tokenizer)
        b = measure_training("bigram", load_in_memory(dataset_path), config, tokenizer)
        assert a.mset == b.mset
        assert a.mset.serialized_bytes() == b.mset.serialized_bytes()

    def test_shuffled_matches_sequential_outputs(self, dataset_path, tokenizer):
        seq = TrainConfig(seed=3, epochs=1, sampling="sequential")
        shuf = TrainConfig(seed=3, epochs=1, sampling="shuffled")
        with MappedDataset(dataset_path) as ds_a, MappedDataset(dataset_path) as ds_b:
            a = measure_training("bigram", ds_a, seq, tokenizer)
            b = measure_training("bigram", ds_b, shuf, tokenizer)
        assert a.mset.h_o == b.mset.h_o  # counts are order-insensitive
        assert a.mset.h_i[1] == b.mset.h_i[1]  # same multiset digest
        assert a.mset.h_i[2] != b.mset.h_i[2]  # but configs hash apart

    def test_seed_change_flips_only_config_entry(self, dataset_path, tokenizer):
        a = measure_training("unigram", load_in_memory(dataset_path), TrainConfig(seed=1), tokenizer)
        b = measure_training("unigram", load_in_memory(dataset_path), TrainConfig(seed=2), tokenizer)
        assert a.mset.h_i[2] != b.mset.h_i[2]
        assert [e for i, e in enumerate(a.mset.h_i) if i != 2] == [
            e for i, e in enumerate(b.mset.h_i) if i != 2
        ]
        assert a.mset.h_o == b.mset.h_o


class TestOptimization:
    def test_quantize_has_no_dataset_entries(self, model, tokenizer, config):
        m = measure_optimization(model, tokenizer, config, "quantize")
        assert labels(m.mset.h_i) == ["h(M)", "h(Mtok)", "h(T)", "h(idopt)"]
        assert m.mset.op == OperationId("WeightOptimization", "quantize")

    def test_finetune_mapped_carries_multiset(self, model, tokenizer, config, tmp_path, corpus):
        path = tmp_path / "opt.palmds"
        write_dataset(path, corpus[:6])
        with MappedDataset(path) as ds_opt:
            m = measure_optimization(model, tokenizer, config, "finetune", ds_opt=ds_opt)
        assert labels(m.mset.h_i) == ["h(M)", "h(Mtok)", "h(T)", "h(idopt)", "MSH(Dopt)"]
        limbs, count = oracle_msh(corpus[:6])
        assert m.mset.h_i[-1].data == oracle_encode(limbs, count)

    def test_adapter_entry_precedes_dataset(self, model, tokenizer, config, tmp_path, corpus):
        path = tmp_path / "opt.palmds"
        write_dataset(path, corpus[:4])
        m = measure_optimization(
            model, tokenizer, config, "finetune",
            adp=model, ds_opt=load_in_memory(path),
        )
        assert labels(m.mset.h_i) == ["h(M)", "h(Mtok)", "h(T)", "h(idopt)", "h(Madp)", "h(Dopt)"]

    def test_bad_id_emits_no_measurement_set(self, model, tokenizer, config):
        with pytest.raises(UnknownOptimization):
            measure_optimization(model, tokenizer, config, "distill")


class TestEvaluation:
    def test_metric_in_outputs(self, model, tokenizer, tmp_path):
        path = tmp_path / "te.palmds"
        write_dataset(path, [b"the\tquick", b"pack\tmy"])
        m = measure_evaluation(model, tokenizer, load_in_memory(path))
        assert labels(m.mset.h_i) == ["h(M)", "h(Mtok)", "h(Dte)"]
        assert labels(m.mset.h_o) == ["h(metric)"]
        assert m.mset.h_o[0].data == sha3_256(m.outputs["h(metric)"])
        num, den = map(int, m.outputs["h(metric)"].decode().split("/"))
        assert den == 2

    def test_undefined_metric_hashes_sentinel(self, model, tokenizer, tmp_path):
        path = tmp_path / "empty.palmds"
        write_dataset(path, [])
        m = measure_evaluation(model, tokenizer, load_in_memory(path))
        assert m.outputs["h(metric)"] == b"0/0"


class TestInference:
    def test_label_schema(self, model, tokenizer):
        m = measure_inference(model, tokenizer, b"the quick")
        assert labels(m.mset.h_i) == ["h(M)", "h(Mtok)", "h(q)"]
        assert labels(m.mset.h_o) == ["h(r)"]
        assert m.mset.h_o[0].data == sha3_256(m.outputs["h(r)"])

    def test_query_byte_flips_only_query_entry(self, model, tokenizer):
        a = measure_inference(model, tokenizer, b"the quick")
        b = measure_inference(model, tokenizer, b"the quicj")
        assert a.mset.h_i[2] != b.mset.h_i[2]
        assert a.mset.h_i[:2] == b.mset.h_i[:2]


class TestSessionInference:
    def test_first_turn_history(self, model, tokenizer):
        m = measure_session_inference(model, tokenizer, (), b"the quick")
        response, history = m.result
        assert history == ((b"the quick", response.encode("latin-1")),)
        assert labels(m.mset.h_i) == ["h(q)", "h(Mtok)", "h(M)"]
        assert labels(m.mset.h_o) == ["h(r)", "h(H)"]
        assert m.mset.h_o[1].data == sha3_256(serialize_history(history))

    def test_history_hash_changes_each_turn(self, model, tokenizer):
        m1 = measure_session_inference(model, tokenizer, (), b"the quick")
        _, h1 = m1.result
        m2 = measure_session_inference(model, tokenizer, h1, b"pack my")
        assert m1.mset.h_o[1] != m2.mset.h_o[1]
        # model and tokenizer entries stay constant across the session
        assert m1.mset.h_i[1:] == m2.mset.h_i[1:]


class TestMeasurementSetEncoding:
    def test_serialized_layout(self):
        from palm.measurers import LabeledMeasurement

        mset = MeasurementSet(
            OperationId("SingleInference"),
            (LabeledMeasurement("h(M)", b"\xaa" * 32),),
            (LabeledMeasurement("h(r)", b"\xbb" * 32),),
        )
        raw = mset.serialized_bytes()
        assert raw[0] == 7  # op code
        assert raw[1:5] == (1).to_bytes(4, "little")
        assert raw[5:9] == (4).to_bytes(4, "little")
        assert raw[9:13] == b"h(M)"

    def test_json_round_trip(self, model, tokenizer):
        m = measure_inference(model, tokenizer, b"q", gpu=fake_gpu_token())
        assert MeasurementSet.from_json(m.mset.to_json()) == m.mset

    def test_operation_id_validation(self):
        with pytest.raises(ValueError):
            OperationId("Nonsense")
        with pytest.raises(ValueError):
            OperationId("Training", "finetune")
        with pytest.raises(ValueError):
            OperationId("WeightOptimization")


# --------------------------------------------------------------------------
# Single-pass operations stream a mapped dataset: each record is consumed as
# sample_record returns it. The exactly-once epoch must still fail closed.

EVAL_RECORDS = [b"the\tquick", b"pack\tmy", b"how\tvexingly", b"sphinx\tof",
                b"jackdaws\tlove", b"five\tboxing"]


class _ReServingDataset(MappedDataset):
    """Storage that answers a request for record 2 with record 1 again."""

    def sample_record(self, index, into=None):
        return super().sample_record(1 if index == 2 else index, into)


class _ShortDataset(MappedDataset):
    """Advertises one record fewer than the file holds."""

    def __len__(self):
        return len(self._spans) - 1


def _tampered(length: int) -> bytes:
    """Same length as the record it replaces, so offsets hold; keeps a tab so
    Evaluation still parses it."""
    return b"Z\t" + b"Z" * (length - 2)


class _TamperAfterFirstDataset(MappedDataset):
    """Rewrites the last record on disk right after the first sample."""

    def sample_record(self, index, into=None):
        record = super().sample_record(index, into)
        if index == 0:
            last = len(self._spans) - 1
            tamper_record(self.path, last, _tampered(self._spans[last][1]))
        return record


STREAMED_OPS = {
    "Preprocessing": (lambda m, t, ds: measure_preprocessing(ds), "MSH(D)",
                      lambda m, t, records: pack_records(preproc(records))),
    "AttributeDistribution": (lambda m, t, ds: measure_attribute_distribution(ds), "MSH(D)",
                              lambda m, t, records: serialize_distribution(
                                  attribute_distribution(records))),
    "Evaluation": (lambda m, t, ds: measure_evaluation(m, t, ds), "MSH(Dte)",
                   lambda m, t, records: evaluate(m, t, records).encode()),
}


@pytest.fixture
def eval_path(tmp_path):
    path = tmp_path / "stream.palmds"
    write_dataset(path, EVAL_RECORDS)
    return str(path)


@pytest.mark.parametrize("op", sorted(STREAMED_OPS))
class TestStreamedEpochFailsClosed:
    def test_clean_stream_matches_in_memory_op(self, op, eval_path, model, tokenizer):
        run, label, expected_payload = STREAMED_OPS[op]
        with MappedDataset(eval_path) as ds:
            m = run(model, tokenizer, ds)
        entry = m.mset.h_i[-1]
        assert entry.label == label
        assert entry.data == msh_of_records(EVAL_RECORDS).encode()
        assert list(m.outputs.values()) == [expected_payload(model, tokenizer, EVAL_RECORDS)]

    def test_record_served_twice(self, op, eval_path, model, tokenizer):
        run, _, _ = STREAMED_OPS[op]
        with _ReServingDataset(eval_path) as ds, pytest.raises(DuplicateAccess):
            run(model, tokenizer, ds)

    def test_record_withheld(self, op, eval_path, model, tokenizer):
        run, _, _ = STREAMED_OPS[op]
        with _ShortDataset(eval_path) as ds, pytest.raises(IncompleteEpoch) as exc:
            run(model, tokenizer, ds)
        assert exc.value.missing_indices == [len(EVAL_RECORDS) - 1]

    def test_tamper_mid_epoch_is_what_gets_measured(self, op, eval_path, model, tokenizer):
        """The rewritten record is both consumed and measured, so the input
        digest leaves the clean reference a verifier holds."""
        run, label, expected_payload = STREAMED_OPS[op]
        with _TamperAfterFirstDataset(eval_path) as ds:
            m = run(model, tokenizer, ds)
        seen = EVAL_RECORDS[:-1] + [_tampered(len(EVAL_RECORDS[-1]))]
        entry = m.mset.h_i[-1]
        assert entry.label == label
        assert entry.data != msh_of_records(EVAL_RECORDS).encode()
        assert entry.data == msh_of_records(seen).encode()
        assert list(m.outputs.values()) == [expected_payload(model, tokenizer, seen)]


class TestPayloadsOnDemand:
    def test_preprocessing_packs_only_when_outputs_are_read(self, dataset_path, corpus,
                                                            monkeypatch):
        calls = []
        real = measurers.pack_records
        monkeypatch.setattr(measurers, "pack_records", lambda r: calls.append(1) or real(r))
        with MappedDataset(dataset_path) as ds:
            m = measure_preprocessing(ds)
        assert calls == []
        assert m.outputs["MSH(Dpre)"] == real(preproc(corpus))
        assert m.outputs["MSH(Dpre)"] is m.outputs["MSH(Dpre)"]
        assert calls == [1]

    def test_training_serializes_the_model_once(self, dataset_path, tokenizer, config,
                                                monkeypatch):
        from palm.toyops import ToyModel

        calls = []
        real = ToyModel.serialized_bytes
        monkeypatch.setattr(ToyModel, "serialized_bytes",
                            lambda self: calls.append(self.counts != {}) or real(self))
        m = measure_training("bigram", load_in_memory(dataset_path), config, tokenizer)
        assert m.mset.h_o[0].data == sha3_256(m.outputs["h(Mtr)"])
        assert calls.count(True) == 1  # the trained model; the other call is empty Mar


# --------------------------------------------------------------------------
# The same streamed epochs with their multiset hashes computed by a worker
# pool: the parent still samples, claims and consumes every record once.

POOLED_OPS = {
    "Preprocessing": lambda m, t, ds, pool: measure_preprocessing(ds, pool=pool),
    "AttributeDistribution": lambda m, t, ds, pool: measure_attribute_distribution(ds, pool=pool),
    "Evaluation": lambda m, t, ds, pool: measure_evaluation(m, t, ds, pool=pool),
}


@pytest.mark.parametrize("op", sorted(POOLED_OPS))
class TestPooledEpochFailsClosed:
    def test_clean_stream_matches_in_process(self, op, eval_path, model, tokenizer, msh_pool):
        """Batches of two put several batch boundaries inside the epoch."""
        with MappedDataset(eval_path) as ds:
            in_process = STREAMED_OPS[op][0](model, tokenizer, ds)
        with mock.patch.object(msh, "FLUSH_RECORDS", 2), MappedDataset(eval_path) as ds:
            pooled = POOLED_OPS[op](model, tokenizer, ds, msh_pool)
        assert pooled.mset == in_process.mset
        assert pooled.mset.h_i[-1].data == msh_of_records(EVAL_RECORDS).encode()
        assert pooled.outputs == in_process.outputs

    def test_record_served_twice(self, op, eval_path, model, tokenizer, msh_pool):
        with _ReServingDataset(eval_path) as ds, pytest.raises(DuplicateAccess):
            POOLED_OPS[op](model, tokenizer, ds, msh_pool)

    def test_record_withheld(self, op, eval_path, model, tokenizer, msh_pool):
        with _ShortDataset(eval_path) as ds, pytest.raises(IncompleteEpoch) as exc:
            POOLED_OPS[op](model, tokenizer, ds, msh_pool)
        assert exc.value.missing_indices == [len(EVAL_RECORDS) - 1]

    def test_tamper_mid_epoch_is_what_gets_measured(self, op, eval_path, model, tokenizer,
                                                    msh_pool):
        with _TamperAfterFirstDataset(eval_path) as ds:
            m = POOLED_OPS[op](model, tokenizer, ds, msh_pool)
        seen = EVAL_RECORDS[:-1] + [_tampered(len(EVAL_RECORDS[-1]))]
        assert m.mset.h_i[-1].data == msh_of_records(seen).encode()
        assert list(m.outputs.values()) == [STREAMED_OPS[op][2](model, tokenizer, seen)]


class TestPooledMultiEpochOps:
    def test_training_matches_in_process(self, dataset_path, tokenizer, config, msh_pool):
        with MappedDataset(dataset_path) as ds:
            in_process = measure_training("bigram", ds, config, tokenizer)
        with MappedDataset(dataset_path) as ds:
            pooled = measure_training("bigram", ds, config, tokenizer, pool=msh_pool)
        assert pooled.mset == in_process.mset

    def test_finetune_matches_in_process(self, model, tokenizer, config, tmp_path, corpus,
                                         msh_pool):
        path = tmp_path / "opt.palmds"
        write_dataset(path, corpus[:7])
        with MappedDataset(path) as ds:
            in_process = measure_optimization(model, tokenizer, config, "finetune", ds_opt=ds)
        with MappedDataset(path) as ds:
            pooled = measure_optimization(model, tokenizer, config, "finetune", ds_opt=ds,
                                          pool=msh_pool)
        assert pooled.mset == in_process.mset


class TestConfidentialPreprocessingKeepsNothing:
    @pytest.mark.parametrize("mapped", [False, True], ids=["inmem", "mapped"])
    def test_same_measurements_no_records(self, dataset_path, mapped, monkeypatch, msh_pool):
        def measure(**kwargs):
            if not mapped:
                return measure_preprocessing(load_in_memory(dataset_path), **kwargs)
            with MappedDataset(dataset_path) as ds:
                return measure_preprocessing(ds, **kwargs)

        shown = measure()
        kept = []
        real = measurers._kept
        monkeypatch.setattr(measurers, "_kept", lambda into, items: kept.append(1) or real(into, items))
        for pool in (None, msh_pool):
            hidden = measure(pool=pool, keep_output=False)
            assert hidden.mset == shown.mset
            assert hidden.result is None
            with pytest.raises(PalmError, match="not kept"):
                hidden.outputs
        assert kept == []
