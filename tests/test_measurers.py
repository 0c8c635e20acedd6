"""Measurement-set assembly: label schemas, mode resolution, determinism."""

import hashlib
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palm import measurers
from palm import msh, toyops
from palm.dataset import (
    InMemoryDataset,
    MappedDataset,
    load_in_memory,
    pack_records,
    tamper_record,
    write_dataset,
)
from palm.encoding import lp, sha3_256, u32
from palm.errors import DuplicateAccess, FormatError, IncompleteEpoch, UnknownOptimization
from palm.measurers import (
    OP_CODES,
    GpuToken,
    LabeledMeasurement,
    MeasurementSet,
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
from palm.protocol import _DECODERS
from palm.toyops import (
    MODEL_KINDS,
    UNK_TOKEN,
    ToyModel,
    TrainConfig,
    attribute_distribution,
    evaluate,
    optimize,
    preproc,
    preproc_record,
    serialize_distribution,
    serialize_history,
    train,
)

from reference import (
    oracle_encode,
    oracle_model_bytes,
    oracle_msh,
    oracle_preproc,
    oracle_tokenizer_bytes,
)


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
    def test_ties_both_digests(self, dataset_path, corpus, tmp_path):
        # The second input folds seven span batches of three plus one of two.
        short = tmp_path / "short.palmds"
        write_dataset(short, corpus[:-1])
        for path, records, flush in ((dataset_path, corpus, msh.FLUSH_RECORDS),
                                     (short, corpus[:-1], 3)):
            with mock.patch.object(msh, "FLUSH_RECORDS", flush):
                m = measure_binding(path)
            with open(path, "rb") as f:
                plain = hashlib.sha3_256(f.read()).digest()
            multiset = oracle_encode(*oracle_msh(records))
            assert m.outputs == {"h(D)": plain, "MSH(D)": multiset}
            assert m.mset.h_i == ()
            assert labels(m.mset.h_o) == ["h(h(D)||MSH(D))"]
            assert m.mset.h_o[0].data == sha3_256(plain + multiset)

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
        assert m.mset.op == "WeightOptimization"

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


ENTRIES = st.lists(
    st.builds(LabeledMeasurement, st.text(st.characters(max_codepoint=127), max_size=12),
              st.binary(min_size=1, max_size=40)),
    max_size=4,
).map(tuple)


class TestMeasurementSetEncoding:
    def test_serialized_layout(self):
        mset = MeasurementSet(
            "SingleInference",
            (LabeledMeasurement("h(M)", b"\xaa" * 32),),
            (LabeledMeasurement("h(r)", b"\xbb" * 32),),
        )
        raw = mset.serialized_bytes()
        assert raw[0] == 7  # op code
        assert raw[1:5] == (1).to_bytes(4, "little")
        assert raw[5:9] == (4).to_bytes(4, "little")
        assert raw[9:13] == b"h(M)"

    def test_bytes_round_trip(self, model, tokenizer):
        m = measure_inference(model, tokenizer, b"q", gpu=fake_gpu_token())
        assert MeasurementSet.from_bytes(m.mset.serialized_bytes()) == m.mset

    @given(op=st.sampled_from(sorted(OP_CODES)), h_i=ENTRIES, h_o=ENTRIES)
    @settings(max_examples=200, deadline=None)
    def test_random_sets_round_trip(self, op, h_i, h_o):
        mset = MeasurementSet(op, h_i, h_o)
        raw = mset.serialized_bytes()
        assert MeasurementSet.from_bytes(raw) == mset
        assert MeasurementSet.from_bytes(raw).serialized_bytes() == raw

    @given(raw=st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_bytes_parse_to_themselves_or_fail(self, raw):
        """Any bytes from_bytes accepts are the one encoding of their set."""
        try:
            mset = MeasurementSet.from_bytes(raw)
        except FormatError:
            return
        assert mset.serialized_bytes() == raw

    @pytest.mark.parametrize("raw,refused", [
        (b"", "truncated"),
        (b"\x00" + u32(0) * 2, "unknown op code 0"),
        (bytes([len(OP_CODES) + 1]) + u32(0) * 2, "unknown op code 9"),
        (b"\x07" + u32(0), "truncated"),
        (b"\x07" + u32(1) + lp(b"h(q)"), "truncated"),
        (b"\x07" + u32(1) + lp(b"h(q)") + u32(3) + b"ab", "truncated"),
        (b"\x07" + u32(1) + lp(b"h(\xe9)") + lp(b"x") + u32(0), "is not ASCII text"),
        (b"\x07" + u32(1) + lp(b"h(q)") + lp(b"") + u32(0), "empty measurement bytes"),
        (b"\x07" + u32(0) * 2 + b"\x00", "1 trailing byte"),
    ], ids=["empty", "op-0", "op-9", "no-h_o-count", "no-data", "short-data",
            "non-ascii-label", "empty-data", "trailing"])
    def test_hostile_bytes_are_format_errors(self, raw, refused):
        with pytest.raises(FormatError, match=refused):
            MeasurementSet.from_bytes(raw)

    def test_operation_id_validation(self):
        with pytest.raises(ValueError, match="unknown operation"):
            MeasurementSet("Nonsense", (), ())


# --------------------------------------------------------------------------
# Single-pass operations stream a mapped dataset: each record is consumed as
# sample_run returns it. The exactly-once epoch must still fail closed.

EVAL_RECORDS = [b"the\tquick", b"pack\tmy", b"how\tvexingly", b"sphinx\tof",
                b"jackdaws\tlove", b"five\tboxing"]


class _ReServingDataset(MappedDataset):
    """Storage that answers a request for record 2 with record 1 again."""

    def sample_run(self, start, stop):
        if start < 2 < stop:
            return self.sample_run(start, 2) + self.sample_run(2, stop)
        if start == 2:
            return super().sample_run(1, 2) + super().sample_run(3, stop)
        return super().sample_run(start, stop)


class _ShortDataset(MappedDataset):
    """Advertises one record fewer than the file holds."""

    def __len__(self):
        return len(self._spans) - 1


def _tampered(length: int) -> bytes:
    """Same length as the record it replaces, so offsets hold; keeps a tab so
    Evaluation still parses it."""
    return b"Z\t" + b"Z" * (length - 2)


class _TamperAfterFirstDataset(MappedDataset):
    """Rewrites the last record on disk right after the first is read."""

    def sample_run(self, start, stop):
        if start == 0 and stop > 1:
            return self.sample_run(0, 1) + self.sample_run(1, stop)
        records = super().sample_run(start, stop)
        if start == 0:
            last = len(self._spans) - 1
            tamper_record(self.path, last, _tampered(self._spans[last][1]))
        return records


STREAM_CONFIG = TrainConfig(seed=5, epochs=3, sampling="shuffled")

STREAMED_OPS = {
    "Preprocessing": (lambda m, t, ds: measure_preprocessing(ds), "MSH(D)",
                      lambda m, t, records: pack_records(preproc(records))),
    "AttributeDistribution": (lambda m, t, ds: measure_attribute_distribution(ds), "MSH(D)",
                              lambda m, t, records: serialize_distribution(
                                  attribute_distribution(records))),
    "Evaluation": (lambda m, t, ds: measure_evaluation(m, t, ds), "MSH(Dte)",
                   lambda m, t, records: evaluate(m, t, records).encode()),
    "Training": (lambda m, t, ds: measure_training("bigram", ds, STREAM_CONFIG, t), "MSH(Dtr)",
                 lambda m, t, records: train("bigram", records, STREAM_CONFIG, t)
                 .serialized_bytes()),
    "finetune": (lambda m, t, ds: measure_optimization(m, t, STREAM_CONFIG, "finetune",
                                                       ds_opt=ds), "MSH(Dopt)",
                 lambda m, t, records: optimize(m, t, STREAM_CONFIG, "finetune", d_opt=records)
                 .serialized_bytes()),
}


def dataset_entry(m, label):
    (entry,) = [e for e in m.mset.h_i if e.label == label]
    return entry


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
        entry = dataset_entry(m, label)
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
        entry = dataset_entry(m, label)
        assert entry.data != msh_of_records(EVAL_RECORDS).encode()
        assert entry.data == msh_of_records(seen).encode()
        assert list(m.outputs.values()) == [expected_payload(model, tokenizer, seen)]


class TestEarlyStopFailsClosed:
    """A run of records is claimed and measured before the operation consumes
    them, so an operation that stops inside a run must still fail the epoch
    and name every record it did not take."""

    @pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pooled"])
    @pytest.mark.parametrize("stop", [3, 9])
    def test_operation_that_stops_early(self, tmp_path, msh_pool, pooled, stop):
        from itertools import islice

        path = tmp_path / "twelve.palmds"
        write_dataset(path, [b"record %d" % i for i in range(12)])
        with mock.patch.object(msh, "FLUSH_RECORDS", 4), \
                MappedDataset(path, msh_pool if pooled else None) as ds:
            with pytest.raises(IncompleteEpoch) as exc:
                measurers._one_pass(ds, "D", lambda records: list(islice(records, stop)))
        assert exc.value.missing_indices == list(range(stop, 12))


class TestZeroEpochs:
    """No epoch of training still reads and measures the one pass, so the
    quote names the dataset, and the model is left as it was."""

    @pytest.mark.parametrize("op", ["Training", "finetune"])
    def test_mapped_pass_is_finished_and_measured(self, op, eval_path, model, tokenizer):
        config = TrainConfig(seed=5, epochs=0, sampling="shuffled")
        with MappedDataset(eval_path) as ds:
            if op == "Training":
                m = measure_training("bigram", ds, config, tokenizer)
                assert m.result.counts == {}
            else:
                m = measure_optimization(model, tokenizer, config, "finetune", ds_opt=ds)
                assert m.result == model
            assert ds.missing_indices() == []
        entry = dataset_entry(m, STREAMED_OPS[op][1])
        assert entry.data == msh_of_records(EVAL_RECORDS).encode()


class TestPayloadsOnDemand:
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


counts_tables = st.dictionaries(
    st.integers(0, 12),
    st.dictionaries(st.integers(0, 12), st.integers(0, 2**64 - 1), max_size=4),
    max_size=4,
)
vocabularies = st.lists(
    st.text(st.characters(max_codepoint=255), min_size=1, max_size=3).filter(
        lambda tok: tok != UNK_TOKEN), unique=True, max_size=6,
).flatmap(lambda toks: st.permutations(range(len(toks) + 1)).map(
    lambda ids: dict(zip([UNK_TOKEN, *toks], ids))))


def _oracle_sha3(data: bytes) -> bytes:
    return hashlib.sha3_256(data).digest()


def _decoded(name: str, doc: dict, sort_keys: bool):
    """The input as a prover decodes it from the JSON text it was sent."""
    return _DECODERS[name](json.loads(json.dumps(doc, sort_keys=sort_keys)), None)


class TestInputDigestsMatchOracle:
    """A model or tokenizer keeps the digest of its canonical bytes, taken on
    first use; every measurer quotes it, and it is the digest of the bytes
    the documented format gives, computed apart from palm."""

    @given(kind=st.sampled_from(MODEL_KINDS), counts=counts_tables,
           adapter=counts_tables, vocab=vocabularies, sort_keys=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_measured_digests(self, kind, counts, adapter, vocab, sort_keys):
        model = _decoded("model", ToyModel(kind, counts).to_json(), sort_keys)
        adp = _decoded("adapter", ToyModel(kind, adapter).to_json(), sort_keys)
        tok = _decoded("tokenizer", {"vocab": vocab}, sort_keys)
        h_m = _oracle_sha3(oracle_model_bytes(kind, counts))
        h_adp = _oracle_sha3(oracle_model_bytes(kind, adapter))
        h_tok = _oracle_sha3(oracle_tokenizer_bytes(vocab))
        assert (model.digest, adp.digest, tok.digest) == (h_m, h_adp, h_tok)
        assert model.digest == sha3_256(model.serialized_bytes())
        assert tok.digest == sha3_256(tok.serialized_bytes())

        records = (b"a\tb", b"\xe9 a\t\xff")
        ds = InMemoryDataset(records, pack_records(records))
        config = TrainConfig()
        runs = [
            measure_training(kind, ds, config, tok),
            measure_optimization(model, tok, config, "prune", adp),
            measure_evaluation(model, tok, ds),
            measure_inference(model, tok, b"a"),
            measure_session_inference(model, tok, (), b"a"),
        ]
        expected = {"h(M)": h_m, "h(Madp)": h_adp, "h(Mtok)": h_tok,
                    "h(Mar)": _oracle_sha3(oracle_model_bytes(kind, {}))}
        seen = set()
        for m in runs:
            quoted = {e.label: e.data for e in m.mset.h_i if e.label in expected}
            assert quoted == {label: expected[label] for label in quoted}
            seen |= quoted.keys()
        assert seen == expected.keys()


# --------------------------------------------------------------------------
# The same streamed epochs from handles opened with a worker pool, which
# hashes them: the parent still samples, claims and consumes every record once.


@pytest.mark.parametrize("op", sorted(STREAMED_OPS))
class TestPooledEpochFailsClosed:
    def test_clean_stream_matches_in_process(self, op, eval_path, model, tokenizer, msh_pool):
        """Batches of two put several batch boundaries inside the epoch."""
        with MappedDataset(eval_path) as ds:
            in_process = STREAMED_OPS[op][0](model, tokenizer, ds)
        with mock.patch.object(msh, "FLUSH_RECORDS", 2), MappedDataset(eval_path, msh_pool) as ds:
            pooled = STREAMED_OPS[op][0](model, tokenizer, ds)
        assert pooled.mset == in_process.mset
        assert dataset_entry(pooled, STREAMED_OPS[op][1]).data == msh_of_records(
            EVAL_RECORDS).encode()
        assert pooled.outputs == in_process.outputs

    def test_record_served_twice(self, op, eval_path, model, tokenizer, msh_pool):
        with _ReServingDataset(eval_path, msh_pool) as ds, pytest.raises(DuplicateAccess):
            STREAMED_OPS[op][0](model, tokenizer, ds)

    def test_record_withheld(self, op, eval_path, model, tokenizer, msh_pool):
        with _ShortDataset(eval_path, msh_pool) as ds, pytest.raises(IncompleteEpoch) as exc:
            STREAMED_OPS[op][0](model, tokenizer, ds)
        assert exc.value.missing_indices == [len(EVAL_RECORDS) - 1]

    def test_tamper_mid_epoch_is_what_gets_measured(self, op, eval_path, model, tokenizer,
                                                    msh_pool):
        with _TamperAfterFirstDataset(eval_path, msh_pool) as ds:
            m = STREAMED_OPS[op][0](model, tokenizer, ds)
        seen = EVAL_RECORDS[:-1] + [_tampered(len(EVAL_RECORDS[-1]))]
        assert dataset_entry(m, STREAMED_OPS[op][1]).data == msh_of_records(seen).encode()
        assert list(m.outputs.values()) == [STREAMED_OPS[op][2](model, tokenizer, seen)]


class TestPooledMultiEpochOps:
    def test_training_matches_in_process(self, dataset_path, tokenizer, config, msh_pool):
        with MappedDataset(dataset_path) as ds:
            in_process = measure_training("bigram", ds, config, tokenizer)
        with MappedDataset(dataset_path, msh_pool) as ds:
            pooled = measure_training("bigram", ds, config, tokenizer)
        assert pooled.mset == in_process.mset

    def test_finetune_matches_in_process(self, model, tokenizer, config, tmp_path, corpus,
                                         msh_pool):
        path = tmp_path / "opt.palmds"
        write_dataset(path, corpus[:7])
        with MappedDataset(path) as ds:
            in_process = measure_optimization(model, tokenizer, config, "finetune", ds_opt=ds)
        with MappedDataset(path, msh_pool) as ds:
            pooled = measure_optimization(model, tokenizer, config, "finetune", ds_opt=ds)
        assert pooled.mset == in_process.mset


class TestConfidentialPreprocessingKeepsNothing:
    @pytest.mark.parametrize("mapped", [False, True], ids=["inmem", "mapped"])
    def test_same_measurements_no_records(self, dataset_path, mapped, monkeypatch, msh_pool):
        def measure(pool=None, **kwargs):
            if not mapped:
                return measure_preprocessing(load_in_memory(dataset_path), **kwargs)
            with MappedDataset(dataset_path, pool) as ds:
                return measure_preprocessing(ds, **kwargs)

        shown = measure()
        kept = []
        real = measurers.preproc
        monkeypatch.setattr(measurers, "preproc", lambda records: kept.append(1) or real(records))
        for pool in (None, msh_pool):
            hidden = measure(pool=pool, keep_output=False)
            assert hidden.mset == shown.mset
            assert hidden.result is None
            assert hidden.outputs is None
        assert kept == ([] if mapped else [1, 1])  # in memory, h(Dpre) hashes Dpre itself


# --------------------------------------------------------------------------
# Mapped Preprocessing measures Dpre as the second sum of the handle's fused
# accumulator: pooled, the workers preprocess and hash each shipped record.

# More than two batches, with empty records and records that preprocess to nothing.
FUSED_RECORDS = [b"", b"  \t ", b"\n", b"Mixed  CASE\twords", b"x" * 300] + [
    b" Record\t%d " % i for i in range(2 * msh.FLUSH_RECORDS + 2)
]


class TestFusedPreprocessing:
    @pytest.fixture
    def fused_path(self, tmp_path):
        path = tmp_path / "fused.palmds"
        write_dataset(path, FUSED_RECORDS)
        return str(path)

    def _measure(self, path, pool, **kwargs):
        with MappedDataset(path, pool) as ds:
            return measure_preprocessing(ds, **kwargs)

    def test_pooled_payload_equals_in_process(self, fused_path, msh_pool):
        in_process = self._measure(fused_path, None)
        pooled = self._measure(fused_path, msh_pool)
        assert pooled.mset == in_process.mset
        assert pooled.result == in_process.result
        assert pooled.outputs == in_process.outputs
        expected = [oracle_preproc(r) for r in FUSED_RECORDS]
        assert pooled.outputs == {"MSH(Dpre)": pack_records(expected)}
        assert pooled.mset.h_o[0].data == oracle_encode(*oracle_msh(expected))

    def test_confidential_pooled_run_never_preprocesses_here(self, fused_path, msh_pool,
                                                            monkeypatch):
        calls = []

        def counted(record):
            calls.append(1)
            return preproc_record(record)

        shown = self._measure(fused_path, None)
        for module in (toyops, msh):
            monkeypatch.setattr(module, "preproc_record", counted)
        hidden = self._measure(fused_path, msh_pool, keep_output=False)
        assert hidden.mset == shown.mset
        assert calls == []
        kept = self._measure(fused_path, msh_pool)  # the payload is preprocessed here
        assert kept.outputs == shown.outputs
        assert len(calls) == len(FUSED_RECORDS)
