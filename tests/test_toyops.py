"""Toy operation semantics: the examples every measurement hash rests on."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import palm
from palm.errors import FormatError, MissingDataset, UnknownOptimization
from palm.toyops import (
    MODEL_KINDS,
    RESPONSE_LEN,
    UNK_ID,
    UNK_TOKEN,
    ToyModel,
    ToyTokenizer,
    TrainConfig,
    attribute_distribution,
    evaluate,
    infer,
    infer_session,
    optimize,
    preproc,
    serialize_distribution,
    serialize_history,
    train,
)

from reference import oracle_model_bytes, oracle_optimize, oracle_predict, oracle_train

texts = st.lists(st.binary(max_size=48), max_size=12)


class TestPreproc:
    def test_lowercase_and_collapse(self):
        assert preproc([b"Hello  World"]) == (b"hello world",)

    def test_empty_input(self):
        assert preproc([]) == ()

    def test_truncates_to_256(self):
        (out,) = preproc([b"A" * 300])
        assert out == b"a" * 256

    def test_mixed_whitespace_runs(self):
        assert preproc([b"a\t\tb\n c"]) == (b"a b c",)

    def test_order_preserved(self):
        assert preproc([b"B", b"A"]) == (b"b", b"a")

    @given(texts)
    @settings(max_examples=40)
    def test_idempotent(self, records):
        once = preproc(records)
        assert preproc(once) == once


class TestAttributeDistribution:
    def test_counts_lengths(self):
        hist = attribute_distribution([b"abc", b"abcde", b"xyz"])
        assert hist == {3: 2, 5: 1}
        assert serialize_distribution(hist) == b"{3:2,5:1}"

    def test_empty(self):
        assert attribute_distribution([]) == {}
        assert serialize_distribution({}) == b"{}"

    def test_total_mass(self, rng):
        records = [rng.randbytes(rng.randint(0, 50)) for _ in range(1000)]
        hist = attribute_distribution(records)
        assert sum(hist.values()) == 1000

    def test_serialization_sorted_by_key(self):
        assert serialize_distribution({10: 1, 2: 3}) == b"{2:3,10:1}"


class TestTokenizer:
    def test_ids_are_dense_and_sorted(self):
        tok = ToyTokenizer.build([b"b a", b"c a"])
        assert tok.vocab == {UNK_TOKEN: 0, "a": 1, "b": 2, "c": 3}

    def test_oov_maps_to_zero(self):
        tok = ToyTokenizer.build([b"a"])
        assert tok.encode(b"a zzz") == [1, UNK_ID]

    def test_density_enforced(self):
        with pytest.raises(ValueError):
            ToyTokenizer({"a": 1, "b": 3})

    def test_serialization_deterministic(self):
        tok = ToyTokenizer.build([b"b a c"])
        assert tok.serialized_bytes() == ToyTokenizer.build([b"c b", b"a"]).serialized_bytes()

    def test_json_round_trip(self):
        tok = ToyTokenizer.build([b"a b"])
        assert ToyTokenizer.from_json(tok.to_json()) == tok

    def test_decode_id_matches_a_scan_of_the_vocab(self, tokenizer):
        def scan(token_id):
            for tok, tid in tokenizer.vocab.items():
                if tid == token_id:
                    return tok
            return UNK_TOKEN

        for token_id in range(len(tokenizer.vocab)):
            assert tokenizer.decode_id(token_id) == scan(token_id)
        for outside in (-1, len(tokenizer.vocab), 2**40):
            assert tokenizer.decode_id(outside) == UNK_TOKEN


class TestTrain:
    def test_unigram_counts(self):
        tok = ToyTokenizer.build([b"a b"])
        model = train("unigram", [b"a b a"], TrainConfig(epochs=1), tok)
        a, b = tok.vocab["a"], tok.vocab["b"]
        assert model.counts == {0: {a: 2, b: 1}}

    def test_shuffled_equals_sequential(self, corpus, tokenizer):
        seq = train("bigram", corpus, TrainConfig(seed=1, epochs=1, sampling="sequential"), tokenizer)
        shuf = train("bigram", corpus, TrainConfig(seed=9, epochs=1, sampling="shuffled"), tokenizer)
        assert seq == shuf

    def test_epochs_scale_counts_linearly(self, corpus, tokenizer):
        one = train("unigram", corpus, TrainConfig(epochs=1), tokenizer)
        two = train("unigram", corpus, TrainConfig(epochs=2), tokenizer)
        assert two.counts == {
            ctx: {tid: 2 * n for tid, n in entries.items()}
            for ctx, entries in one.counts.items()
        }

    def test_largest_epoch_count_trains_in_one_pass_of_memory(self, corpus, tokenizer):
        """Epochs scale the counts of one pass, so 2**32 - 1 of them train
        under a 1 GiB address-space cap, in a child process that a replay of
        every epoch would take down instead of the machine."""
        epochs = 2**32 - 1
        child = textwrap.dedent(f"""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from palm.toyops import ToyTokenizer, TrainConfig, train
            records = {corpus!r}
            config = TrainConfig(seed=3, epochs={epochs}, sampling="shuffled")
            model = train("bigram", records, config, ToyTokenizer.build(records))
            sys.stdout.write(model.serialized_bytes().hex())
        """)
        src = os.path.dirname(os.path.dirname(palm.__file__))
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr[-2000:]
        one = train("bigram", corpus, TrainConfig(epochs=1), tokenizer)
        scaled = {ctx: {tid: n * epochs for tid, n in entries.items()}
                  for ctx, entries in one.counts.items()}
        assert bytes.fromhex(done.stdout) == oracle_model_bytes("bigram", scaled)

    def test_zero_epochs_read_the_whole_pass(self, corpus, tokenizer):
        read = []
        model = train("bigram", (read.append(r) or r for r in corpus), TrainConfig(epochs=0),
                      tokenizer)
        assert model == ToyModel.empty("bigram")
        assert read == corpus

    def test_count_past_u64_raises(self, monkeypatch):
        """A pass would need over 2**32 tokens to get there; feign the count."""
        from palm import toyops

        tok = ToyTokenizer.build([b"a"])
        config = TrainConfig(epochs=2**31)
        assert train("unigram", [b"a"], config, tok).counts == {0: {tok.vocab["a"]: 2**31}}
        monkeypatch.setattr(toyops.np, "unique",
                            lambda keys, **kw: (keys[:1], toyops.np.array([2**33 + 1])))
        with pytest.raises(ValueError, match="overflows u64"):
            train("unigram", [b"a"], config, tok)

    def test_bigram_uses_start_context(self):
        tok = ToyTokenizer.build([b"a b"])
        model = train("bigram", [b"a b"], TrainConfig(epochs=1), tok)
        a, b = tok.vocab["a"], tok.vocab["b"]
        assert model.counts == {0: {a: 1}, a: {b: 1}}

    def test_model_serialization_round_trip(self, model):
        assert ToyModel.from_json(model.to_json()) == model

    def test_serialization_is_canonical(self, model):
        scrambled = ToyModel(
            model.kind,
            {ctx: dict(reversed(list(entries.items()))) for ctx, entries in reversed(list(model.counts.items()))},
        )
        assert scrambled.serialized_bytes() == model.serialized_bytes()


class TestOptimize:
    def _model(self, counts):
        return ToyModel("unigram", {0: dict(counts)})

    def test_quantize_floor_divides(self):
        out = optimize(self._model({1: 33}), None, None, "quantize")
        assert out.counts == {0: {1: 2}}

    def test_quantize_drops_zeros(self):
        out = optimize(self._model({1: 15, 2: 16}), None, None, "quantize")
        assert out.counts == {0: {2: 1}}

    def test_quantize_idempotent_when_counts_small(self):
        small = self._model({1: 7, 2: 3})
        once = optimize(small, None, None, "quantize")
        assert optimize(once, None, None, "quantize") == once

    def test_prune_drops_below_two(self):
        out = optimize(self._model({1: 1, 2: 5}), None, None, "prune")
        assert out.counts == {0: {2: 5}}

    def test_unknown_id(self):
        with pytest.raises(UnknownOptimization):
            optimize(self._model({}), None, None, "distill")

    def test_finetune_requires_dataset(self):
        with pytest.raises(MissingDataset):
            optimize(self._model({}), None, TrainConfig(), "finetune")

    def test_non_finetune_forbids_dataset(self):
        with pytest.raises(ValueError):
            optimize(self._model({}), None, None, "quantize", d_opt=[b"a"])

    def test_finetune_adds_counts(self):
        tok = ToyTokenizer.build([b"a"])
        base = ToyModel("unigram", {0: {1: 2}})
        out = optimize(base, tok, TrainConfig(epochs=1), "finetune", d_opt=[b"a a"])
        assert out.counts == {0: {1: 4}}

    def test_finetune_applies_adapter_overlay(self):
        tok = ToyTokenizer.build([b"a"])
        base = ToyModel("unigram", {0: {1: 1}})
        adp = ToyModel("unigram", {0: {1: 10}})
        out = optimize(base, tok, TrainConfig(epochs=1), "finetune", adp=adp, d_opt=[b"a"])
        assert out.counts == {0: {1: 12}}


class TestEvaluate:
    def test_all_correct(self):
        tok = ToyTokenizer.build([b"a"])
        model = ToyModel("unigram", {0: {tok.vocab["a"]: 5}})
        assert evaluate(model, tok, [b"x\ta", b"y\ta"]) == "2/2"

    def test_empty_is_undefined_sentinel(self):
        assert evaluate(ToyModel("unigram"), ToyTokenizer.build([]), []) == "0/0"

    def test_three_of_four_fixture(self):
        # Hand-check: bigram predicts per last context token.
        #   after a -> b (2 vs 1), after b -> a (only entry), start -> a.
        tok = ToyTokenizer.build([b"a b c"])
        a, b, c = tok.vocab["a"], tok.vocab["b"], tok.vocab["c"]
        model = ToyModel("bigram", {a: {b: 2, c: 1}, b: {a: 1}, 0: {a: 3}})
        tests = [
            b"x a\tb",  # context ends with a -> b: correct
            b"a\tb",    # -> b: correct
            b"b\ta",    # -> a: correct
            b"a\tc",    # -> b, expected c: wrong
        ]
        assert evaluate(model, tok, tests) == "3/4"

    def test_record_without_tab(self):
        with pytest.raises(FormatError):
            evaluate(ToyModel("unigram"), ToyTokenizer.build([]), [b"no separator"])

    @given(st.lists(st.sampled_from([b"a\ta", b"a\tb", b"b\ta"]), max_size=20))
    @settings(max_examples=40)
    def test_metric_is_a_fraction(self, records):
        tok = ToyTokenizer.build([b"a b"])
        model = ToyModel("bigram", {0: {1: 1}, 1: {1: 1}, 2: {1: 1}})
        num, den = map(int, evaluate(model, tok, records).split("/"))
        assert den == len(records)
        assert 0 <= num <= den


class TestInfer:
    def test_empty_vocab_yields_reserved_token(self):
        tok = ToyTokenizer.build([])
        r = infer(ToyModel("unigram"), tok, b"anything")
        assert r == " ".join([UNK_TOKEN] * RESPONSE_LEN)

    def test_greedy_chain_hand_traced(self):
        tok = ToyTokenizer.build([b"a b"])
        a, b = tok.vocab["a"], tok.vocab["b"]
        model = ToyModel("bigram", {a: {b: 3, a: 1}, b: {a: 2}})
        # From "a": a->b, b->a, alternating for 8 steps.
        assert infer(model, tok, b"a") == "b a b a b a b a"

    def test_deterministic(self, model, tokenizer):
        q = b"the quick"
        assert infer(model, tokenizer, q) == infer(model, tokenizer, q)

    def test_argmax_tie_breaks_to_lowest_id(self):
        tok = ToyTokenizer.build([b"a b"])
        a, b = tok.vocab["a"], tok.vocab["b"]
        model = ToyModel("unigram", {0: {b: 2, a: 2}})
        assert infer(model, tok, b"") == " ".join(["a"] * RESPONSE_LEN)


class TestSessionInfer:
    def test_empty_history_reduces_to_infer(self, model, tokenizer):
        q = b"the quick"
        assert infer_session(model, tokenizer, (), q) == infer(model, tokenizer, q)

    def test_history_changes_context(self):
        tok = ToyTokenizer.build([b"a b c"])
        a, b, c = tok.vocab["a"], tok.vocab["b"], tok.vocab["c"]
        model = ToyModel("bigram", {a: {b: 1}, b: {c: 1}, c: {a: 1}})
        # An empty query leaves the context to the history's last token.
        bare = infer(model, tok, b"")  # context 0: all reserved tokens
        with_history = infer_session(model, tok, ((b"x", b"a"),), b"")
        assert bare == " ".join([UNK_TOKEN] * RESPONSE_LEN)
        assert with_history == infer(model, tok, b"a")
        assert with_history != bare

    def test_history_not_mutated(self, model, tokenizer):
        history = ((b"q", b"r"),)
        infer_session(model, tokenizer, history, b"the quick")
        assert history == ((b"q", b"r"),)

    def test_permuted_history_differs(self):
        tok = ToyTokenizer.build([b"a b c"])
        a, b, c = tok.vocab["a"], tok.vocab["b"], tok.vocab["c"]
        model = ToyModel("bigram", {a: {b: 1}, b: {c: 1}, c: {a: 1}})
        h1 = ((b"a", b"b"), (b"c", b"a"))
        h2 = ((b"c", b"a"), (b"a", b"b"))
        assert infer_session(model, tok, h1, b"") != infer_session(model, tok, h2, b"")

    def test_history_serialization_layout(self):
        data = serialize_history(((b"q", b"resp"),))
        assert data == (
            (1).to_bytes(4, "little")
            + (1).to_bytes(4, "little") + b"q"
            + (4).to_bytes(4, "little") + b"resp"
        )


class TestConfig:
    def test_serialized_layout(self):
        cfg = TrainConfig(seed=7, epochs=3, sampling="shuffled")
        assert cfg.serialized_bytes() == (7).to_bytes(8, "little") + (3).to_bytes(4, "little") + b"\x01"

    def test_rejects_unknown_sampling(self):
        with pytest.raises(ValueError):
            TrainConfig(sampling="bogus")

    @pytest.mark.parametrize(
        "seed, epochs", [(-1, 1), (2**64, 1), (0, -1), (0, 2**32)]
    )
    def test_rejects_out_of_range(self, seed, epochs):
        with pytest.raises(ValueError, match="outside"):
            TrainConfig(seed=seed, epochs=epochs)

    def test_accepts_range_ends(self):
        cfg = TrainConfig(seed=2**64 - 1, epochs=2**32 - 1)
        assert cfg.serialized_bytes()[:12] == b"\xff" * 12

    def test_json_round_trip(self):
        cfg = TrainConfig(seed=5, epochs=2, sampling="sequential")
        assert TrainConfig.from_json(cfg.to_json()) == cfg


class TestModelRanges:
    """Context and token ids are u32 and counts u64: a value outside is a
    ValueError when the model is built, not a failure at serialisation."""

    @pytest.mark.parametrize(
        "counts",
        [{"0": {"1": -5}}, {"0": {"1": 2**64}}, {str(2**32): {"1": 1}}, {"0": {"-1": 1}}],
    )
    def test_from_json_rejects(self, counts):
        with pytest.raises(ValueError, match="outside"):
            ToyModel.from_json({"kind": "bigram", "counts": counts})

    def test_constructor_rejects(self):
        with pytest.raises(ValueError, match="outside"):
            ToyModel("bigram", {2**32: {}})

    def test_range_ends_serialise(self):
        model = ToyModel("bigram", {2**32 - 1: {2**32 - 1: 2**64 - 1}})
        one = (1).to_bytes(4, "little")
        assert model.serialized_bytes() == b"\x02" + one + b"\xff" * 4 + one + b"\xff" * 12

    def test_finetune_overflow_raises(self):
        tok = ToyTokenizer.build([b"a"])
        base = ToyModel("unigram", {0: {1: 2**64 - 1}})
        with pytest.raises(ValueError, match="overflows"):
            optimize(base, tok, TrainConfig(epochs=1), "finetune", d_opt=[b"a"])


# --------------------------------------------------------------------------
# The columnar count table against the dict-based oracle in tests/reference.py.

# Tokens mix ASCII, latin-1 bytes >= 0x80 and \x85 / \xa0, which str.split()
# would split on and bytes.split() does not; \x0b and \x0c separate them.
tokens = st.lists(
    st.sampled_from([b"a", b"b", b"c", b"\xe9", b"\xff", b"\x85", b"\xa0", b"<unk>"]),
    min_size=1, max_size=3,
).map(b"".join)
separators = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"  "])
records = st.lists(
    st.lists(st.tuples(separators, tokens), max_size=6).map(
        lambda parts: b"".join(sep + tok for sep, tok in parts)
    ),
    max_size=8,
)
counts_tables = st.dictionaries(
    st.integers(0, 12),
    st.dictionaries(
        st.integers(0, 12),
        st.one_of(st.integers(0, 40), st.integers(2**64 - 40, 2**64 - 1)),
        max_size=5,
    ),
    max_size=5,
)


class TestColumnarMatchesOracle:
    @given(
        recs=records,
        in_vocab=st.integers(0, 8),
        kind=st.sampled_from(MODEL_KINDS),
        epochs=st.integers(0, 3),
        sampling=st.sampled_from(["sequential", "shuffled"]),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_train(self, recs, in_vocab, kind, epochs, sampling, seed):
        tok = ToyTokenizer.build(recs[:in_vocab])  # later records bring unknown tokens
        model = train(kind, recs, TrainConfig(seed, epochs, sampling), tok)
        expected = oracle_train(kind, recs, tok.vocab, seed, epochs, sampling)
        assert model.counts == expected
        assert model.serialized_bytes() == oracle_model_bytes(kind, expected)
        assert model == ToyModel(kind, expected)
        assert ToyModel.from_json(model.to_json()) == model
        for context in range(len(tok.vocab) + 1):
            assert model.predict(context) == oracle_predict(kind, expected, context)

    @given(kind=st.sampled_from(MODEL_KINDS), counts=counts_tables)
    @settings(max_examples=150, deadline=None)
    def test_table_and_filters(self, kind, counts):
        # Tables here hold contexts with no entries and zero counts.
        model = ToyModel(kind, counts)
        assert model.serialized_bytes() == oracle_model_bytes(kind, counts)
        assert model.counts == counts
        assert ToyModel.from_json(model.to_json()) == model
        # Frames sort keys as strings: "10" arrives before "9".
        framed = json.loads(json.dumps(model.to_json(), sort_keys=True))
        assert ToyModel.from_json(framed) == model
        for context in range(14):
            assert model.predict(context) == oracle_predict(kind, counts, context)
        for id_opt in ("quantize", "prune"):
            expected = oracle_optimize(counts, id_opt)
            out = optimize(model, None, None, id_opt)
            assert out.serialized_bytes() == oracle_model_bytes(kind, expected)

    @given(
        kind=st.sampled_from(MODEL_KINDS),
        counts=counts_tables,
        adapter=st.one_of(st.none(), counts_tables),
        recs=records,
        epochs=st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_finetune(self, kind, counts, adapter, recs, epochs):
        tok = ToyTokenizer.build(recs)
        config = TrainConfig(5, epochs, "shuffled")
        trained = oracle_train(kind, recs, tok.vocab, 5, epochs, "shuffled")
        expected = oracle_optimize(counts, "finetune", trained, adapter)
        adp = None if adapter is None else ToyModel(kind, adapter)
        finetune = lambda: optimize(ToyModel(kind, counts), tok, config, "finetune", adp, recs)
        if any(n >= 2**64 for entries in expected.values() for n in entries.values()):
            with pytest.raises(ValueError, match="overflows"):
                finetune()
        else:
            assert finetune().serialized_bytes() == oracle_model_bytes(kind, expected)

    @given(ctx=st.lists(st.integers(0, 2**32 - 1), max_size=40).map(sorted),
           dtype=st.sampled_from([np.uint64, np.int64, np.uint32]))
    @example(ctx=[], dtype=np.uint64)
    @example(ctx=[7], dtype=np.uint64)
    @example(ctx=[3, 3, 3], dtype=np.int64)
    @settings(max_examples=150, deadline=None)
    def test_contexts_of_sorted_rows_are_their_unique_ids(self, ctx, dtype):
        ctx = np.array(ctx, dtype)
        rows = np.arange(len(ctx))
        model = ToyModel._from_rows("bigram", ctx, rows, rows)
        assert np.array_equal(model.contexts, np.unique(ctx))
        assert model.contexts.dtype == np.uint32
        assert model.starts.tolist() == [*np.searchsorted(ctx, np.unique(ctx)), len(ctx)]

    def test_from_json_in_any_order_matches_the_dict_form(self):
        # Keys arrive sorted as strings, so "10" before "9"; an id has one
        # key only, so "01" is refused instead of naming context 1 again.
        doc = {"kind": "bigram", "counts": {"10": {"2": 1, "1": 4}, "1": {}, "9": {"3": 2}}}
        assert ToyModel.from_json(doc) == ToyModel("bigram", {10: {2: 1, 1: 4}, 1: {}, 9: {3: 2}})
        doc["counts"]["01"] = {"3": 2}
        with pytest.raises(ValueError, match="'01'"):
            ToyModel.from_json(doc)
