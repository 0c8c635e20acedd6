"""The client's memo of the JSON text it last sent for each cached input.

`protocol.input_text(name, value)` gives `json_text(value)`, and while the
value's marshal snapshot stays the same it gives the text it kept, without
encoding. These tests pin what makes a hit sound: the key is type-exact
(`1`, `True` and `1.0` differ, as do a tuple and a list), it is taken from
the value on every call (a dict changed in place misses), and a value that
marshal writes as bytes or refuses is encoded as given. A memo keyed by
`==` or by `id()` fails them.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palm import protocol
from palm.adversary import build_clean_fixture
from palm.attestation import Challenge
from palm.encoding import sha3_256
from palm.protocol import build_request, input_text, json_text
from palm.toyops import ToyModel, train
from palm.transport import request_over_tcp, serve_background


class Text(str):
    pass


# Atoms that compare equal, or that marshal writes as the same bytes, next to
# each other: 1 == True == 1.0, 0.0 == -0.0, a str and its subclasses, and
# numpy scalars, which marshal writes as their buffer, next to those bytes.
TWINS = [
    (1, True, 1.0, np.int64(1), np.int64(1).tobytes()),
    (0, False, 0.0, -0.0, None),
    ("a", Text("a"), np.str_("a"), np.str_("a").tobytes()),
    (1.5, np.float64(1.5), np.float64(1.5).tobytes()),
]
ATOMS = st.sampled_from([atom for group in TWINS for atom in group])
KEYS = st.sampled_from(["a", "b"])
VALUES = st.recursive(
    ATOMS,
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(KEYS, inner, max_size=2)),
    max_leaves=5,
)
# A step sends a new value, or sets one key of the dict sent last in place
# and sends that same dict again.
STEPS = st.lists(st.tuples(st.just("send"), VALUES) | st.tuples(st.just("set"), KEYS, ATOMS),
                 min_size=1, max_size=8)


@pytest.fixture(autouse=True)
def empty_memo():
    protocol._sent_texts.clear()
    yield
    protocol._sent_texts.clear()


def assert_as_json_text(name: str, value) -> None:
    """input_text gives json_text's text, or raises its exception type."""
    try:
        expected = json_text(value)
    except Exception as exc:
        with pytest.raises(type(exc)):
            input_text(name, value)
    else:
        assert input_text(name, value) == expected


class TestSameAsJsonText:
    @given(STEPS)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_every_call_gives_what_json_text_gives(self, steps):
        protocol._sent_texts.clear()
        current: object = {}
        for step in steps:
            if step[0] == "send":
                current = step[1]
            elif isinstance(current, dict):
                current[step[1]] = step[2]
            else:
                current = {step[1]: step[2]}
            assert_as_json_text("model", current)

    @pytest.mark.parametrize("group", TWINS, ids=["one", "zero", "text", "float"])
    def test_twins_in_place_never_hit_each_other(self, group):
        doc = {"counts": {"0": None}}
        for first in group:
            for second in group:
                doc["counts"]["0"] = first
                assert_as_json_text("model", doc)
                doc["counts"]["0"] = second
                assert_as_json_text("model", doc)

    def test_tuple_and_list_and_key_order_each_miss(self):
        for doc in ({"a": [1, 2], "b": 3}, {"a": (1, 2), "b": 3}, {"b": 3, "a": [1, 2]}):
            assert_as_json_text("tokenizer", doc)

    def test_only_the_cached_inputs_have_an_entry(self):
        with pytest.raises(ValueError, match="'query' is not a cached input"):
            input_text("query", "quick")
        for name in protocol.CACHED_INPUTS:
            input_text(name, {"vocab": {"<unk>": 0}})
        assert sorted(protocol._sent_texts) == sorted(protocol.CACHED_INPUTS)

    def test_a_value_json_cannot_write_leaves_no_entry(self):
        input_text("model", {"kind": "unigram"})
        kept = dict(protocol._sent_texts)
        for bad in ({"kind": b"unigram"}, {"kind": np.int64(1)}):
            with pytest.raises(TypeError):
                input_text("model", bad)
        assert protocol._sent_texts == kept


class TestThreads:
    def test_four_threads_sending_two_documents_each_get_their_own_text(self):
        docs = [{"counts": {str(i): {"1": i + n} for i in range(300)}} for n in (1, 2)]
        texts = [json_text(doc) for doc in docs]
        barrier = threading.Barrier(4)
        wrong, errors = [], []

        def work(first: int):
            try:
                barrier.wait()
                for turn in range(50):
                    which = (first + turn) % 2
                    if input_text("model", docs[which]) != texts[which]:
                        wrong.append(which)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (wrong, errors) == ([], [])
        assert protocol._sent_texts["model"][1] in texts


@pytest.fixture
def fixture(tmp_path):
    return build_clean_fixture(str(tmp_path))


def _turn(fixture, model: dict, turn: int):
    return build_request(
        "SessionInference",
        {"model": model, "tokenizer": fixture.tokenizer.to_json(), "query": f"quick {turn}",
         "history": [[f"quick {t}", "the lazy dog"] for t in range(turn)]},
        Challenge.from_nonce(sha3_256(b"input-text:%d" % turn)),
    )


class TestServedSession:
    @pytest.fixture
    def served(self, fixture):
        server = serve_background(("127.0.0.1", 0), fixture.make_context())
        yield server.endpoint
        server.shutdown()
        server.server_close()

    def test_model_changed_in_place_is_sent_as_changed(self, fixture, served):
        model = train("bigram", fixture.records, fixture.config, fixture.tokenizer).to_json()
        first = request_over_tcp(served, _turn(fixture, model, 0), timeout=30)
        context = next(iter(model["counts"]))
        token = next(iter(model["counts"][context]))
        model["counts"][context][token] += 1
        second = request_over_tcp(served, _turn(fixture, model, 1), timeout=30)

        def h_m(response) -> bytes:
            return next(e.data for e in response.mset.h_i if e.label == "h(M)")

        assert h_m(second) == sha3_256(ToyModel.from_json(model).serialized_bytes())
        assert h_m(second) != h_m(first)

    def test_eight_turns_encode_the_model_and_tokenizer_once(self, fixture, served,
                                                             monkeypatch):
        calls = []
        real = protocol.json_text

        def counted(doc):
            calls.append(doc)
            return real(doc)

        monkeypatch.setattr(protocol, "json_text", counted)
        model = train("bigram", fixture.records, fixture.config, fixture.tokenizer).to_json()
        for turn in range(8):
            request_over_tcp(served, _turn(fixture, model, turn), timeout=30)
        assert calls == [model, fixture.tokenizer.to_json()]

    def test_eight_turns_hash_the_model_and_tokenizer_once(self, fixture, served, monkeypatch):
        """The prover keeps each decoded input's digest with the object, so
        h(M) and h(Mtok) are taken on the first turn only."""
        model = train("bigram", fixture.records, fixture.config, fixture.tokenizer).to_json()
        inputs = {"model": ToyModel.from_json(model).serialized_bytes(),
                  "tokenizer": fixture.tokenizer.serialized_bytes()}
        hashed = []
        real = hashlib.sha3_256

        def counted(data=b"", *args, **kwargs):
            hashed.extend(name for name, canonical in inputs.items() if data == canonical)
            return real(data, *args, **kwargs)

        monkeypatch.setattr(hashlib, "sha3_256", counted)
        responses = [request_over_tcp(served, _turn(fixture, model, turn), timeout=30)
                     for turn in range(8)]
        assert sorted(hashed) == ["model", "tokenizer"]
        for response in responses:
            quoted = {e.label: e.data for e in response.mset.h_i}
            assert quoted["h(M)"] == real(inputs["model"]).digest()
            assert quoted["h(Mtok)"] == real(inputs["tokenizer"]).digest()
