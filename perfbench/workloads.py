"""The benchmark's three workloads: seeded inputs, references and checks.

Each workload issues one operation type in a closed loop. Its constructor
generates every input from the seed and computes, with `independent`, the
values the program must produce; that work is not part of set-up time.
`stage` and `provision` are the set-up a user of palm pays. `next_inputs`
gives the inputs of the next request, `check` compares a verified response
with the independent results, and `tamper` makes the negative control.

Why these three: on `mapped-preproc` the two multiset hashes, the mechanism
the paper proposes, take about 60 % of traced prover time (sample-time
inserts over the mapping and the digest of Dpre; the rest is preprocessing,
the index scan and the measurer itself); `train-inmem` bypasses the multiset
hash (one SHA3 over the file) and is dominated by toy training, serialisation
and transport of large payloads; `chat` touches no dataset and is dominated
by per-request frame JSON, model decoding, greedy decoding and quote signing.
"""

from __future__ import annotations

import dataclasses
import os
import random
from typing import Optional

from palm import build_request, write_dataset
from palm.measurers import LabeledMeasurement
from palm.protocol import AttestationResponse, Verdict, Verifier
from palm.refstore import ReferenceStore
from palm.transport import request_over_tcp

import independent as ind

GPU_LABEL = "GPU_att"
LETTERS = "abcdefghijklmnopqrstuvwxyz"


class CheckFailed(Exception):
    """A response differs from the independently computed result."""


def make_words(rng: random.Random, n: int, shortest: int = 3, longest: int = 9) -> list[str]:
    words: set[str] = set()
    while len(words) < n:
        words.add("".join(rng.choices(LETTERS, k=rng.randint(shortest, longest))))
    ordered = sorted(words)
    rng.shuffle(ordered)
    return ordered


def references_checked(verdict: Verdict, response: AttestationResponse) -> None:
    """Every label except the GPU token must have been checked against a reference."""
    labels = [e.label for e in (*response.mset.h_i, *response.mset.h_o) if e.label != GPU_LABEL]
    detail = next(c.detail for c in verdict.checks if c.name == "reference_values")
    if detail != f"{len(labels)} measurement(s) checked against references":
        raise CheckFailed(f"reference_values: {detail!r} for labels {labels}")


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 0x01]) + data[1:]


class Workload:
    name: str
    op: str
    mode = "inmem"
    confidential = False
    round_size = 1
    warmup_rounds = 1
    dataset_name: Optional[str] = None
    records: tuple[bytes, ...] = ()
    # Check that must fail on the tampered response, and the reason it must give.
    tamper_verdict: tuple[str, str]

    def stage(self, staging_dir: str) -> None:
        write_dataset(os.path.join(staging_dir, self.dataset_name), self.records)

    def provision(self, store: ReferenceStore, verifier: Verifier, endpoint, new_challenge) -> None:
        raise NotImplementedError

    def next_inputs(self, store: ReferenceStore) -> dict:
        raise NotImplementedError

    def check(self, response: AttestationResponse, verdict: Verdict) -> None:
        raise NotImplementedError

    def check_once(self, response: AttestationResponse) -> None:
        """A costlier check, made on one warm-up response."""

    def tamper(self, response: AttestationResponse) -> AttestationResponse:
        raise NotImplementedError


class MappedPreproc(Workload):
    """Confidential Preprocessing of one large mapped file of short text records."""

    name = "mapped-preproc"
    op = "Preprocessing"
    mode = "mapped"
    confidential = True
    dataset_name = "corpus.palmds"
    tamper_verdict = ("measurement_set_binding", "Malformed")
    n_records = 80_000
    separators = (b" ", b"  ", b"\t", b" \t ", b"   ", b"\n")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        words = [w.encode() for w in make_words(rng, 4000)]
        cased = [(w, w.upper(), w.capitalize()) for w in words]
        records = []
        for _ in range(self.n_records):
            target = rng.randint(20, 200)
            parts = [rng.choice(self.separators)] if rng.random() < 0.25 else []
            size = len(parts[0]) if parts else 0
            while size < target:
                word = rng.choice(cased)[rng.randrange(3)]
                sep = rng.choice(self.separators)
                parts += (word, sep)
                size += len(word) + len(sep)
            records.append(b"".join(parts)[:target])
        self.records = tuple(records)
        self.h_d = ind.sha3(ind.pack_dataset(self.records))
        self.msh_dpre = ind.msh(ind.preprocess(r) for r in self.records)

    def provision(self, store, verifier, endpoint, new_challenge):
        store.add_property_ref(self.op, "h(D)", self.h_d)
        store.add_property_ref(self.op, "MSH(Dpre)", self.msh_dpre)
        request = build_request(
            "MeasurementBinding", {"dataset": self.dataset_name}, new_challenge(), want_gpu=True
        )
        response = request_over_tcp(endpoint, request)
        verdict = verifier.register_binding(response, request)
        if not verdict.accepted:
            raise CheckFailed(f"binding rejected: {verdict.reason}")
        if response.outputs["h(D)"] != self.h_d:
            raise CheckFailed("binding h(D) differs from the SHA3-256 of the file")

    def next_inputs(self, store):
        return {"dataset": self.dataset_name}

    def check(self, response, verdict):
        if response.outputs is not None:
            raise CheckFailed("confidential run returned outputs")
        references_checked(verdict, response)

    def tamper(self, response):
        entry = response.mset.h_o[0]
        h_o = (LabeledMeasurement(entry.label, _flip(entry.data)),) + response.mset.h_o[1:]
        return dataclasses.replace(response, mset=dataclasses.replace(response.mset, h_o=h_o))


class TrainInmem(Workload):
    """Bigram training, shuffled, over an in-memory dataset with a ~40k-token vocabulary."""

    name = "train-inmem"
    op = "Training"
    dataset_name = "train.palmds"
    tamper_verdict = ("output_measurements", "OutputMismatch")
    warmup_rounds = 2
    n_records = 8000
    n_words = 42_000

    def __init__(self, seed: int):
        rng = random.Random(seed)
        words = [w.encode() for w in make_words(rng, self.n_words)]
        self.records = tuple(
            b" ".join(rng.choices(words, k=rng.randint(10, 30))) for _ in range(self.n_records)
        )
        self.vocab = ind.build_vocab(self.records)
        self.config = {"seed": rng.randrange(2**32), "epochs": 1, "sampling": "shuffled"}
        self.pairs = ind.bigram_counts(self.records, self.vocab)
        self.model = ind.model_bytes(self.pairs)
        self.inputs = {
            "arch": "bigram",
            "dataset": self.dataset_name,
            "train_config": self.config,
            "tokenizer": {"vocab": self.vocab},
        }
        self.refs = {
            "h(Mar)": ind.sha3(ind.empty_bigram_bytes()),
            "h(Dtr)": ind.sha3(ind.pack_dataset(self.records)),
            "h(T)": ind.sha3(ind.train_config_bytes(self.config["seed"], 1, True)),
            "h(Mtok)": ind.sha3(ind.tokenizer_bytes(self.vocab)),
            "h(Mtr)": ind.sha3(self.model),
        }

    def provision(self, store, verifier, endpoint, new_challenge):
        for label, digest in self.refs.items():
            store.add_property_ref(self.op, label, digest)

    def next_inputs(self, store):
        return self.inputs

    def check(self, response, verdict):
        references_checked(verdict, response)
        if response.outputs["h(Mtr)"] != self.model:
            raise CheckFailed("trained model differs from the independent bigram counts")

    def check_once(self, response):
        if ind.decode_model(response.outputs["h(Mtr)"]) != self.pairs:
            raise CheckFailed("decoded model counts differ from Counter over the records")

    def tamper(self, response):
        outputs = dict(response.outputs)
        outputs["h(Mtr)"] = _flip(outputs["h(Mtr)"])
        return dataclasses.replace(response, outputs=outputs)


class Chat(Workload):
    """Sessions of SessionInference turns whose history grows turn by turn."""

    name = "chat"
    op = "SessionInference"
    tamper_verdict = ("output_measurements", "OutputMismatch")
    round_size = 8  # turns per session; a run attempts whole sessions
    n_words = 5000
    n_corpus = 2500

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        words = make_words(self.rng, self.n_words)
        # Zipf-like draws so that greedy paths have clear winners and ties.
        weights = [1.0 / (rank + 1) for rank in range(len(words))]
        corpus = [
            " ".join(self.rng.choices(words, weights, k=self.rng.randint(6, 18))).encode()
            for _ in range(self.n_corpus)
        ]
        self.words = words
        self.vocab = ind.build_vocab(corpus)
        pairs = ind.bigram_counts(corpus, self.vocab)
        self.greedy = ind.Greedy(pairs, self.vocab)
        self.model_json = ind.model_json(pairs)
        self.tokenizer_json = {"vocab": self.vocab}
        self.h_m = ind.sha3(ind.model_bytes(pairs))
        self.h_mtok = ind.sha3(ind.tokenizer_bytes(self.vocab))
        self.history: list[tuple[bytes, bytes]] = []
        self.expected: tuple[bytes, bytes] = (b"", b"")

    def stage(self, staging_dir):
        pass

    def provision(self, store, verifier, endpoint, new_challenge):
        store.add_property_ref(self.op, "h(M)", self.h_m)
        store.add_property_ref(self.op, "h(Mtok)", self.h_mtok)

    def next_inputs(self, store):
        if len(self.history) == self.round_size:
            self.history = []
        query = " ".join(self.rng.choices(self.words, k=self.rng.randint(2, 6))).encode()
        flat = b" ".join([part for turn in self.history for part in turn] + [query])
        response = self.greedy.continue_after(flat)
        inputs = {
            "model": self.model_json,
            "tokenizer": self.tokenizer_json,
            "query": query.decode("ascii"),
            "history": [[q.decode("ascii"), r.decode("ascii")] for q, r in self.history],
        }
        self.history.append((query, response))
        self.expected = (response, ind.history_bytes(self.history))
        store.add_property_ref(self.op, "h(q)", ind.sha3(query))
        store.add_property_ref(self.op, "h(r)", ind.sha3(response))
        store.add_property_ref(self.op, "h(H)", ind.sha3(self.expected[1]))
        return inputs

    def check(self, response, verdict):
        references_checked(verdict, response)
        if (response.outputs["h(r)"], response.outputs["h(H)"]) != self.expected:
            raise CheckFailed("response differs from the independent greedy continuation")

    def tamper(self, response):
        outputs = dict(response.outputs)
        outputs["h(r)"] = _flip(outputs["h(r)"])
        return dataclasses.replace(response, outputs=outputs)


WORKLOADS = {w.name: w for w in (MappedPreproc, TrainInmem, Chat)}
