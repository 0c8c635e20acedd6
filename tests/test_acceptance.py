"""The acceptance gate: nine end-to-end properties this package guarantees.

Each test is one numbered property: multiset-hash permutation invariance
and mutation sensitivity at scale, merge homomorphism, frozen golden
vectors cross-checked by a standalone oracle script, the full adversary
sweep, verified coverage of all eight operations over both dataset modes
and both transports, binding-gated reference translation, challenge
freshness, qualitative cost ordering, and bit-for-bit determinism.
"""

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import reduce

import pytest

from palm.adversary import SCENARIOS, adversary_run, build_clean_fixture, clean_run
from palm.attestation import (
    H_MODULE,
    Challenge,
    build_report_data,
    create_td_report,
    derive_mac_key,
    derive_private_key,
    qe_sign_quote,
)
from palm.dataset import write_dataset
from palm.encoding import sha3_256, u64
from palm.measurers import LabeledMeasurement, MeasurementSet, OperationId
from palm.msh import MshAccumulator, hash_record
from palm.protocol import (
    AttestationRequest,
    AttestationResponse,
    TdContext,
    Verifier,
    build_request,
    prover_handle,
)
from palm.refstore import ReferenceStore
from palm.toyops import ToyTokenizer, TrainConfig, train
from palm.transport import request_over_tcp, serve_background

from reference import oracle_encode, oracle_msh

HERE = os.path.dirname(os.path.abspath(__file__))

# Frozen before the implementation existed; recomputed by golden_oracle.py.
GOLDEN = {
    "hello_limbs_first4": [
        3150458185448089605,
        15037049962863437897,
        8896746323126706618,
        15184012040750145212,
    ],
    "hello_msh_encoding_sha3": "7411fc7774c022c7f450c52b8089313b7edecc6e5b34d018a27dd4893f4500c2",
    "hello_xof_prefix": "05e85a1f07adb82b49a846824555aed0",
    "report_mac": "7f04562972d6fb7cb84cbd71be461af5ce510d42471b88301af31047e766cf5d",
    "quote_signature": (
        "d4aa4679ed1960bc5f1e72f84bdf6ae67bc35fbd0c959cc8ae224bf5b8a875b1"
        "6fe6cc29f81ee400adca7f2080a89756750c234878f5c6c2b90632d1f8f31901"
    ),
    "quote_key_id": "qe-89094421",
    "raw64": (
        "d04104fad89e74cc17a52d8a2d93732d7b8adf26111aee67479085adf5b8089f"
        "628be5e50ce9c165c7c3ab370a7dda66027a5ed77ebd1f5857d936114feeb91f"
    ),
}


# --------------------------------------------------------------------------
# Shared pipeline environment (criteria 5 and 9)

_CORPUS = [
    b"the quick brown fox jumps over the lazy dog",
    b"pack my box with five dozen liquor jugs",
    b"how vexingly quick daft zebras jump",
    b"sphinx of black quartz judge my vow",
    b"the five boxing wizards jump quickly",
    b"jackdaws love my big sphinx of quartz",
]

_EVAL_RECORDS = [
    b"the quick brown\tfox",
    b"pack my box\twith",
    b"daft zebras\tjump",
    b"black quartz\tjudge",
]

_DATASET_OPS = ("Preprocessing", "AttributeDistribution", "Training",
                "WeightOptimization", "Evaluation")


@dataclass
class PipelineEnv:
    ctx: TdContext
    store: ReferenceStore
    requests: dict  # op name -> AttestationRequest (inmem / no-dataset form)
    train_records: tuple
    dataset_names: dict


def build_env(workdir: str, seed: bytes = b"acceptance-seed") -> PipelineEnv:
    records = tuple(_CORPUS[i % len(_CORPUS)] + b" #%d" % i for i in range(24))
    write_dataset(os.path.join(workdir, "train.palmds"), records)
    write_dataset(os.path.join(workdir, "eval.palmds"), _EVAL_RECORDS)
    write_dataset(os.path.join(workdir, "opt.palmds"), records[:6])

    tokenizer = ToyTokenizer.build(records + tuple(_EVAL_RECORDS))
    config = TrainConfig(seed=11, epochs=2, sampling="shuffled")
    model = train("bigram", records, config, tokenizer)
    adapter = train("bigram", records[:6], TrainConfig(5, 1, "sequential"), tokenizer)

    ctx = TdContext.create(b"acceptance-td-image", seed, staging_dir=workdir)
    store = ReferenceStore()
    store.add_qe_key(ctx.qe_key_id, ctx.qe_key.public_key().public_bytes_raw())
    store.add_gpu_key(ctx.gpu_key_id(), ctx.gpu_key.public_key().public_bytes_raw())
    store.accept_td(ctx.h_td)
    store.accept_module(H_MODULE)

    def chal(tag: str) -> Challenge:
        return Challenge.from_nonce(sha3_256(b"acceptance:" + tag.encode()))

    model_json = model.to_json()
    tok_json = tokenizer.to_json()
    cfg_json = config.to_json()
    requests = {
        "Preprocessing": build_request(
            "Preprocessing", {"dataset": "train.palmds"}, chal("pre"), want_gpu=True
        ),
        "AttributeDistribution": build_request(
            "AttributeDistribution", {"dataset": "train.palmds"}, chal("adist"), want_gpu=True
        ),
        "MeasurementBinding": build_request(
            "MeasurementBinding", {"dataset": "train.palmds"}, chal("bind")
        ),
        "Training": build_request(
            "Training",
            {"arch": "bigram", "dataset": "train.palmds",
             "train_config": cfg_json, "tokenizer": tok_json},
            chal("train"), want_gpu=True,
        ),
        "WeightOptimization": build_request(
            "WeightOptimization",
            {"model": model_json, "tokenizer": tok_json, "train_config": cfg_json,
             "id_opt": "finetune", "opt_dataset": "opt.palmds", "adapter": adapter.to_json()},
            chal("opt"), want_gpu=True,
        ),
        "Evaluation": build_request(
            "Evaluation",
            {"model": model_json, "tokenizer": tok_json, "dataset": "eval.palmds"},
            chal("eval"), want_gpu=True,
        ),
        "SingleInference": build_request(
            "SingleInference",
            {"model": model_json, "tokenizer": tok_json, "query": "the quick brown"},
            chal("infer"), want_gpu=True,
        ),
        "SessionInference": build_request(
            "SessionInference",
            {"model": model_json, "tokenizer": tok_json, "query": "quartz",
             "history": [["the quick", "brown fox jumps"]]},
            chal("session"), want_gpu=True,
        ),
    }
    names = {"Preprocessing": "train.palmds", "AttributeDistribution": "train.palmds",
             "Training": "train.palmds", "WeightOptimization": "opt.palmds",
             "Evaluation": "eval.palmds"}
    return PipelineEnv(ctx, store, requests, records, names)


def remapped(req: AttestationRequest, tag: str) -> AttestationRequest:
    """The same request in memory-mapped mode under a fresh nonce."""
    nonce = sha3_256(b"acceptance-mapped:" + tag.encode())
    return AttestationRequest(
        req.op, Challenge.from_nonce(nonce), req.inputs, "mapped",
        req.want_gpu, req.confidential,
    )


# --------------------------------------------------------------------------
# 1. Permutation invariance and mutation sensitivity at scale


def test_1_msh_permutation_invariance_and_mutation_sensitivity():
    started = time.monotonic()
    rng = random.Random(0x5EED)
    records = [b"synthetic record %d " % i + rng.randbytes(40) for i in range(10_000)]

    acc = MshAccumulator()
    acc.insert_many(records)
    baseline = acc.finalize()

    for _ in range(200):
        shuffled = records[:]
        rng.shuffle(shuffled)
        trial = MshAccumulator()
        trial.insert_many(shuffled)
        assert trial.finalize() == baseline

    for i in range(200):
        j = rng.randrange(len(records))
        kind = ("skip", "repeat", "tamper")[i % 3]
        if kind == "skip":
            mutated = records[:j] + records[j + 1:]
        elif kind == "repeat":
            mutated = records + [records[j]]
        else:
            rec = bytearray(records[j])
            rec[rng.randrange(len(rec))] ^= 0x01
            mutated = records[:j] + [bytes(rec)] + records[j + 1:]
        trial = MshAccumulator()
        trial.insert_many(mutated)
        assert trial.finalize().limbs != baseline.limbs, f"{kind} at {j} went unnoticed"

    assert time.monotonic() - started < 60


# --------------------------------------------------------------------------
# 2. Merge homomorphism against the sequential oracle


def test_2_merge_homomorphism_random_partitions():
    rng = random.Random(0xC0FFEE)
    records = [rng.randbytes(rng.randrange(1, 120)) for _ in range(500)]
    oracle = oracle_encode(*oracle_msh(records))

    for _ in range(100):
        parts = [MshAccumulator() for _ in range(rng.randint(1, 8))]
        for record in records:
            rng.choice(parts).insert(record)
        merged = reduce(lambda a, b: a.merge(b), parts)
        assert merged.finalize().encode() == oracle


# --------------------------------------------------------------------------
# 3. Golden vectors, frozen and independently recomputed


def _fixture_evidence_via_package():
    mset = MeasurementSet(
        OperationId("SingleInference"),
        (
            LabeledMeasurement("h(M)", b"\xaa" * 32),
            LabeledMeasurement("h(Mtok)", b"\xbb" * 32),
            LabeledMeasurement("h(q)", b"\xcc" * 32),
        ),
        (LabeledMeasurement("h(r)", b"\xdd" * 32),),
    )
    chal = Challenge.from_nonce(b"\x01" * 32)
    seed = b"golden-seed"
    mac_key = derive_mac_key(seed)
    h_td = sha3_256(b"fixture-td-image")
    rd = build_report_data(chal, mset)
    report = create_td_report(h_td, H_MODULE, rd, mac_key)
    qe_key = derive_private_key(b"qe:" + seed)
    key_id = "qe-" + qe_key.public_key().public_bytes_raw().hex()[:8]
    quote = qe_sign_quote(report, mac_key, qe_key, key_id)
    return rd, report, quote, key_id


def test_3_golden_vectors_match_frozen_constants():
    limbs = hash_record(b"hello")
    assert list(limbs[:4]) == GOLDEN["hello_limbs_first4"]
    assert (u64(limbs[0]) + u64(limbs[1])).hex() == GOLDEN["hello_xof_prefix"]

    acc = MshAccumulator()
    acc.insert(b"hello")
    assert sha3_256(acc.finalize().encode()).hex() == GOLDEN["hello_msh_encoding_sha3"]

    rd, report, quote, key_id = _fixture_evidence_via_package()
    assert rd.raw64.hex() == GOLDEN["raw64"]
    assert report.mac.hex() == GOLDEN["report_mac"]
    assert quote.signature.hex() == GOLDEN["quote_signature"]
    assert key_id == GOLDEN["quote_key_id"]


def test_3_standalone_oracle_agrees():
    script = os.path.join(HERE, "golden_oracle.py")
    out = subprocess.run(
        [sys.executable, script], capture_output=True, text=True, check=True
    )
    recomputed = json.loads(out.stdout)
    assert recomputed == GOLDEN


# --------------------------------------------------------------------------
# 4. Adversary sweep: every attack stopped, with the expected reason

EXPECTED_OUTCOMES = {
    "TamperInputPreLoad": ("Reject", "ReferenceMismatch"),
    "TamperMappedRecordMidEpoch": ("Reject", "ReferenceMismatch"),
    "RepeatRecord": ("Reject", "ReferenceMismatch"),
    "SkipRecord": ("prover", "IncompleteEpoch"),
    "ForgeTdReport": ("prover", "MacInvalid"),
    "ForgeQuote": ("Reject", "SignatureInvalid"),
    "ReplayQuote": ("Reject", "StaleChallenge"),
    "SwapTdImage": ("Reject", "UnknownTdImage"),
    "StripGpuToken": ("Reject", "GpuEvidenceMissing"),
}


def test_4_adversary_sweep(tmp_path):
    started = time.monotonic()
    fixture = build_clean_fixture(str(tmp_path))
    assert set(EXPECTED_OUTCOMES) == set(SCENARIOS)

    for scenario in SCENARIOS:
        outcome = adversary_run(scenario, fixture)
        where, reason = EXPECTED_OUTCOMES[scenario]
        assert outcome.defended, f"{scenario} was not stopped"
        if where == "prover":
            assert outcome.prover_error == reason, scenario
            assert outcome.verdict is None
        else:
            assert outcome.verdict is not None
            assert outcome.verdict.result == "Reject", scenario
            assert outcome.verdict.reason == reason, scenario

    baseline = clean_run(fixture)
    assert baseline.accepted
    assert len(baseline.checks) == 8 and all(c.passed for c in baseline.checks)
    assert time.monotonic() - started < 30


# --------------------------------------------------------------------------
# 5. All eight operations verify, both modes, both transports


def test_5_full_operation_coverage(tmp_path):
    env = build_env(str(tmp_path))
    server = serve_background(("127.0.0.1", 0), env.ctx)
    try:
        for op, req in env.requests.items():
            local = prover_handle(req, env.ctx)
            remote = request_over_tcp(server.endpoint, req)
            assert remote.canonical_bytes() == local.canonical_bytes(), op
            verdict = Verifier(env.store).verify(remote, req)
            assert verdict.accepted, f"{op}: {verdict.reason}"

            if op in _DATASET_OPS:
                mapped_req = remapped(req, op)
                mapped_remote = request_over_tcp(server.endpoint, mapped_req)
                mapped_verdict = Verifier(env.store).verify(mapped_remote, mapped_req)
                assert mapped_verdict.accepted, f"{op} mapped: {mapped_verdict.reason}"
    finally:
        server.shutdown()
        server.server_close()


# --------------------------------------------------------------------------
# 6. Binding-gated translation between multiset and plain references


def test_6_binding_resolution_once_and_only_once(tmp_path):
    env = build_env(str(tmp_path))
    with open(os.path.join(str(tmp_path), "train.palmds"), "rb") as f:
        plain = sha3_256(f.read())
    env.store.add_property_ref("Training", "h(Dtr)", plain)
    verifier = Verifier(env.store)

    train_req = remapped(env.requests["Training"], "binding-before")
    before = verifier.verify(prover_handle(train_req, env.ctx), train_req)
    assert (before.result, before.reason) == ("Reject", "ReferenceMismatch")

    bind_req = env.requests["MeasurementBinding"]
    bind_response = prover_handle(bind_req, env.ctx)
    tampered_outputs = dict(bind_response.outputs)
    tampered_outputs["MSH(D)"] = tampered_outputs["MSH(D)"][:-1] + b"\x00"
    bad = AttestationResponse(
        bind_response.quote, bind_response.mset, tampered_outputs, bind_response.gpu_token
    )
    bad_verdict = verifier.register_binding(bad, bind_req)
    assert not bad_verdict.accepted
    assert env.store.bindings == []

    # The rejected presentation burned its nonce; a legitimate registration
    # runs under a fresh challenge.
    bind_req2 = build_request(
        "MeasurementBinding",
        {"dataset": "train.palmds"},
        Challenge.from_nonce(sha3_256(b"acceptance:bind-retry")),
    )
    good_verdict = verifier.register_binding(prover_handle(bind_req2, env.ctx), bind_req2)
    assert good_verdict.accepted
    assert len(env.store.bindings) == 1

    train_req2 = remapped(env.requests["Training"], "binding-after")
    after = verifier.verify(prover_handle(train_req2, env.ctx), train_req2)
    assert after.accepted


# --------------------------------------------------------------------------
# 7. Replay and freshness


def test_7_replay_and_timestamp_window(tmp_path):
    env = build_env(str(tmp_path))
    verifier = Verifier(env.store)

    req = env.requests["SingleInference"]
    response = prover_handle(req, env.ctx)
    assert verifier.verify(response, req).accepted
    replay = verifier.verify(response, req)
    assert (replay.result, replay.reason) == ("Reject", "StaleChallenge")

    ts = 1_755_000_000
    stamped = build_request(
        "Preprocessing", {"dataset": "train.palmds"}, Challenge.from_timestamp(ts)
    )
    stale_response = prover_handle(stamped, env.ctx)
    stale = Verifier(env.store).verify(stale_response, stamped, now=ts + 301)
    assert (stale.result, stale.reason) == ("Reject", "StaleChallenge")
    fresh = Verifier(env.store).verify(stale_response, stamped, now=ts + 299)
    assert fresh.accepted


# --------------------------------------------------------------------------
# 8. Qualitative cost ordering on a 100 MB dataset


def test_8_directional_overhead_bounds():
    rng = random.Random(0x100)
    blob = rng.randbytes(12_800 * 8_192)  # 100 MiB
    records = [blob[i * 8_192:(i + 1) * 8_192] for i in range(12_800)]

    def best_of(fn, runs: int = 3) -> float:
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_plain = best_of(lambda: sha3_256(blob))

    def msh_pass():
        acc = MshAccumulator()
        acc.insert_many(records)
        acc.finalize()

    t_msh = best_of(msh_pass)

    assert t_msh <= 8 * t_plain, f"multiset pass {t_msh:.3f}s vs plain {t_plain:.3f}s"
    assert t_plain < t_msh, f"plain {t_plain:.3f}s should undercut record-wise {t_msh:.3f}s"


# --------------------------------------------------------------------------
# 9. Bit-for-bit determinism across full pipeline runs


def test_9_pipeline_determinism(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    env_a = build_env(str(tmp_path / "a"))
    env_b = build_env(str(tmp_path / "b"))

    for op in env_a.requests:
        blob_a = prover_handle(env_a.requests[op], env_a.ctx).canonical_bytes()
        blob_b = prover_handle(env_b.requests[op], env_b.ctx).canonical_bytes()
        assert blob_a == blob_b, f"{op} responses diverge across identical runs"
        assert env_a.requests[op].to_json() == env_b.requests[op].to_json()
