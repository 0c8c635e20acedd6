"""The benchmark's tracer still finds every layer it times.

perfbench/tracer.py replaces palm's functions where their callers look them
up (a module global or a class attribute). A refactor that calls a layer
by another route leaves its span empty and its per-layer metric at zero,
with no error. This test installs the tracer in a child process, so the
replacements stay there, runs requests that between them cross every traced
prover layer, and checks that each layer recorded a call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import palm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SCRIPT = r"""
import json, sys, tempfile

from tracer import Tracer, install_prover

tracer = Tracer()
install_prover(tracer)

from palm import transport
from palm.adversary import build_clean_fixture
from palm.attestation import Challenge
from palm.encoding import sha3_256
from palm.msh import MshPool
from palm.protocol import build_request
from palm.toyops import train

def chal(tag):
    return Challenge.from_nonce(sha3_256(tag.encode()))

with tempfile.TemporaryDirectory() as workdir, MshPool() as pool:
    fixture = build_clean_fixture(workdir)
    tokenizer = fixture.tokenizer.to_json()
    model = train("bigram", fixture.records, fixture.config, fixture.tokenizer).to_json()
    requests = {
        "mapped-preprocessing": build_request(
            "Preprocessing", {"dataset": fixture.dataset_name}, chal("pre"), mode="mapped"),
        "confidential-mapped-preprocessing": build_request(
            "Preprocessing", {"dataset": fixture.dataset_name}, chal("conf-pre"), mode="mapped",
            confidential=True),
        "inmem-training": build_request(
            "Training", {"arch": "bigram", "dataset": fixture.dataset_name,
                         "train_config": fixture.config.to_json(), "tokenizer": tokenizer},
            chal("train")),
        "session-inference": build_request(
            "SessionInference", {"model": model, "tokenizer": tokenizer, "query": "quick",
                                 "history": [["the", "lazy dog"]]},
            chal("session")),
    }
    for key, request in requests.items():
        ctx = fixture.make_context()  # a fresh decode cache: every input is decoded
        ctx.msh_pool = pool
        tracer.set_request(key)
        transport.prover_handle(request, ctx)
    tracer.clear_request()

calls = {key: {name: row[0] for name, row in spans.items()}
         for key, spans in tracer.totals().items()}
json.dump({"records": len(fixture.records), "calls": calls}, sys.stdout)
"""

COMMON = ("measurers.measure", "attestation.quote")
# A mapped pass reads and measures runs of records (MappedDataset.sample_run),
# which the tracer does not wrap, so dataset.sample and msh.insert stay empty
# there, and MSH(Dpre) is read from the fused accumulator; msh.records still
# counts every record of D and of Dpre.
MAPPED_PREPROCESSING = ("dataset.open", "dataset.finish_epoch", "msh.finalize", *COMMON)
EXPECTED = {
    "mapped-preprocessing": MAPPED_PREPROCESSING,
    # the benchmark's own request: the same layers, with no output returned
    "confidential-mapped-preprocessing": MAPPED_PREPROCESSING,
    "inmem-training": ("dataset.load", "toyops.train", "toyops.tokenizer_decode", *COMMON),
    "session-inference": ("toyops.infer", "toyops.model_decode", "toyops.tokenizer_decode",
                          *COMMON),
}


def test_every_traced_prover_layer_records_calls(tmp_path):
    src = os.path.dirname(os.path.dirname(palm.__file__))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(PERFBENCH)])),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    out = json.loads(done.stdout)
    calls = out["calls"]
    for key, spans in EXPECTED.items():
        empty = [name for name in spans if calls.get(key, {}).get(name, 0) < 1]
        assert empty == [], f"{key}: no call recorded in {empty}"
    for key in ("mapped-preprocessing", "confidential-mapped-preprocessing"):
        assert calls[key]["msh.records"] == 2 * out["records"], key  # D and Dpre
