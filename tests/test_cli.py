"""End-user command surface, driven in process through cli.main."""

import argparse
import base64
import json
import os

import pytest

from palm import cli
from palm.dataset import unpack_records
from palm.encoding import sha3_256
from palm.refstore import ReferenceStore
from palm.transport import serve_background

from reference import oracle_encode, oracle_msh

SEED = "cli-test-seed"


@pytest.fixture
def home(tmp_path, monkeypatch):
    path = tmp_path / "palmhome"
    monkeypatch.setenv("PALM_HOME", str(path))
    return path


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def provisioned(home, capsys):
    assert cli.main(["keygen", "--seed", SEED]) == 0
    capsys.readouterr()
    return home


@pytest.fixture
def staged_dataset(provisioned, tmp_path, capsys):
    lines = tmp_path / "lines.txt"
    lines.write_bytes(b"the cat sat\nthe dog ran\nthe cat ran\n")
    target = provisioned / "staging" / "corpus.palmds"
    assert cli.main(["ds", "pack", str(lines), str(target)]) == 0
    capsys.readouterr()
    return target


@pytest.fixture
def server(provisioned):
    ctx = cli._load_context(argparse.Namespace(home=None, staging=None))
    srv = serve_background(("127.0.0.1", 0), ctx)
    yield f"{srv.endpoint[0]}:{srv.endpoint[1]}"
    srv.shutdown()
    srv.server_close()


class TestKeygen:
    def test_creates_keys_and_store(self, home, capsys):
        code, _ = run(capsys, "keygen", "--seed", SEED)
        assert code == 0
        keys = json.loads((home / "keys.json").read_text())
        assert bytes.fromhex(keys["seed"]) == SEED.encode()
        store = ReferenceStore.load(home / "refstore.json")
        assert len(store.qe_pubkeys) == 1
        assert len(store.accepted_h_td) == 1

    def test_json_output_parses(self, home, capsys):
        code, out = run(capsys, "--json", "keygen", "--seed", SEED)
        assert code == 0
        doc = json.loads(out)
        assert doc["qe_key_id"].startswith("qe-")
        assert len(bytes.fromhex(doc["h_td"])) == 32


class TestDatasetCommands:
    def test_pack_then_unpack(self, staged_dataset):
        records = unpack_records(staged_dataset.read_bytes())
        assert records == (b"the cat sat", b"the dog ran", b"the cat ran")

    def test_plain_hash_matches_file_digest(self, staged_dataset, capsys):
        code, out = run(capsys, "ds", "hash", str(staged_dataset))
        assert code == 0
        assert out.strip() == sha3_256(staged_dataset.read_bytes()).hex()

    def test_msh_hash_matches_oracle(self, staged_dataset, capsys):
        code, out = run(capsys, "ds", "hash", str(staged_dataset), "--mode", "msh")
        assert code == 0
        records = unpack_records(staged_dataset.read_bytes())
        assert out.strip() == oracle_encode(*oracle_msh(records)).hex()

    def test_missing_file_is_usage_error(self, provisioned, capsys):
        code, _ = run(capsys, "ds", "hash", "no-such-file.palmds")
        assert code == 2


class TestRequestVerify:
    def test_round_trip_accepts(self, staged_dataset, server, tmp_path, capsys):
        bundle = tmp_path / "bundle.json"
        code, _ = run(
            capsys,
            "request", "--endpoint", server, "--op", "Preprocessing",
            "--dataset", "corpus.palmds", "--chal", "nonce:" + "11" * 32,
            "--out", str(bundle),
        )
        assert code == 0
        code, out = run(capsys, "--json", "verify", str(bundle))
        assert code == 0
        verdict = json.loads(out)
        assert verdict["result"] == "Accept"
        assert len(verdict["checks"]) == 8

    def test_tampered_bundle_rejects_with_exit_1(self, staged_dataset, server, tmp_path, capsys):
        bundle = tmp_path / "bundle.json"
        run(
            capsys,
            "request", "--endpoint", server, "--op", "Preprocessing",
            "--dataset", "corpus.palmds", "--chal", "nonce:" + "22" * 32,
            "--out", str(bundle),
        )
        doc = json.loads(bundle.read_text())
        quote = bytearray(base64.b64decode(doc["response"]["quote"]))
        quote[-1] ^= 0x01
        doc["response"]["quote"] = base64.b64encode(bytes(quote)).decode()
        bundle.write_text(json.dumps(doc))
        code, out = run(capsys, "--json", "verify", str(bundle))
        assert code == 1
        assert json.loads(out)["reason"] == "SignatureInvalid"

    def test_mapped_mode_and_stdout_bundle(self, staged_dataset, server, capsys):
        code, out = run(
            capsys,
            "request", "--endpoint", server, "--op", "AttributeDistribution",
            "--dataset", "corpus.palmds", "--mode", "mapped",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["request"]["mode"] == "mapped"
        assert "quote" in doc["response"]


class TestBindAndRefAdd:
    def test_bind_registers_binding(self, staged_dataset, capsys):
        code, _ = run(capsys, "bind", "--dataset", "corpus.palmds")
        assert code == 0
        store = ReferenceStore.load(os.environ["PALM_HOME"] + "/refstore.json")
        assert len(store.bindings) == 1
        plain, multiset = store.bindings[0]
        assert plain == sha3_256(staged_dataset.read_bytes())

    def test_ref_add_round_trips_through_store(self, provisioned, capsys):
        digest = sha3_256(b"anything").hex()
        code, _ = run(capsys, "ref", "add", "--op", "Evaluation", "--label", "h(metric)",
                      "--digest", digest)
        assert code == 0
        store = ReferenceStore.load(provisioned / "refstore.json")
        assert bytes.fromhex(digest) in store.refs_for("Evaluation", "h(metric)")


class TestAdversaryCommand:
    def test_single_scenario_defended_exits_1(self, capsys):
        code, out = run(capsys, "--json", "adversary", "ReplayQuote")
        assert code == 1
        doc = json.loads(out)
        assert doc["defended"] is True
        assert doc["verdict"]["reason"] == "StaleChallenge"

    def test_unknown_scenario_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["adversary", "NoSuchAttack"])
        assert exc.value.code == 2


class TestErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_request_without_server_exits_2(self, provisioned, capsys):
        code, _ = run(
            capsys,
            "request", "--endpoint", "127.0.0.1:1", "--op", "Preprocessing",
            "--dataset", "x.palmds",
        )
        assert code == 2

    def test_verify_without_keygen_exits_2(self, home, tmp_path, capsys):
        bundle = tmp_path / "b.json"
        bundle.write_text("{}")
        code, _ = run(capsys, "verify", str(bundle))
        assert code == 2


class TestOperationChoices:
    def test_ref_add_unknown_op_exits_2_and_leaves_store(self, provisioned, capsys):
        store = provisioned / "refstore.json"
        before = store.read_bytes()
        with pytest.raises(SystemExit) as exc:
            cli.main(["ref", "add", "--op", "Trainig", "--label", "h(Dtr)",
                      "--digest", sha3_256(b"x").hex()])
        assert exc.value.code == 2
        assert "invalid choice: 'Trainig'" in capsys.readouterr().err
        assert store.read_bytes() == before

    def test_request_unknown_op_exits_2(self, provisioned):
        with pytest.raises(SystemExit) as exc:
            cli.main(["request", "--endpoint", "127.0.0.1:1", "--op", "Distillation"])
        assert exc.value.code == 2
