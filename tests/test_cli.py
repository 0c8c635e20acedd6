"""End-user command surface, driven in process through cli.main."""

import argparse
import base64
import json
import os

import pytest

from palm import cli
from palm.dataset import unpack_records
from palm.encoding import sha3_256
from palm.errors import SchemaError
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


def _relabelled(char):
    """The bundle with the first byte of its set's first label made `char`
    (after the op code, the H_I count and the label's length)."""
    def hostile(doc):
        raw = bytearray(base64.b64decode(doc["response"]["measurement_set"]))
        raw[1 + 4 + 4] = ord(char)
        doc["response"]["measurement_set"] = base64.b64encode(raw).decode("ascii")
        return doc
    return hostile


# A bundle file `palm verify` must refuse with exit 2: each turns a clean
# bundle into a hostile one.
HOSTILE_BUNDLES = [
    *(pytest.param(_relabelled(char), "is not ASCII text", id=repr(char))
      for char in ("é", "\x80")),
    *(pytest.param(lambda doc, value=value: value, "bad bundle", id=repr(value))
      for value in ([], "x")),
]


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

    @pytest.mark.parametrize("hostile, error", HOSTILE_BUNDLES)
    def test_hostile_label_exits_2(self, staged_dataset, server, tmp_path, capsys, hostile,
                                   error):
        bundle = tmp_path / "bundle.json"
        run(
            capsys,
            "request", "--endpoint", server, "--op", "Preprocessing",
            "--dataset", "corpus.palmds", "--chal", "nonce:" + "33" * 32,
            "--out", str(bundle),
        )
        bundle.write_text(json.dumps(hostile(json.loads(bundle.read_text()))))
        code = cli.main(["verify", str(bundle)])
        assert code == 2
        assert error in capsys.readouterr().err

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

    def test_request_with_non_hex_nonce_exits_2(self, provisioned, capsys):
        assert cli.main(["request", "--endpoint", "127.0.0.1:1", "--op", "Preprocessing",
                         "--dataset", "x.palmds", "--chal", "nonce:zz"]) == 2
        assert capsys.readouterr().err.startswith("error: --chal nonce:<hex> ")

    @pytest.mark.parametrize("command", ["request", "serve"])
    @pytest.mark.parametrize("endpoint", ["127.0.0.1:abc", "127.0.0.1:70000", "127.0.0.1:-1",
                                          "127.0.0.1:", "127.0.0.1"])
    def test_endpoint_without_a_port_in_range_exits_2(self, provisioned, capsys, command,
                                                      endpoint):
        """getaddrinfo would take port 70000 as 4464, and bind would raise
        OverflowError; neither is reached."""
        argv = [command, "--endpoint", endpoint]
        if command == "request":
            argv += ["--op", "Preprocessing", "--dataset", "x.palmds"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: endpoint must be HOST:PORT ")

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


def _spaced(text: str) -> str:
    return " ".join(text[i:i + 2] for i in range(0, len(text), 2)).upper()


class TestCanonicalHex:
    """A digest has one spelling, lowercase hex with no separators, in the
    reference store and on the command line; any other is refused, exit 2."""

    @pytest.mark.parametrize("digest", ["AB CD", "ABCD", "ab cd", "zz", "abc"])
    def test_ref_add_refuses_other_spellings(self, provisioned, capsys, digest):
        store = provisioned / "refstore.json"
        before = store.read_bytes()
        assert cli.main(["ref", "add", "--op", "Evaluation", "--label", "h(metric)",
                         "--digest", digest]) == 2
        assert capsys.readouterr().err.startswith("error: SchemaError: --digest: ")
        assert store.read_bytes() == before

    @pytest.mark.parametrize("field", ["accepted_h_td", "property_refs"])
    def test_store_with_spaced_upper_hex_is_refused(self, provisioned, capsys, field):
        path = provisioned / "refstore.json"
        doc = json.loads(path.read_text())
        if field == "accepted_h_td":
            doc[field] = [_spaced(h) for h in doc[field]]
        else:
            doc[field] = {"Evaluation": {"h(metric)": [_spaced(sha3_256(b"m").hex())]}}
        with pytest.raises(SchemaError, match="not canonical"):
            ReferenceStore.from_json(doc)
        path.write_text(json.dumps(doc))
        assert cli.main(["ref", "add", "--op", "Evaluation", "--label", "h(metric)",
                         "--digest", sha3_256(b"x").hex()]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SchemaError: bad reference store document: ")
        assert "not canonical" in err

    @pytest.mark.parametrize("content", [b"{bad", b"\xff\xfe"], ids=["not-json", "not-utf8"])
    def test_store_that_is_not_json_exits_2(self, provisioned, capsys, content):
        (provisioned / "refstore.json").write_bytes(content)
        assert cli.main(["ref", "add", "--op", "Evaluation", "--label", "h(metric)",
                         "--digest", sha3_256(b"x").hex()]) == 2
        assert "error: SchemaError: reference store " in capsys.readouterr().err


class TestStoreSave:
    def test_failed_replace_keeps_the_old_store(self, provisioned, monkeypatch):
        path = provisioned / "refstore.json"
        before, listing = path.read_bytes(), sorted(os.listdir(provisioned))
        store = ReferenceStore.load(path)
        store.add_property_ref("Training", "h(T)", b"\x00")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            store.save(path)
        assert path.read_bytes() == before
        assert sorted(os.listdir(provisioned)) == listing
        assert ReferenceStore.load(path).to_json() == json.loads(before)

    def test_save_round_trips(self, provisioned):
        path = provisioned / "refstore.json"
        listing = sorted(os.listdir(provisioned))
        store = ReferenceStore.load(path)
        store.add_property_ref("Training", "h(T)", b"\x00")
        store.save(path)
        assert ReferenceStore.load(path) == store
        assert sorted(os.listdir(provisioned)) == listing


class TestMalformedFiles:
    """A reference store or keys file of the wrong shape is refused with
    exit 2 and a message, never a traceback."""

    @pytest.mark.parametrize("field,value", [
        ("qe_pubkeys", []),
        ("gpu_pubkeys", "gpu-0"),
        ("property_refs", []),
        ("property_refs", {"Training": ["00"]}),
    ], ids=["qe-list", "gpu-string", "refs-list", "labels-list"])
    def test_store_section_that_is_not_an_object_exits_2(self, provisioned, capsys, field, value):
        self._refused(provisioned, capsys, {field: value}, "expected an object")

    @pytest.mark.parametrize("edit,refused", [
        ({"accepted_h_td": {"ab": 1}}, "expected an array"),
        ({"accepted_h_module": {"ab": 1}}, "expected an array"),
        ({"property_refs": {"Training": {"h(T)": {"00": 1}}}}, "expected an array"),
        ({"bindings": {"plain": "00", "msh": "00"}}, "expected an array"),
        ({"extra": 5}, r"reference store has keys it is not read for: \['extra'\]"),
        ({"bindings": [{"plain": "00", "msh": "00", "x": 1}]},
         r"binding has keys it is not read for: \['x'\]"),
    ], ids=["td-object", "module-object", "digests-object", "bindings-object", "extra-key",
            "binding-extra-key"])
    def test_store_of_another_encoding_exits_2(self, provisioned, capsys, edit, refused):
        """A store document has one encoding: arrays are arrays, and every
        key is one a field is read from."""
        self._refused(provisioned, capsys, edit, refused)

    @staticmethod
    def _refused(home, capsys, edit, refused):
        path = home / "refstore.json"
        doc = {**json.loads(path.read_text()), **edit}
        with pytest.raises(SchemaError, match=refused):
            ReferenceStore.from_json(doc)
        path.write_text(json.dumps(doc))
        before = path.read_bytes()
        assert cli.main(["ref", "add", "--op", "Training", "--label", "h(T)",
                         "--digest", "00"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: SchemaError: bad reference store document: ")
        assert path.read_bytes() == before

    @pytest.mark.parametrize("edit", [
        lambda keys: "{not json",
        lambda keys: json.dumps({k: v for k, v in keys.items() if k != "seed"}),
        lambda keys: json.dumps({k: v for k, v in keys.items() if k != "image_b64"}),
        lambda keys: json.dumps({**keys, "seed": "not hex"}),
        lambda keys: json.dumps({**keys, "image_b64": "not base64!"}),
    ], ids=["not-json", "no-seed", "no-image", "seed-not-hex", "image-not-base64"])
    @pytest.mark.parametrize("command", [["serve", "--endpoint", "127.0.0.1:0"],
                                         ["bind", "--dataset", "corpus.palmds"]],
                             ids=["serve", "bind"])
    def test_malformed_keys_file_exits_2(self, provisioned, capsys, edit, command):
        path = provisioned / "keys.json"
        path.write_text(edit(json.loads(path.read_text())))
        assert cli.main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: keys file {path} ")
