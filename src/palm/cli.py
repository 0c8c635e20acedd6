"""Command-line surface tying the pieces into runnable workflows.

    palm keygen                 provision keys and a reference store
    palm serve                  run a prover endpoint over TCP
    palm request                send an attestation request, save the bundle
    palm verify                 check a saved request/response bundle
    palm bind                   attest and register a plain/multiset binding
    palm ref add                register a reference digest by hand
    palm adversary <scenario>   run one named attack (or "all") [exit 1 = stopped]
    palm ds pack|hash           build and digest dataset files

State lives under $PALM_HOME (default ~/.palm): keys.json holds the seed
the platform keys derive from, refstore.json is the trusted authority's
published store, and staging/ is the prover's untrusted input directory.
Exit codes: 0 success or Accept, 1 verification Reject, 2 usage or
operational error.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import secrets
import sys
import tempfile

from .adversary import SCENARIOS, adversary_run, build_clean_fixture, clean_run
from .attestation import H_MODULE, Challenge
from .dataset import write_dataset
from .encoding import hex_bytes, sha3_256
from .errors import PalmError, SchemaError
from .msh import msh_of_records
from .protocol import (
    MODES,
    OPS,
    AttestationRequest,
    AttestationResponse,
    TdContext,
    Verifier,
    build_request,
    prover_handle,
)
from .refstore import ReferenceStore
from .transport import AttestationServer, request_over_tcp

DEFAULT_IMAGE = b"palm-td-image/manifest-v1\nrole=prover\n"

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Operational failure surfaced to stderr with exit code 2."""


def _home(args) -> str:
    return args.home or os.environ.get("PALM_HOME") or os.path.expanduser("~/.palm")


def _keys_path(home: str) -> str:
    return os.path.join(home, "keys.json")


def _store_path(args, home: str) -> str:
    return getattr(args, "store", None) or os.path.join(home, "refstore.json")


def _staging_dir(args, home: str) -> str:
    staging = getattr(args, "staging", None) or os.path.join(home, "staging")
    os.makedirs(staging, exist_ok=True)
    return staging


def _load_context(args, with_gpu: bool = True) -> TdContext:
    home = _home(args)
    path = _keys_path(home)
    try:
        with open(path, "r", encoding="utf-8") as f:
            keys = json.load(f)
    except OSError as exc:
        raise CliError(f"no keys at {path} (run `palm keygen`): {exc}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        raise CliError(f"keys file {path} is not JSON: {exc}")
    try:
        image_bytes = base64.b64decode(keys["image_b64"], validate=True)
        seed = bytes.fromhex(keys["seed"])
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise CliError(f"keys file {path} needs a hex seed and a base64 image_b64: "
                       f"{type(exc).__name__}: {exc}")
    return TdContext.create(
        image_bytes=image_bytes,
        seed=seed,
        staging_dir=_staging_dir(args, home),
        with_gpu=with_gpu,
    )


def _load_store(args) -> tuple[ReferenceStore, str]:
    path = _store_path(args, _home(args))
    try:
        return ReferenceStore.load(path), path
    except OSError as exc:
        raise CliError(f"no reference store at {path} (run `palm keygen`): {exc}")


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not (sep and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise CliError(f"endpoint must be HOST:PORT with a port in 0..65535, got {text!r}")
    return host, int(port)


def _parse_chal(text: str) -> Challenge:
    if text == "timestamp":
        return Challenge.from_timestamp()
    if text == "nonce":
        return Challenge.from_nonce(secrets.token_bytes(32))
    if text.startswith("nonce:"):
        try:
            raw = hex_bytes(text[len("nonce:") :])
        except ValueError as exc:
            raise CliError(f"--chal nonce:<hex> needs lowercase hex: {exc}")
        return Challenge.from_nonce(raw)
    raise CliError(f"--chal must be timestamp, nonce, or nonce:<hex>, got {text!r}")


def _emit(args, doc: dict, human: str) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(human)


def _read_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        raise CliError(f"cannot read {path}: {exc}")


# --------------------------------------------------------------------------
# subcommands


def cmd_keygen(args) -> int:
    home = _home(args)
    os.makedirs(home, exist_ok=True)
    seed = args.seed.encode() if args.seed else secrets.token_bytes(32)
    ctx = TdContext.create(DEFAULT_IMAGE, seed, _staging_dir(args, home))
    with open(_keys_path(home), "w", encoding="utf-8") as f:
        json.dump(
            {"seed": seed.hex(), "image_b64": base64.b64encode(DEFAULT_IMAGE).decode()},
            f,
            indent=2,
        )
        f.write("\n")
    store = ReferenceStore()
    store.add_qe_key(ctx.qe_key_id, ctx.qe_key.public_key().public_bytes_raw())
    store.add_gpu_key(ctx.gpu_key_id(), ctx.gpu_key.public_key().public_bytes_raw())
    store.accept_td(ctx.h_td)
    store.accept_module(H_MODULE)
    store_path = _store_path(args, home)
    store.save(store_path)
    _emit(
        args,
        {
            "home": home,
            "qe_key_id": ctx.qe_key_id,
            "h_td": ctx.h_td.hex(),
            "h_module": H_MODULE.hex(),
            "store": store_path,
        },
        f"provisioned {home}\n  qe key {ctx.qe_key_id}\n  h_TD {ctx.h_td.hex()}\n  store {store_path}",
    )
    return EXIT_OK


def cmd_serve(args) -> int:
    ctx = _load_context(args, with_gpu=not args.no_gpu)
    server = AttestationServer(_parse_endpoint(args.endpoint), ctx)
    host, port = server.endpoint
    print(f"serving on {host}:{port} (staging {ctx.staging_dir})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def cmd_request(args) -> int:
    file_inputs = ("tokenizer", "model", "train_config", "adapter", "history")
    inputs: dict = {}
    for key in ("dataset", "arch", "id_opt", "query", "opt_dataset", *file_inputs):
        value = getattr(args, key)
        if value is not None:
            inputs[key] = _read_json_file(value) if key in file_inputs else value
    request = build_request(
        args.op,
        inputs,
        _parse_chal(args.chal),
        mode=args.mode,
        want_gpu=args.gpu,
        confidential=args.confidential,
    )
    response = request_over_tcp(_parse_endpoint(args.endpoint), request)
    bundle = {"request": request.to_json(), "response": response.to_json()}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            print(json.dumps(bundle, indent=2, sort_keys=True), file=f)
        _emit(args, {"out": args.out, "op": args.op}, f"response bundle written to {args.out}")
    else:
        print(json.dumps(bundle, indent=2, sort_keys=True))
    return EXIT_OK


def _verdict_exit(args, verdict, store=None, store_path=None) -> int:
    if store is not None and verdict.accepted:
        store.save(store_path)
    human = [f"{verdict.result}" + (f" ({verdict.reason})" if verdict.reason else "")]
    for check in verdict.checks:
        mark = "ok " if check.passed else "FAIL"
        human.append(f"  [{mark}] {check.name}: {check.detail}")
    _emit(args, verdict.to_json(), "\n".join(human))
    return EXIT_OK if verdict.accepted else EXIT_REJECT


def cmd_verify(args) -> int:
    bundle = _read_json_file(args.bundle)
    if not isinstance(bundle, dict):
        raise CliError("bad bundle: not a JSON object")
    try:
        request = AttestationRequest.from_json(bundle["request"])
        response = AttestationResponse.from_json(bundle["response"])
    except (KeyError, PalmError) as exc:
        raise CliError(f"bad bundle: {exc}")
    store, _ = _load_store(args)
    verdict = Verifier(store).verify(response, request)
    return _verdict_exit(args, verdict)


def cmd_bind(args) -> int:
    ctx = _load_context(args)
    request = build_request(
        "MeasurementBinding", {"dataset": args.dataset}, _parse_chal(args.chal)
    )
    response = prover_handle(request, ctx)
    store, store_path = _load_store(args)
    verdict = Verifier(store).register_binding(response, request)
    return _verdict_exit(args, verdict, store, store_path)


def cmd_ref_add(args) -> int:
    try:
        digest = hex_bytes(args.digest)
    except ValueError as exc:
        raise SchemaError(f"--digest: {exc}") from exc
    store, store_path = _load_store(args)
    store.add_property_ref(args.op, args.label, digest)
    store.save(store_path)
    _emit(
        args,
        {"op": args.op, "label": args.label, "digest": args.digest},
        f"registered {args.label} reference for {args.op}",
    )
    return EXIT_OK


def cmd_adversary(args) -> int:
    with tempfile.TemporaryDirectory(prefix="palm-adv-") as workdir:
        fixture = build_clean_fixture(workdir)
        if args.scenario == "all":
            rows = [adversary_run(scenario, fixture) for scenario in SCENARIOS]
            baseline = clean_run(fixture)
            doc = {
                "scenarios": [
                    {
                        "scenario": o.scenario,
                        "defended": o.defended,
                        "reason": o.verdict.reason if o.verdict else None,
                        "prover_error": o.prover_error,
                    }
                    for o in rows
                ],
                "clean": baseline.to_json(),
            }
            lines = [
                f"  {o.scenario:28s} "
                + (f"prover failed closed: {o.prover_error}" if o.prover_error else f"{o.verdict.result}({o.verdict.reason})")
                for o in rows
            ]
            lines.append(f"  {'(clean baseline)':28s} {baseline.result}")
            _emit(args, doc, "adversary sweep:\n" + "\n".join(lines))
            defended = all(o.defended for o in rows)
            return EXIT_OK if defended and baseline.accepted else EXIT_REJECT
        outcome = adversary_run(args.scenario, fixture)
        doc = {
            "scenario": outcome.scenario,
            "defended": outcome.defended,
            "prover_error": outcome.prover_error,
            "verdict": outcome.verdict.to_json() if outcome.verdict else None,
            "note": outcome.note,
        }
        if outcome.prover_error:
            human = f"{outcome.scenario}: prover failed closed with {outcome.prover_error}"
        else:
            human = f"{outcome.scenario}: {outcome.verdict.result}({outcome.verdict.reason})"
        _emit(args, doc, human)
        return EXIT_REJECT if outcome.defended else EXIT_OK


def cmd_ds_pack(args) -> int:
    try:
        with open(args.input, "rb") as f:
            records = [line.rstrip(b"\r\n") for line in f if line.strip()]
    except OSError as exc:
        raise CliError(f"cannot read {args.input}: {exc}")
    write_dataset(args.output, records)
    _emit(
        args,
        {"output": args.output, "records": len(records)},
        f"packed {len(records)} record(s) into {args.output}",
    )
    return EXIT_OK


def cmd_ds_hash(args) -> int:
    try:
        with open(args.file, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.file}: {exc}")
    if args.mode == "plain":
        digest = sha3_256(data).hex()
    else:
        from .dataset import unpack_records

        digest = msh_of_records(unpack_records(data)).hex()
    _emit(args, {"file": args.file, "mode": args.mode, "digest": digest}, digest)
    return EXIT_OK


# --------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palm",
        description="Measured ML-pipeline operations with verifiable attestation quotes.",
    )
    parser.add_argument("--home", help="state directory (default $PALM_HOME or ~/.palm)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="provision platform keys and a reference store")
    p.add_argument("--seed", help="derive keys from this string (default: random)")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("serve", help="run a prover endpoint")
    p.add_argument("--endpoint", default="127.0.0.1:7915")
    p.add_argument("--staging", help="directory of staged input files")
    p.add_argument("--no-gpu", action="store_true", help="simulate a host without an attesting GPU")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("request", help="send an attestation request over TCP")
    p.add_argument("--endpoint", default="127.0.0.1:7915")
    p.add_argument("--op", required=True, choices=tuple(OPS), help="operation name")
    p.add_argument("--chal", default="timestamp", help="timestamp | nonce | nonce:<hex>")
    p.add_argument("--mode", choices=MODES, default="inmem")
    p.add_argument("--gpu", action="store_true", help="require GPU evidence")
    p.add_argument("--confidential", action="store_true", help="withhold output payloads")
    p.add_argument("--dataset", help="staged dataset file name")
    p.add_argument("--opt-dataset", dest="opt_dataset", help="staged optimization dataset name")
    p.add_argument("--arch", help="model kind for Training (unigram|bigram)")
    p.add_argument("--id-opt", dest="id_opt", help="optimization id (finetune|quantize|prune)")
    p.add_argument("--query", help="inference query text")
    p.add_argument("--tokenizer", help="tokenizer JSON file")
    p.add_argument("--model", help="model JSON file")
    p.add_argument("--train-config", dest="train_config", help="train config JSON file")
    p.add_argument("--adapter", help="adapter model JSON file")
    p.add_argument("--history", help="session history JSON file (list of [q, r])")
    p.add_argument("--out", help="write the request/response bundle here")
    p.set_defaults(func=cmd_request)

    p = sub.add_parser("verify", help="verify a saved request/response bundle")
    p.add_argument("bundle", help="bundle file from `palm request --out`")
    p.add_argument("--store", help="reference store path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bind", help="attest h(D)/MSH(D) for a dataset and register it")
    p.add_argument("--dataset", required=True, help="staged dataset file name")
    p.add_argument("--chal", default="timestamp")
    p.add_argument("--staging", help="directory of staged input files")
    p.add_argument("--store", help="reference store path")
    p.set_defaults(func=cmd_bind)

    p = sub.add_parser("ref", help="reference store edits")
    ref_sub = p.add_subparsers(dest="ref_command", required=True)
    q = ref_sub.add_parser("add", help="register an accepted digest for (op, label)")
    q.add_argument("--op", required=True, choices=tuple(OPS))
    q.add_argument("--label", required=True)
    q.add_argument("--digest", required=True, help="hex digest or multiset encoding")
    q.add_argument("--store", help="reference store path")
    q.set_defaults(func=cmd_ref_add)

    p = sub.add_parser("adversary", help="run a named attack against a clean fixture")
    p.add_argument("scenario", choices=SCENARIOS + ("all",))
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("ds", help="dataset file utilities")
    ds_sub = p.add_subparsers(dest="ds_command", required=True)
    q = ds_sub.add_parser("pack", help="pack text lines into a dataset file")
    q.add_argument("input", help="text file, one record per line")
    q.add_argument("output", help="dataset file to write")
    q.set_defaults(func=cmd_ds_pack)
    q = ds_sub.add_parser("hash", help="digest a dataset file")
    q.add_argument("file")
    q.add_argument("--mode", choices=("plain", "msh"), default="plain")
    q.set_defaults(func=cmd_ds_hash)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PalmError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
