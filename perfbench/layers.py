"""Per-layer metrics of a traced run, derived from per-request span totals.

Each metric is a median over the timed requests of a per-request value,
except the `_us` metrics, which are self time per call over all timed
requests, and the set-up metrics, which are medians over a run's set-ups.
A layer that does no work on a workload reads 0.
"""

from __future__ import annotations

import statistics

CALLS, TOTAL, SELF = 0, 1, 2

# metric -> (unit, span or counter name, what is taken per request)
SPAN_METRICS = {
    "msh.insert_us": ("us/call", "msh.insert", "self_per_call"),
    "msh.records": ("count", "msh.records", "counter"),
    "msh.of_records_ms": ("ms", "msh.of_records", "total"),
    "dataset.open_ms": ("ms", "dataset.open", "total"),
    "dataset.sample_us": ("us/call", "dataset.sample", "self_per_call"),
    "dataset.finish_epoch_ms": ("ms", "dataset.finish_epoch", "total"),
    "dataset.load_ms": ("ms", "dataset.load", "total"),
    "dataset.bytes_read": ("bytes", "dataset.bytes_read", "counter"),
    "toyops.preproc_ms": ("ms", "toyops.preproc", "total"),
    "toyops.train_ms": ("ms", "toyops.train", "total"),
    "toyops.infer_ms": ("ms", "toyops.infer", "total"),
    "toyops.model_decode_ms": ("ms", "toyops.model_decode", "total"),
    "toyops.tokenizer_decode_ms": ("ms", "toyops.tokenizer_decode", "total"),
    "toyops.model_serialize_ms": ("ms", "toyops.model_serialize", "total"),
    "toyops.model_serialize_calls": ("count", "toyops.model_serialize", "calls"),
    "toyops.tokenizer_serialize_ms": ("ms", "toyops.tokenizer_serialize", "total"),
    "measurers.self_ms": ("ms", "measurers.measure", "self"),
    "attestation.quote_ms": ("ms", "attestation.quote", "total"),
    "protocol.prove_ms": ("ms", "protocol.prove", "total"),
    "protocol.response_encode_ms": ("ms", "protocol.response_encode", "total"),
    "protocol.response_decode_ms": ("ms", "protocol.response_decode", "total"),
    "transport.recv_ms": ("ms", "transport.recv", "total"),
    "transport.send_ms": ("ms", "transport.send", "total"),
}
SIZE_METRICS = ("transport.request_kb", "transport.response_kb")
SETUP_METRICS = ("setup.dataset_write_ms", "setup.server_start_ms", "setup.binding_ms")
UNITS = {
    **{name: unit for name, (unit, _, _) in SPAN_METRICS.items()},
    "transport.request_kb": "KiB",
    "transport.response_kb": "KiB",
    "transport.overhead_ms": "ms",
    **{name: "ms" for name in SETUP_METRICS},
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(
    prover: dict, client: dict, timed: list[str], sizes: dict, setup_times: dict
) -> dict:
    """prover/client: request key -> {span name: [calls, total ns, self ns]}."""
    spans = {key: {**prover.get(key, {}), **client.get(key, {})} for key in timed}
    values: dict[str, float] = {}
    for metric, (_, name, take) in SPAN_METRICS.items():
        rows = [spans[key].get(name, [0, 0.0, 0.0]) for key in timed]
        if take == "self_per_call":
            calls = sum(row[CALLS] for row in rows)
            values[metric] = sum(row[SELF] for row in rows) / calls / 1e3 if calls else 0.0
        elif take in ("counter", "calls"):
            values[metric] = _median([row[CALLS] for row in rows])
        else:
            field = SELF if take == "self" else TOTAL
            values[metric] = _median([row[field] / 1e6 for row in rows])
    for metric in SIZE_METRICS:
        values[metric] = _median(sizes[metric])
    values["transport.overhead_ms"] = _median(
        [
            (spans[key].get("transport.request_over_tcp", [0, 0.0])[TOTAL]
             - spans[key].get("protocol.prove", [0, 0.0])[TOTAL]) / 1e6
            for key in timed
        ]
    )
    for metric in SETUP_METRICS:
        values[metric] = _median(setup_times[metric])
    return {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
