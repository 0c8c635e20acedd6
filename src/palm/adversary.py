"""Fault-injection harness: named attacks against an otherwise clean run.

Each scenario replays the same measured-training pipeline with exactly one
fault injected at the layer the attack controls: the untrusted storage the
dataset lives on, the untrusted hop between report creation and quoting,
the response in transit, or the platform's launched image. The expected
outcome is always a verifier rejection with a specific reason, or the
prover refusing to produce a quote at all (fail closed).

Storage-level notes: a repeated record is modeled by substituting one
record's bytes with another's before the epoch (the multiset then truly
contains a duplicate member); in-domain double sampling is foreclosed by
the access map and exercised separately. A skipped record is modeled
by a consumer that believes the dataset one record shorter than the scan
found, which the epoch-completeness gate catches at finalization.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

from .attestation import (
    H_MODULE,
    Challenge,
    Quote,
    ReportData,
    TdReport,
    derive_private_key,
)
from .dataset import MappedDataset, tamper_record, write_dataset
from .encoding import sha3_256
from .errors import PalmError
from .msh import MshPool, msh_of_records
from .protocol import (
    AttestationRequest,
    AttestationResponse,
    TdContext,
    Verdict,
    Verifier,
    build_request,
    prover_handle,
)
from .refstore import ReferenceStore
from .toyops import ToyTokenizer, TrainConfig

SCENARIOS = (
    "TamperInputPreLoad",
    "TamperMappedRecordMidEpoch",
    "RepeatRecord",
    "SkipRecord",
    "ForgeTdReport",
    "ForgeQuote",
    "ReplayQuote",
    "SwapTdImage",
    "StripGpuToken",
)

_CORPUS = [
    b"the quick brown fox jumps over the lazy dog",
    b"pack my box with five dozen liquor jugs",
    b"how vexingly quick daft zebras jump",
    b"sphinx of black quartz judge my vow",
    b"the five boxing wizards jump quickly",
    b"jackdaws love my big sphinx of quartz",
]


@dataclass
class CleanFixture:
    """A working deployment: staged dataset, provisioned trust domain with a
    GPU, and a reference store that accepts exactly this configuration."""

    workdir: str
    seed: bytes
    image_bytes: bytes
    records: tuple[bytes, ...]
    tokenizer: ToyTokenizer
    config: TrainConfig
    refstore: ReferenceStore
    dataset_name: str = "train.palmds"

    @property
    def dataset_path(self) -> str:
        return os.path.join(self.workdir, self.dataset_name)

    def reset_dataset(self) -> None:
        write_dataset(self.dataset_path, self.records)

    def make_context(self, with_gpu: bool = True, image_bytes: Optional[bytes] = None) -> TdContext:
        return TdContext.create(
            image_bytes=self.image_bytes if image_bytes is None else image_bytes,
            seed=self.seed,
            staging_dir=self.workdir,
            with_gpu=with_gpu,
        )

    def make_request(self, tag: str) -> AttestationRequest:
        nonce = sha3_256(b"nonce:" + self.seed + tag.encode())
        return build_request(
            "Training",
            {
                "arch": "bigram",
                "dataset": self.dataset_name,
                "train_config": self.config.to_json(),
                "tokenizer": self.tokenizer.to_json(),
            },
            Challenge.from_nonce(nonce),
            mode="mapped",
            want_gpu=True,
        )


def build_clean_fixture(workdir: str, seed: bytes = b"palm-fixture-7") -> CleanFixture:
    records = tuple((_CORPUS * 4)[i] + b" #%d" % i for i in range(24))
    tokenizer = ToyTokenizer.build(records)
    config = TrainConfig(seed=11, epochs=2, sampling="shuffled")
    fixture = CleanFixture(
        workdir=workdir,
        seed=seed,
        image_bytes=b"palm-td-image/manifest-v1\nrole=prover\n",
        records=records,
        tokenizer=tokenizer,
        config=config,
        refstore=ReferenceStore(),
    )
    fixture.reset_dataset()

    ctx = fixture.make_context()
    store = fixture.refstore
    store.add_qe_key(ctx.qe_key_id, ctx.qe_key.public_key().public_bytes_raw())
    store.add_gpu_key(ctx.gpu_key_id(), ctx.gpu_key.public_key().public_bytes_raw())
    store.accept_td(ctx.h_td)
    store.accept_module(H_MODULE)
    store.add_property_ref("Training", "MSH(Dtr)", msh_of_records(records).encode())
    return fixture


@dataclass(frozen=True)
class AdversaryOutcome:
    scenario: str
    verdict: Optional[Verdict]  # None when the prover failed closed
    prover_error: Optional[str]  # exception class name on fail-closed paths
    note: str = ""

    @property
    def defended(self) -> bool:
        """The attack was stopped: rejected by the verifier or dead at the prover."""
        if self.prover_error is not None:
            return True
        return self.verdict is not None and not self.verdict.accepted


class _MidEpochTamperDataset(MappedDataset):
    """Rewrites a later record on disk after a set number of records were
    sampled, modeling storage that mutates underneath an in-progress epoch.
    A run that holds the trigger is read as two runs, split there."""

    def __init__(self, path: str, pool: Optional[MshPool], trigger_after: int,
                 target_index: int):
        super().__init__(path, pool)
        self._remaining = trigger_after
        self._target = target_index

    def sample_run(self, start, stop):
        if 0 <= self._remaining < stop - start:
            split = start + self._remaining
            head = super().sample_run(start, split)
            self._remaining = -1
            offset, length = self._spans[self._target]
            tamper_record(self.path, self._target, b"X" * length)
            return head + super().sample_run(split, stop)
        if self._remaining > 0:
            self._remaining -= stop - start
        return super().sample_run(start, stop)


class _ShortEpochDataset(MappedDataset):
    """Advertises one record fewer than the file holds; the final record is
    never sampled and finalization must refuse the incomplete epoch."""

    def __len__(self):
        return max(0, len(self._spans) - 1)


def _flip_report_byte(report: TdReport) -> TdReport:
    raw = bytearray(report.report_data.raw64)
    raw[0] ^= 0x01
    return TdReport(report.h_td, report.h_module, ReportData(bytes(raw)), report.mac)


def _resign_quote(response: AttestationResponse, seed: bytes) -> AttestationResponse:
    """Re-sign the quote body under a key the authority never registered,
    keeping the claimed key id: a forgery without the real signing key."""
    quote = Quote.decode(response.quote)
    rogue = derive_private_key(b"rogue:" + seed)
    forged = Quote(
        quote.h_td,
        quote.h_module,
        quote.report_data,
        quote.qe_key_id,
        rogue.sign(quote.signed_body()),
    )
    return replace(response, quote=forged.encode())


def adversary_run(scenario: str, fixture: CleanFixture) -> AdversaryOutcome:
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    fixture.reset_dataset()
    verifier = Verifier(fixture.refstore)
    request = fixture.make_request(scenario)
    ctx = fixture.make_context()

    if scenario == "TamperInputPreLoad":
        tamper_record(fixture.dataset_path, 0, b"poisoned record content")
    elif scenario == "RepeatRecord":
        # Serve record 1's bytes at index 3 as well: a true multiset duplicate.
        tamper_record(fixture.dataset_path, 3, fixture.records[1])
    elif scenario == "TamperMappedRecordMidEpoch":
        last = len(fixture.records) - 1
        ctx.mapped_opener = lambda path, pool: _MidEpochTamperDataset(path, pool, 4, last)
    elif scenario == "SkipRecord":
        ctx.mapped_opener = _ShortEpochDataset
    elif scenario == "ForgeTdReport":
        ctx.report_hook = _flip_report_byte
    elif scenario == "SwapTdImage":
        ctx = fixture.make_context(image_bytes=b"palm-td-image/manifest-v1\nrole=prover\nbackdoor=1\n")
    elif scenario == "StripGpuToken":
        ctx = fixture.make_context(with_gpu=False)

    try:
        response = prover_handle(request, ctx)
    except PalmError as exc:
        return AdversaryOutcome(scenario, None, type(exc).__name__, str(exc))

    if scenario == "ForgeQuote":
        response = _resign_quote(response, fixture.seed)
    if scenario == "ReplayQuote":
        first = verifier.verify(response, request)
        second = verifier.verify(response, request)
        return AdversaryOutcome(
            scenario, second, None, f"first presentation: {first.result}"
        )

    return AdversaryOutcome(scenario, verifier.verify(response, request), None)


def clean_run(fixture: CleanFixture) -> Verdict:
    """The untampered pipeline; the baseline every scenario perturbs."""
    fixture.reset_dataset()
    verifier = Verifier(fixture.refstore)
    request = fixture.make_request("clean")
    response = prover_handle(request, fixture.make_context())
    return verifier.verify(response, request)
