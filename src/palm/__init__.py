"""palm: measured ML-pipeline operations with verifiable attestation quotes.

The package simulates a trusted domain that executes small, deterministic
pipeline operations (dataset transforms, toy training and optimization,
evaluation, inference), measures their inputs and outputs (plain hashes
for data loaded whole, an incremental multiset hash for data sampled from
a memory mapping), and signs the evidence into quotes that a
non-interactive verifier checks against a trusted authority's reference
store.

Each public name is imported from its module when first read (PEP 562), so
importing one module of the package, as a multiset-hash worker does, loads
only what that module needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "attestation": "Challenge",
    "dataset": "InMemoryDataset MappedDataset finish_epoch load_in_memory pack_records "
               "unpack_records write_dataset",
    "errors": "DuplicateAccess IncompleteEpoch PalmError",
    "measurers": "GpuToken LabeledMeasurement MeasurementSet",
    "msh": "MshAccumulator MshDigest hash_record msh_of_records",
    "protocol": "AttestationRequest AttestationResponse TdContext Verdict Verifier "
                "build_request prover_handle",
    "refstore": "ReferenceStore",
    "toyops": "ToyModel ToyTokenizer TrainConfig",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
