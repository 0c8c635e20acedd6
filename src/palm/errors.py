"""Exception types shared across the palm package."""


class PalmError(Exception):
    """Base class for all palm-specific errors."""


class ParamsMismatch(PalmError):
    """A mapped epoch whose accumulator folded a different number of
    records than its dataset holds."""


class MshWorkerError(PalmError):
    """A multiset-hash worker process died or answered out of protocol."""


class FormatError(PalmError):
    """Malformed input: bad magic, truncated record, or an undecodable field."""


class IndexOutOfRange(PalmError):
    """Record index beyond the dataset's declared record count."""


class DuplicateAccess(PalmError):
    """A record was sampled twice within one exactly-once epoch."""


class IncompleteEpoch(PalmError):
    """An epoch was finalized before every record was sampled."""

    def __init__(self, missing_indices):
        self.missing_indices = sorted(missing_indices)
        shown = self.missing_indices[:16]
        suffix = ", ..." if len(self.missing_indices) > len(shown) else ""
        super().__init__(
            f"epoch incomplete: {len(self.missing_indices)} record(s) never sampled "
            f"(indices {shown}{suffix})"
        )


class UnknownOptimization(PalmError):
    """Optimization id not in the registered optimization family."""


class MissingDataset(PalmError):
    """An optimization that requires a dataset was invoked without one."""


class SchemaError(PalmError):
    """Request inputs do not satisfy the schema of the requested operation."""


class EmptyImage(PalmError):
    """Attempted to measure an empty trust-domain image manifest."""


class MacInvalid(PalmError):
    """Report MAC failed verification; the report was altered in transit."""


class SignatureInvalid(PalmError):
    """Quote or token signature failed verification."""


class MalformedQuote(PalmError):
    """Quote bytes could not be parsed into the canonical layout."""
