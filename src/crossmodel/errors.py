"""Exception hierarchy shared across the package.

Errors are grouped by what the caller can do about them: configuration
problems, transport problems (retryable), capability gaps (the backend
cannot produce what was asked for), and degenerate inputs.
"""

from __future__ import annotations


class CrossModelError(Exception):
    """Base class for all package errors."""


class ConfigError(CrossModelError):
    """Invalid or inconsistent configuration (CLI exit code 2)."""


class TransportError(CrossModelError):
    """Network-level failure talking to a backend; retryable."""


class BackendError(CrossModelError):
    """Backend reached but refused or mangled the request (CLI exit code 3)."""


class CapabilityError(CrossModelError):
    """Backend cannot produce the requested quantity (no scoring, no
    entropy echo, yes/no tokens unresolvable)."""


class DegenerateInputError(CrossModelError):
    """Input is structurally empty: zero answer tokens, empty score list."""


class ExtractionError(CrossModelError):
    """No answer could be extracted from a raw generation."""


class DataError(CrossModelError):
    """Malformed dataset record or run artifact (CLI exit code 4)."""


class UndefinedMetricError(CrossModelError):
    """Metric is mathematically undefined for this input (single-class
    AUROC, constant-vector correlation, zero accuracy gap)."""


class CorruptEntryError(CrossModelError):
    """Stored cache entry failed its checksum; the entry was quarantined."""

