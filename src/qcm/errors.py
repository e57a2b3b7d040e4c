"""Exception hierarchy shared by all qcm modules.

Every failure caused by bad input data raises a subclass of ``QcmError``,
so callers (and the CLI) can distinguish validation problems from plain
I/O errors or programming mistakes.
"""

from __future__ import annotations


class QcmError(Exception):
    """Base class for all toolkit errors."""


class DataValidationError(QcmError):
    """A value or row violates a documented invariant."""


class SchemaError(QcmError):
    """A document's structure does not match the expected schema."""


class IncompleteRecordError(QcmError):
    """A record lacks a field required by the requested analysis."""

    def __init__(self, field: str, message: str | None = None):
        self.field = field
        super().__init__(message or f"missing required field {field!r}")


class InsufficientDataError(QcmError):
    """Too few observations for the requested statistic."""
