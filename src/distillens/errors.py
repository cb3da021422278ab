"""Exception types shared across the toolkit."""

from __future__ import annotations

__all__ = ["DistillensError", "FormatError", "ValidationError"]


class DistillensError(Exception):
    """Base class for data and domain errors raised by this package.

    The message starts with ``path: `` and ``line N: `` when those are given.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}: "
        if line is not None:
            prefix += f"line {line}: "
        super().__init__(prefix + message)


class FormatError(DistillensError):
    """Malformed input data, located by file path and line when known."""


class ValidationError(DistillensError):
    """Structurally valid data that violates a cross-input constraint."""
