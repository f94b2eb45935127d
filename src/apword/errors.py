"""Shared exception types."""


class ParseError(ValueError):
    """Malformed substitution source text."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


class SubstitutionError(ValueError):
    """Invalid substitution data, or an operation applied outside its domain."""


class ResourceCapError(RuntimeError):
    """A scan or expansion would exceed the configured resource cap."""
