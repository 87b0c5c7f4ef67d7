"""Exception types shared across the package."""


class SynthesisError(Exception):
    """Base class for domain errors (bad inputs, contract violations)."""


class SchemaError(SynthesisError):
    """Schema is malformed or inconsistent with the data it describes."""

