"""The exception type shared across the package."""


class SynthesisError(Exception):
    """Domain error: bad inputs or a broken contract."""
