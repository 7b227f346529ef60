"""Errors shared by the library and the command line."""


class ResourceLimitError(RuntimeError):
    """A configured or built-in resource cap was exceeded."""
