"""Exception types shared across the library.

The CLI maps these onto exit codes: FormatError (and missing files) mean a
broken or unreadable input, such as a malformed file or an out-of-range
option, DataError means the inputs are readable but semantically unusable
(mismatched dimensions, degenerate training sets, ...), and BuildError
means the package's native C kernel could not be compiled or loaded.
"""


class FormatError(Exception):
    """A file does not conform to its declared format.

    ``offset`` is the byte position at which parsing failed, when known;
    ``reason`` is the message without it.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.reason = message
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class DataError(Exception):
    """Inputs are well-formed but semantically invalid for the operation."""


class BuildError(Exception):
    """The package's native C kernel could not be compiled or loaded."""
