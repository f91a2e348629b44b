"""Exception classes shared across the package.

Every error raised by odcast is a subclass of :class:`OdcastError`, so the
command line layer can report the class name as a one-line diagnostic and
exit with a nonzero status.
"""


class OdcastError(Exception):
    """Base class for all odcast domain errors."""


# -- event ingestion ---------------------------------------------------------

class MalformedRow(OdcastError):
    """A CSV row could not be parsed (reports the 1-based line number)."""

    def __init__(self, line: int, detail: str):
        super().__init__(f"line {line}: {detail}")
        self.line = line


class UnknownNode(OdcastError):
    """A node identifier did not resolve against the catalog."""


class NonMonotonicTimestamp(OdcastError):
    """An event timestamp decreased: named by its file line, or with ``line=None``
    (a stream built in memory) by its 0-based event index."""

    def __init__(self, line: int | None, timestamp: float, previous: float,
                 index: int | None = None):
        where = f"line {line}" if line is not None else f"event {index}"
        super().__init__(f"{where}: timestamp {timestamp} decreases below predecessor {previous}")
        self.line, self.index = line, index


# -- memory / model ----------------------------------------------------------

class TimeRegression(OdcastError):
    """An update was requested for a time before the last update."""


class DegenerateNormalizer(OdcastError):
    """A station normalizer b <= 0 was observed (unreachable by construction)."""


class DimensionMismatch(OdcastError):
    """Array dimensions are inconsistent with the configured model shapes."""


# -- autodiff ----------------------------------------------------------------

class ShapeError(OdcastError):
    """Operand shapes are invalid for the requested tape operation."""


class NotScalar(OdcastError):
    """backward() was called on a non-scalar value."""


class TapeReuse(OdcastError):
    """backward() was called twice on the same tape."""


class NonFiniteValue(OdcastError):
    """A NaN or Inf appeared in a forward value or gradient."""


# -- training / persistence --------------------------------------------------

class EmptyTrainSplit(OdcastError):
    """The configured training split contains no usable prediction windows."""


class IoError(OdcastError):
    """An input, checkpoint or export file could not be read or written."""


class VersionMismatch(OdcastError):
    """A checkpoint's format version or array shapes do not match expectations."""


class ChecksumMismatch(OdcastError):
    """A checkpoint payload failed its checksum (truncated or corrupted file)."""


# -- evaluation --------------------------------------------------------------

class LengthMismatch(OdcastError):
    """Prediction and truth sequences differ in length or shape."""


# -- cli ---------------------------------------------------------------------

class UsageError(OdcastError):
    """Invalid command line or config combination (exit code 2)."""
