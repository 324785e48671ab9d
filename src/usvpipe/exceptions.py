"""The error types whose names the pipeline uses.  Any other bad input is a
plain ValueError.  Each type here is a ValueError too: the first two pick a
skip reason, and the other three name a file's error:<type> row in a skip
report."""


class ClipTooShortError(ValueError):
    """Clip shorter than one analysis window."""


class EmptyVoicedSetError(ValueError):
    """Contour has no voiced frames, so voiced statistics are undefined."""


class MalformedWavError(ValueError):
    """WAV container unreadable, truncated, or carrying no audio."""


class UnsupportedFormatError(ValueError):
    """WAV encoding outside the mono PCM / IEEE-float contract."""


class ClipTooLongError(ValueError):
    """Clip exceeds the fixed padding duration."""
