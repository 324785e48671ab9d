"""Exception types shared across the pipeline stages."""


class PipelineError(Exception):
    """Base class for all pipeline-specific errors."""


class MalformedWavError(PipelineError):
    """WAV container unreadable, truncated, or carrying no audio."""


class UnsupportedFormatError(PipelineError):
    """WAV encoding outside the mono PCM / IEEE-float contract."""


class ClipTooLongError(PipelineError):
    """Clip exceeds the fixed padding duration."""


class ClipTooShortError(PipelineError):
    """Clip shorter than one analysis window."""


class EmptyVoicedSetError(PipelineError):
    """Contour has no voiced frames, so voiced statistics are undefined."""


class SchemaMismatchError(PipelineError):
    """Annotation file lacks a column required by the schema."""


class AnnotationParseError(PipelineError):
    """A row of the annotation table could not be parsed."""


class TooFewEmittersError(PipelineError):
    """Fewer distinct emitters than folds."""


class SingleClassDataError(PipelineError):
    """Binary training set contains only one class."""


class EmptyPredictionsError(PipelineError):
    """Metric requested on an empty prediction set."""


class SpecOutOfRangeError(PipelineError):
    """Synthesis parameters outside the representable range."""
