"""Exception and warning types shared across the package."""


class KdlabError(Exception):
    """Base class for every package-specific error."""


# numerics
class ZeroVector(KdlabError):
    """A vector with near-zero Euclidean norm where a direction is required."""


class DimensionMismatch(KdlabError):
    """Operands have incompatible shapes or lengths."""


class NonPositiveTemperature(KdlabError):
    """Softmax temperature must be strictly positive."""


class NotADistribution(KdlabError):
    """A row fails the probability-distribution invariants."""


class NonFiniteInput(KdlabError):
    """An input contains NaN or infinite entries."""


# encoder
class ShapeMismatch(KdlabError):
    """Array shapes inconsistent with the encoder configuration."""


# contrastive
class LabelOutOfRange(KdlabError):
    """A label does not index a row of the candidate feature matrix."""


class EmptyBank(KdlabError):
    """Classification requested against an empty class bank."""


# distillation loss assembly
class InvalidSimplex(KdlabError):
    """Weights are not a valid point on the probability simplex."""


class NonPositiveRatio(KdlabError):
    """Loss component ratios must be strictly positive."""


# weighting solvers
class EmptyGradientSet(KdlabError):
    """A gradient set with zero teachers cannot be solved."""


# data / file formats
class InvalidSpec(KdlabError):
    """A synthetic dataset specification violates its invariants; ``field``
    names the spec field at fault, where one is."""

    def __init__(self, why: str, field: str | None = None):
        super().__init__(why if field is None else f"{field} {why}")
        self.field = field
        self.why = why


class FormatVersionMismatch(KdlabError):
    """A file does not carry the expected magic bytes or version, or its
    header does not match the format or its body."""


class ChecksumMismatch(KdlabError):
    """File content does not match its trailing checksum (truncated or corrupt)."""


# trainer
class StrategyTeacherMismatch(KdlabError):
    """A distilling strategy was requested with zero teachers."""


class InvalidConfig(KdlabError, ValueError):
    """A configuration field holds a value the library cannot run."""

    def __init__(self, field: str, why: str):
        super().__init__(f"{field} {why}")
        self.field = field
        self.why = why

    def __reduce__(self):
        # A run's error travels back from a worker process by pickle.
        return type(self), (self.field, self.why)


class PretrainBelowGate(UserWarning):
    """A pretrained teacher missed the accuracy gate."""


# cli
class ConfigParseError(KdlabError):
    """An experiment manifest failed schema or invariant validation."""


class DataError(KdlabError):
    """A dataset file is missing, unreadable, or invalid."""


class NumericError(KdlabError):
    """A numeric failure occurred while executing a run."""


class InternalError(KdlabError):
    """A run failed with an exception kdlab does not declare: a bug in the
    program, not a property of the inputs."""


class NoRunsFound(KdlabError):
    """A report was requested on a directory without completed runs."""
