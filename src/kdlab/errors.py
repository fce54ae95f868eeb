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


class TapeReused(KdlabError):
    """A forward tape was consumed by more than one backward pass."""


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


class TooManyTeachers(KdlabError):
    """Brute-force simplex enumeration is capped at four teachers."""


# data / file formats
class InvalidSpec(KdlabError):
    """A synthetic dataset specification violates its invariants."""


class FormatVersionMismatch(KdlabError):
    """A file does not carry the expected magic bytes or version."""


class ChecksumMismatch(KdlabError):
    """File content does not match its trailing checksum (truncated or corrupt)."""


# trainer
class StrategyTeacherMismatch(KdlabError):
    """A distilling strategy was requested with zero teachers."""


class InvalidConfig(KdlabError, ValueError):
    """A training configuration field holds a value the trainer cannot run."""

    def __init__(self, field: str, why: str):
        super().__init__(f"{field} {why}")
        self.field = field
        self.why = why


class PretrainBelowGate(UserWarning):
    """A pretrained teacher missed the accuracy gate."""


# cli
class ConfigParseError(KdlabError):
    """An experiment manifest failed schema or invariant validation."""


class DataError(KdlabError):
    """A dataset file is missing, unreadable, or invalid."""


class NumericError(KdlabError):
    """A numeric failure occurred while executing a run."""


class NoRunsFound(KdlabError):
    """A report was requested on a directory without completed runs."""
