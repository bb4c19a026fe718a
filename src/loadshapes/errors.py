"""Exception types shared across the package."""


class LoadShapesError(Exception):
    """Base class for all package-specific errors."""


class HeaderMismatchError(LoadShapesError):
    """CSV header does not match the declared schema."""


class MalformedInputError(LoadShapesError):
    """An input CSV holds a byte that is not UTF-8 or a row csv cannot split."""

    def __init__(self, path, row: int, message):
        super().__init__(f"{path}:{row}: {message}")


class DuplicateRecordError(LoadShapesError):
    """A key that must be unique appeared more than once."""


class UnknownIndicatorError(LoadShapesError):
    """Survey column outside the closed indicator vocabulary."""


class GeneratorConfigError(LoadShapesError):
    """Synthetic generator configuration is invalid."""


class ZeroDiscretionaryError(LoadShapesError):
    """A perfectly flat day has no discretionary usage to normalize."""


class EmptyInputError(LoadShapesError):
    """An operation received an empty collection it cannot work on."""


class DegenerateCenterError(LoadShapesError):
    """A cluster center with zero norm cannot anchor a relative error."""


class NotADistributionError(LoadShapesError):
    """Frequencies do not form a categorical distribution."""


class SingletonClusteringError(LoadShapesError):
    """Cluster-separation metrics need at least two non-empty clusters."""


class CoincidentCentroidsError(LoadShapesError):
    """Two distinct clusters share the same centroid."""


class VersionMismatchError(LoadShapesError):
    """Persisted artifact carries an unsupported schema version."""


class CorruptArtifactError(LoadShapesError):
    """Persisted artifact failed its digest or invariant checks."""


class ConfigError(LoadShapesError):
    """Pipeline run configuration is invalid."""


class StageError(LoadShapesError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
