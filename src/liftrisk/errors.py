"""Exception types shared across the package, mapped to CLI exit codes."""


class LiftriskError(Exception):
    """Base class for all package errors."""


class ConfigError(LiftriskError):
    """Invalid or unparseable configuration (CLI exit 2)."""


class OutputPathError(ConfigError):
    """An output path that cannot be written (CLI exit 2)."""


class DataError(LiftriskError):
    """Unreadable or malformed dataset (CLI exit 3)."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        super().__init__(message)
        self.path = path
        self.line = line


class MissingTrialFileError(DataError):
    """A manifest entry points at a trial file that does not exist."""


class MalformedRowError(DataError):
    """A trial CSV row has the wrong column count or an unparseable value."""


class ChannelCountMismatchError(DataError):
    """A trial CSV header does not describe 36 data channels."""


class TrainingDivergedError(LiftriskError):
    """Loss became non-finite during training (CLI exit 4)."""

    def __init__(self, epoch: int, loss_value: float):
        super().__init__(f"non-finite loss {loss_value!r} at epoch {epoch}")
        self.epoch = epoch
        self.loss_value = loss_value


class CheckpointMismatchError(LiftriskError):
    """Checkpoint and dataset/config disagree (CLI exit 5)."""
