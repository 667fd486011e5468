"""Exception taxonomy shared across the engine."""


class ContractError(ValueError):
    """An operation was called with arguments violating its preconditions."""


class ShapeError(ContractError):
    """Tensor shapes do not conform to a primitive's contract."""


class DataError(ValueError):
    """Dataset parsing or validation failed."""


class ConfigError(ValueError):
    """A run configuration is invalid or incomplete."""


class ConsistencyError(RuntimeError):
    """Internal state disagrees with itself (e.g. a missing embedding row)."""


class NumericFailure(RuntimeError):
    """Training produced a non-finite loss."""
