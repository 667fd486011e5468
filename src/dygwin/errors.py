"""Exception taxonomy shared across the engine, and a text reader that raises it."""

from pathlib import Path


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


def read_text(path, error: type[ValueError]) -> str:
    """The UTF-8 text of ``path`` less any BOM; bytes that do not decode raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
