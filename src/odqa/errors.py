"""Exception types shared across the package."""


class OdqaError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ConfigError(OdqaError):
    """Bad or missing configuration (unknown keys, absent files, invalid values)."""


class DictionaryLoadError(OdqaError):
    """A data dictionary file could not be parsed into field descriptors."""


class PlanError(OdqaError):
    """A reduction plan is internally inconsistent or does not match the table."""


class InputError(OdqaError):
    """The input file cannot be read as a table (for example, it has no header row)."""
