"""Exception hierarchy shared across the pipeline.

Every fault is one of two: a ConfigError for a problem a user can fix in a
config file or on the command line, or a DataError for a problem in the
input data itself. The CLI maps them to exit codes 1 and 2 respectively.
DataError has a subclass only where the pipeline catches that fault by type
and carries on.
"""


class TopostabError(Exception):
    """Base class for all package errors."""


class ConfigError(TopostabError):
    """Invalid or inconsistent configuration."""


class DataError(TopostabError):
    """Input data violates a contract."""


class NoRegionsFound(DataError):
    """The entropy descent had no point to fit or emitted no coordinates."""


class ZeroVariance(DataError):
    """An input vector has zero variance."""


class ZeroVarianceDiff(DataError):
    """Paired differences are constant; the t statistic is undefined."""
