"""Exception hierarchy shared across the pipeline.

Two broad families: ConfigError for problems a user can fix in a config
file or on the command line, and DataError for problems in the input data
itself. The CLI maps them to exit codes 1 and 2 respectively.
"""


class TopostabError(Exception):
    """Base class for all package errors."""


class ConfigError(TopostabError):
    """Invalid or inconsistent configuration."""


class DataError(TopostabError):
    """Input data violates a contract."""


# -- pdb ingestion ----------------------------------------------------------

class NoAtoms(DataError):
    """A structure file contained no ATOM records."""


class MalformedLine(DataError):
    def __init__(self, line_no, detail=""):
        self.line_no = line_no
        super().__init__(f"unparseable coordinates on line {line_no}" +
                         (f": {detail}" if detail else ""))


class UnknownElement(DataError):
    def __init__(self, symbol):
        self.symbol = symbol
        super().__init__(f"no radius known for element {symbol!r}")


class EmptyClass(DataError):
    """One of the label classes is empty."""


class DuplicateId(DataError):
    def __init__(self, sample_id):
        self.sample_id = sample_id
        super().__init__(f"duplicate sample id {sample_id!r}")


class MissingId(DataError, KeyError):
    """A lookup asked a table for a sample id it does not hold."""

    __str__ = Exception.__str__  # KeyError's would quote the message


class MissingValue(DataError):
    """A table cell that should hold a finite number does not."""

    def __init__(self, line, col, cell):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col!r}: {cell!r} is "
                         "non-numeric or non-finite")


# -- complexes --------------------------------------------------------------

class EmptyCloud(DataError):
    """A point cloud with no points."""


class DegenerateInput(DataError):
    """Points are affinely dependent beyond the perturbation tolerance."""


class InvalidFiltration(DataError):
    """A filtered complex violates face-closure or monotonicity."""


# -- cover tree / cder ------------------------------------------------------

class EmptyInput(DataError):
    """No points supplied."""


class NoRegionsFound(DataError):
    """The entropy descent emitted no coordinates; relax the threshold."""


# -- forest / stats ---------------------------------------------------------

class SingleClass(DataError):
    """Training data contains only one class."""


class ZeroVariance(DataError):
    """An input vector has zero variance."""


class ZeroVarianceDiff(DataError):
    """Paired differences are constant; the t statistic is undefined."""
