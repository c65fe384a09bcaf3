"""The one CSV codec: every table the pipeline writes or reads passes here.

`csv_text` writes a header and rows, each float as its repr, so a table
read back gives the same floats. `read_csv` reads a table under one rule:
the header's stripped cells start with the names the caller requires,
blank lines are skipped, every row is as wide as the header, and each
number column holds finite floats. A fault is a DataError that names the
file line and the column.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .errors import DataError


def csv_text(header, rows) -> str:
    """The header and rows as CSV text. csv.writer writes a cell as its
    str(), which for a float or an np.float64 is repr(float(v)); no caller
    writes an np.float32, whose str() is shorter."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _column(header, k) -> str:
    return repr(header[k]) if k < len(header) else str(k + 1)


def read_csv(text: str, names=(), numbers=()):
    """(header, columns) of the CSV text: columns[k] lists the cells under
    header[k], or is a float array if k is in numbers (column indices, or
    a slice of them)."""
    reader = csv.reader(io.StringIO(text))
    header = [cell.strip() for cell in next(reader, [])]
    if isinstance(numbers, slice):
        numbers = range(len(header))[numbers]
    for k, name in enumerate(names):
        if k >= len(header) or header[k] != name:
            raise DataError(f"line 1, column {_column(header, k)}: "
                            f"expected {name!r}")
    width = max([1, *(k + 1 for k in numbers)])
    if len(header) < width:
        raise DataError(f"line 1, column {len(header) + 1}: "
                        "missing from the header")
    lines, rows = [], []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            k = min(len(row), len(header))
            raise DataError(f"line {reader.line_num}, column "
                            f"{_column(header, k)}: {len(row)} cells, but the "
                            f"header has {len(header)}")
        lines.append(reader.line_num)
        rows.append(row)
    columns = [list(cells) for cells in zip(*rows)] or [[] for _ in header]
    for k in numbers:
        columns[k] = _finite_column(columns[k], lines, header[k])
    return header, columns


def _finite_column(cells, lines, name) -> np.ndarray:
    """cells as a float array; the first cell that is not a finite number
    raises a DataError that names its line."""
    try:
        values = np.array(list(map(float, cells)), dtype=float)
    except ValueError:
        pass
    else:
        if np.isfinite(values).all():
            return values
    for line, cell in zip(lines, cells):
        try:
            if math.isfinite(float(cell)):
                continue
        except ValueError:
            pass
        raise DataError(f"line {line}, column {name!r}: {cell!r} is "
                        "non-numeric or non-finite")
    raise AssertionError("unreachable: some cell is not finite")


def keyed(ids, values) -> dict:
    """{id: value}; an id given twice is a DataError."""
    table = dict(zip(ids, values))
    if len(table) < len(ids):
        seen = set()
        twice = next(i for i in ids if i in seen or seen.add(i))
        raise DataError(f"duplicate sample id {twice!r}")
    return table
