"""Serialization of sampled paths and reports.

Two path formats:

* CSV with header ``t,x1,...,xm`` — human-auditable, round-trips through
  repr-precision floats;
* the FBMP binary fixture format for golden tests — byte-exact.

Both hold finite values only: a writer or reader that meets a NaN or an
infinity raises ValueError naming the file.

FBMP layout (all little-endian):

    offset 0   4 bytes   magic b"FBMP"
    offset 4   u16       format version (currently 1)
    offset 6   u32       n_rows (grid nodes)
    offset 10  u32       n_cols (1 time column + m components)
    offset 14  f64[...]  row-major payload, column 0 is time

Tail-report tables export to CSV for audit.  JSON reports are strict JSON:
a non-finite number is a numerical error, never an ``Infinity`` token.
"""

from __future__ import annotations

import csv
import io
import json
import struct

import numpy as np

from .grid import TimeGrid

FBMP_MAGIC = b"FBMP"
FBMP_VERSION = 1


def _require_finite(path: str, table: np.ndarray) -> None:
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{path}: a path holds finite values only, got a NaN or infinity")


def _table(path: str, grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """The table to write to `path`: time in column 0, then the components;
    values off the grid (`TimeGrid.nodes`) or not finite are a ValueError
    naming the file."""
    vals = grid.nodes(f"{path}:", values)
    vals = vals.reshape(len(vals), -1)
    table = np.column_stack([grid.points, vals])
    _require_finite(path, table)
    return table


def _path_from_table(path: str, table: np.ndarray) -> tuple[TimeGrid, np.ndarray]:
    """(grid, values) of a table read from `path`, time in column 0: at least
    two rows, at least one component column, finite values and a uniform
    time grid from 0, else ValueError."""
    if table.ndim != 2 or table.shape[0] < 2 or table.shape[1] < 2:
        raise ValueError(f"{path}: a path needs at least 2 rows and 1 component "
                         f"column besides t, got a table of shape {table.shape}")
    _require_finite(path, table)
    t = table[:, 0]
    grid = TimeGrid(float(t[-1]), len(t) - 1)
    if not np.allclose(grid.points, t, atol=1e-9):
        raise ValueError(f"{path}: time column is not a uniform grid from 0")
    return grid, table[:, 1:].copy()


def write_path_csv(path: str, grid: TimeGrid, values: np.ndarray) -> None:
    """Write one path as CSV with header t,x1..xm, built as one string and
    written once: the bytes of csv.writer's excel dialect (\\r\\n line ends;
    repr floats never need quoting)."""
    table = _table(path, grid, values)
    lines = [",".join(["t"] + [f"x{j + 1}" for j in range(table.shape[1] - 1)])]
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def read_path_csv(path: str) -> tuple[TimeGrid, np.ndarray]:
    """Read a t,x1..xm CSV back into (grid, values); anything else, a
    non-finite value included, is a ValueError naming the file."""
    with open(path, newline="") as fh:
        try:
            header, *rows = list(csv.reader(fh)) or [[]]
            table = np.array(rows, dtype=float)
        except ValueError as exc:  # ragged or non-numeric rows, or not UTF-8 text
            raise ValueError(f"{path}: not a numeric path CSV: {exc}") from exc
    if not header or header[0] != "t":
        raise ValueError(f"{path}: malformed path CSV header: {header}")
    return _path_from_table(path, table)


def write_path_binary(path: str, grid: TimeGrid, values: np.ndarray) -> None:
    """Write one path in the FBMP binary fixture format; a non-finite value
    is a ValueError naming the file, raised before it is opened."""
    table = _table(path, grid, values)
    n_rows, n_cols = table.shape
    with open(path, "wb") as fh:
        fh.write(FBMP_MAGIC)
        fh.write(struct.pack("<HII", FBMP_VERSION, n_rows, n_cols))
        fh.write(table.astype("<f8").tobytes())


def read_path_binary(path: str) -> tuple[TimeGrid, np.ndarray]:
    """Read an FBMP file back into (grid, values); anything else, a
    non-finite value included, is a ValueError naming the file."""
    with open(path, "rb") as fh:
        head = fh.read(14)
        if len(head) < 14 or head[:4] != FBMP_MAGIC:
            raise ValueError(f"{path}: not an FBMP fixture")
        version, n_rows, n_cols = struct.unpack("<HII", head[4:])
        if version != FBMP_VERSION:
            raise ValueError(f"{path}: unsupported FBMP version {version}")
        payload = fh.read(8 * n_rows * n_cols)
    if len(payload) != 8 * n_rows * n_cols:
        raise ValueError(f"{path}: truncated FBMP payload")
    return _path_from_table(path, np.frombuffer(payload, dtype="<f8").reshape(n_rows, n_cols))


def tail_report_csv(report: dict) -> str:
    """r-grid table of a tail record (as `concentration._tail_report`
    returns it and a verify report holds it) as a CSV string (for
    plots/audit)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["r", "empirical_tail", "upper_confidence", "bound", "passed"])
    for r, e, u, b, p in zip(report["r_grid"], report["empirical_tail"],
                             report["upper_confidence"], report["bound"],
                             report["passed"]):
        writer.writerow([repr(float(r)), repr(float(e)), repr(float(u)),
                         repr(float(b)), int(p)])
    return buf.getvalue()


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_json_report(path: str, payload: dict) -> None:
    """Deterministic JSON report (sorted keys, numpy scalars coerced).

    A non-finite number has no JSON form: it raises ArithmeticError (CLI:
    exit 3) before the file is opened, so no partial report is left.
    """
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default,
                          allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"{path}: non-finite number in the report ({exc})") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")
