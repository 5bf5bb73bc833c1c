"""Serialization of sampled paths and reports.

Two path formats:

* CSV with header ``t,x1,...,xm`` — human-auditable, round-trips through
  repr-precision floats;
* the FBMP binary fixture format for golden tests — byte-exact.

FBMP layout (all little-endian):

    offset 0   4 bytes   magic b"FBMP"
    offset 4   u16       format version (currently 1)
    offset 6   u32       n_rows (grid nodes)
    offset 10  u32       n_cols (1 time column + m components)
    offset 14  f64[...]  row-major payload, column 0 is time

Cost matrices and tail-report tables export to CSV for audit.
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


def _table(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != grid.n_steps + 1:
        raise ValueError("values do not match the grid")
    return np.column_stack([grid.points, vals])


def write_path_csv(path: str, grid: TimeGrid, values: np.ndarray) -> None:
    """Write one path as CSV with header t,x1..xm."""
    table = _table(grid, values)
    m = table.shape[1] - 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{j + 1}" for j in range(m)])
        for row in table:
            writer.writerow([repr(float(v)) for v in row])


def read_path_csv(path: str) -> tuple[TimeGrid, np.ndarray]:
    """Read a t,x1..xm CSV back into (grid, values)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "t":
            raise ValueError(f"malformed path CSV header: {header}")
        rows = np.array([[float(v) for v in row] for row in reader])
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError("path CSV needs at least two rows")
    t = rows[:, 0]
    grid = TimeGrid(float(t[-1]), len(t) - 1)
    if not np.allclose(grid.points, t, atol=1e-9):
        raise ValueError("path CSV time column is not a uniform grid from 0")
    return grid, rows[:, 1:]


def write_path_binary(path: str, grid: TimeGrid, values: np.ndarray) -> None:
    """Write one path in the FBMP binary fixture format."""
    table = _table(grid, values)
    n_rows, n_cols = table.shape
    with open(path, "wb") as fh:
        fh.write(FBMP_MAGIC)
        fh.write(struct.pack("<HII", FBMP_VERSION, n_rows, n_cols))
        fh.write(table.astype("<f8").tobytes())


def read_path_binary(path: str) -> tuple[TimeGrid, np.ndarray]:
    """Read an FBMP file back into (grid, values)."""
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
    table = np.frombuffer(payload, dtype="<f8").reshape(n_rows, n_cols)
    t = table[:, 0]
    grid = TimeGrid(float(t[-1]), n_rows - 1)
    if not np.allclose(grid.points, t, atol=1e-9):
        raise ValueError(f"{path}: time column is not a uniform grid from 0")
    return grid, table[:, 1:].copy()


def write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    """Dump a cost matrix (or coupling) as plain CSV, no header."""
    np.savetxt(path, np.asarray(matrix, dtype=float), delimiter=",")


def tail_report_csv(report: dict) -> str:
    """r-grid table of a TailReport.to_dict() record as a CSV string (for
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
    """Deterministic JSON report (sorted keys, numpy scalars coerced)."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
