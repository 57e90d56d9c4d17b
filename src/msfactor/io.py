"""File formats: panel CSV ingestion, flat key=value config files and
JSON result serialisation.

All floating-point output goes through ``repr``, which emits the shortest
decimal string (up to 17 significant digits) that round-trips to the exact
same double, so written files reload bit-identically.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .exceptions import CsvParseError, InvalidArgumentError
from .types import Panel, validate_panel


def _not_utf8(path: str | Path, exc: UnicodeDecodeError) -> str:
    """Message naming the file and the byte offset of a decoding error
    raised on the whole file's bytes."""
    return f"{path}: byte 0x{exc.object[exc.start]:02x} at offset {exc.start} is not UTF-8"


def _is_numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _parse_cells(path: Path, rows: list[list[str]], skip: int, width: int) -> np.ndarray:
    """Cell-by-cell parse of the data rows; raises :class:`CsvParseError` at
    the first short or long row or unparsable cell, in file order."""
    data = np.empty((len(rows) - 1, width - skip))
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise CsvParseError(
                r,
                min(len(row), width) + 1,
                f"{path}: row {r} has {len(row)} cells, header has {width}",
            )
        for c, cell in enumerate(row[skip:], start=skip + 1):
            try:
                data[r - 2, c - 1 - skip] = float(cell)
            except ValueError:
                raise CsvParseError(
                    r, c, f"{path}: cannot parse {cell!r} at row {r}, col {c}"
                ) from None
    return data


def load_panel_csv(path: str | Path) -> Panel:
    """Read a panel from CSV.

    The first row holds series headers. When the first header is
    non-numeric (a name like ``date`` or ``t``, or empty) the first column
    is treated as a date/index column and dropped. Every remaining cell
    must parse as a decimal float; failures report 1-based file
    coordinates. A file that is not UTF-8 raises :class:`CsvParseError` at
    the line and comma-separated cell of its first bad byte.
    """
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = raw.rfind(b"\n", 0, exc.start) + 1
        row = raw.count(b"\n", 0, exc.start) + 1
        col = raw.count(b",", line_start, exc.start) + 1
        raise CsvParseError(row, col, _not_utf8(path, exc)) from None
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise CsvParseError(1, 1, f"{path}: empty file")
    header = rows[0]
    if not header:
        raise CsvParseError(1, 1, f"{path}: empty header row")
    skip = 0 if _is_numeric(header[0]) else 1
    width = len(header)
    # One numpy call parses the whole block, each cell as float() does. On
    # a ragged block or a bad cell, the cell loop finds what to report.
    body = [row[skip:] for row in rows[1:]]
    try:
        data = np.array(body, dtype=float)
    except ValueError:
        data = None
    if data is None or data.shape != (len(body), width - skip):
        data = _parse_cells(path, rows, skip, width)
    return validate_panel(data)


def save_matrix_csv(path: str | Path, matrix: np.ndarray, headers: list[str]) -> None:
    """Write a T x N matrix with a leading 1-based integer index column ``t``."""
    matrix = np.asarray(matrix, dtype=float)
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", *headers])
        for t, row in enumerate(matrix, start=1):
            writer.writerow([t, *[repr(float(v)) for v in row]])


def save_panel_csv(path: str | Path, panel: Panel) -> None:
    """Write a panel with series headers ``x1`` ... ``xN``."""
    save_matrix_csv(path, panel.data, [f"x{i + 1}" for i in range(panel.n_len)])


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file.

    Blank lines and ``#`` comments are ignored; keys are lowercased and
    dashes normalised to underscores so they match CLI flag names. A file
    that is not UTF-8 raises :class:`InvalidArgumentError`.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(_not_utf8(path, exc)) from None
    settings: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}"
            )
        key, value = line.split("=", 1)
        settings[key.strip().lower().replace("-", "_")] = value.strip()
    return settings


def write_json(path: str | Path, payload: dict) -> None:
    """Deterministic JSON dump (stable key order, repr floats, trailing newline)."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
