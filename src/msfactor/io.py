"""File formats: panel CSV ingestion, flat key=value config files and
JSON result serialisation.

Both input formats are UTF-8; a leading byte-order mark, which Excel's
"CSV UTF-8" export writes, is dropped, as the ``utf-8-sig`` codec drops it.

A panel CSV is parsed as one block by ``np.loadtxt``, which converts each
cell as ``float`` does. Where the block reader could read the file
otherwise than the ``csv`` module and ``float`` (a quote, a blank line, a
separator control character) or fails (a bad cell, a ragged row), the
``csv`` module's rows and a cell-by-cell loop parse it and find what to
report, in 1-based file coordinates.

All floating-point output goes through ``repr``, which emits the shortest
decimal string (up to 17 significant digits) that round-trips to the exact
same double, so written files reload bit-identically.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Collection
from pathlib import Path

import numpy as np

from .exceptions import CsvParseError, InvalidArgumentError, NonFiniteError
from .types import Panel, as_shaped, check_instance, validate_panel


def _decode(raw: bytes) -> str:
    """``raw`` decoded as ``utf-8-sig`` does. Decoding as UTF-8 before the
    mark is dropped keeps a decoding error's offset a file offset."""
    return raw.decode("utf-8").removeprefix("\ufeff")


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


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))


def _parse_block(text: str) -> tuple[np.ndarray, int] | None:
    """The data block and the count of leading columns dropped, parsed in
    one ``np.loadtxt`` call; None where the cell loop must decide.

    Without a quote, the ``csv`` module's rows are the lines (split at
    CR LF, CR or LF) split at each comma, and a blank line is an empty row,
    which ``np.loadtxt`` would skip: so a quote or a blank line declines.
    So does a separator control character (0x1c to 0x1f): ``np.loadtxt``
    strips it around a number as whitespace, ``float`` does not.
    """
    if any(c in text for c in '"\x1c\x1d\x1e\x1f'):
        return None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()  # the last line's end
    if len(lines) < 2 or "" in lines:
        return None
    header = lines[0].split(",")
    skip = 0 if _is_numeric(header[0]) else 1
    body = [line.partition(",")[2] for line in lines[1:]] if skip else lines[1:]
    if "" in body:
        return None
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return (data, skip) if data.shape == (len(body), len(header) - skip) else None


def _parse_cells(path: Path, rows: list[list[str]]) -> tuple[np.ndarray, int]:
    """Cell-by-cell parse of the data rows, with the count of leading
    columns dropped; raises :class:`CsvParseError` at the first empty file
    or header, short or long row or unparsable cell, in file order."""
    if not rows:
        raise CsvParseError(1, 1, f"{path}: empty file")
    header = rows[0]
    if not header:
        raise CsvParseError(1, 1, f"{path}: empty header row")
    skip = 0 if _is_numeric(header[0]) else 1
    width = len(header)
    if width == skip and all(len(row) < 2 for row in rows[1:]):
        # no series and no cell to read: the panel check rejects the block
        return np.empty((len(rows) - 1, 0)), skip
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
    return data, skip


def load_panel_csv(path: str | Path) -> Panel:
    """Read a panel from CSV.

    The first row holds series headers. When the first header is
    non-numeric (a name like ``date`` or ``t``, or empty) the first column
    is treated as a date/index column and dropped. Every remaining cell
    must parse as a decimal float and be finite; failures report 1-based
    file coordinates and the cell's text. A file that is not UTF-8 raises
    :class:`CsvParseError` at the line and comma-separated cell of its
    first bad byte.
    """
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = _decode(raw)
    except UnicodeDecodeError as exc:
        line_start = raw.rfind(b"\n", 0, exc.start) + 1
        row = raw.count(b"\n", 0, exc.start) + 1
        col = raw.count(b",", line_start, exc.start) + 1
        raise CsvParseError(row, col, _not_utf8(path, exc)) from None
    data, skip = _parse_block(text) or _parse_cells(path, _csv_rows(text))
    try:
        return validate_panel(data)
    except NonFiniteError as exc:
        row, col = exc.row + 2, exc.col + skip + 1
        cell = _csv_rows(text)[row - 1][col - 1]
        raise NonFiniteError(
            row, col, f"{path}: non-finite entry {cell!r} at row {row}, col {col}"
        ) from None


def save_matrix_csv(path: str | Path, matrix: np.ndarray, headers: list[str]) -> None:
    """Write a T x N matrix, N the number of ``headers``, with a leading
    1-based integer index column ``t``.

    The bytes are those ``csv.writer`` writes with ``lineterminator="\\n"``
    for plain headers, which need no quotes, and ``repr`` of each value."""
    (matrix,) = as_shaped({}, matrix=(matrix, ("T", len(headers))))
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(",".join(["t", *headers]) + "\n")
        # row by row: a whole-matrix tolist() would hold every value as a Python float at once
        fh.writelines(
            f"{t},{','.join(map(repr, row.tolist()))}\n" for t, row in enumerate(matrix, start=1)
        )


def save_panel_csv(path: str | Path, panel: Panel) -> None:
    """Write a panel with series headers ``x1`` ... ``xN``."""
    check_instance("panel", panel, Panel)
    save_matrix_csv(path, panel.data, [f"x{i + 1}" for i in range(panel.n_len)])


def parse_config_file(path: str | Path, keys: Collection[str]) -> dict[str, str]:
    """Parse a flat ``key = value`` config file whose keys are among ``keys``.

    Blank lines and ``#`` comments are ignored; keys are lowercased and
    dashes normalised to underscores so they match CLI flag names. A file
    that is not UTF-8, a line without ``=`` and a key not in ``keys`` raise
    :class:`InvalidArgumentError`.
    """
    try:
        text = _decode(Path(path).read_bytes())
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
        key = key.strip().lower().replace("-", "_")
        if key not in keys:
            raise InvalidArgumentError(f"{path}:{lineno}: {key!r} is not a setting of any command")
        settings[key] = value.strip()
    return settings


def write_json(path: str | Path, payload: dict) -> None:
    """Deterministic JSON dump (stable key order, repr floats, trailing newline)."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
