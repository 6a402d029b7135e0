"""Run artifacts: CSV tables plus one JSON metadata sidecar per run.

Every command writes its outputs through a :class:`ResultBundle` so the
on-disk layout is uniform: ``<name>.csv`` per table (comma-separated,
header row, ``%.12e`` floats, LF line endings) and ``metadata.json``
carrying the version, the echoed config, verdicts, and wall time.

A table keeps only its text: each row is formatted once, when the table
is built, so a second write is byte-identical.  A float table comes as
one 2-D array, whose distinct values are formatted once per block of
rows.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__

__all__ = ["Table", "ResultBundle"]

_FLOAT_FMT = "%.12e"

#: rows of a float array formatted together; bounds the block's cell list
_BLOCK_ROWS = 64


def _encode(cell) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return _FLOAT_FMT % cell
    return str(cell)


def _csv_line(cells: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    return buf.getvalue()


def _float_lines(a: np.ndarray) -> list[str]:
    """The CSV line of each row of a 2-D float64 array.

    Each distinct bit pattern of a block of rows is formatted once, so
    -0.0 and 0.0 stay apart and every nan reads ``nan``; no float's text
    needs quoting.
    """
    lines: list[str] = []
    for start in range(0, len(a), _BLOCK_ROWS):
        block = a[start:start + _BLOCK_ROWS]
        bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        text = np.array([_FLOAT_FMT % v
                         for v in bits.view(np.float64).tolist()], dtype=object)
        lines += map(",".join, text[inverse].reshape(block.shape).tolist())
    return lines


class Table:
    """One CSV table: a header row and the CSV line of each row.

    ``rows`` is either a 2-D float64 array, one column per header name,
    or any iterable of rows of float, int, bool and str cells, a
    generator included; each row is formatted once, into ``lines``.
    """

    def __init__(self, header: list[str], rows):
        self.header = list(header)
        width = len(self.header)
        if isinstance(rows, np.ndarray):
            if (rows.ndim != 2 or rows.shape[1] != width
                    or rows.dtype != np.float64):
                raise ValueError(
                    f"a float table needs a 2-D float64 array of width "
                    f"{width}, got {rows.dtype} of shape {rows.shape}")
            self.lines = _float_lines(rows)
            return
        self.lines = []
        for row in rows:
            if len(row) != width:
                raise ValueError(
                    f"row width {len(row)} != header width {width}")
            self.lines.append(_csv_line([_encode(c) for c in row]))


@dataclass
class ResultBundle:
    """In-memory run result: metadata, named tables, verdict lines."""

    command: str
    config: dict
    seed: int | None = None
    verdicts: list[str] = field(default_factory=list)
    tables: dict[str, Table] = field(default_factory=dict)
    wall_time_s: float | None = None

    def add_table(self, name: str, header: list[str], rows) -> None:
        """Attach a table; ``rows`` may be any iterable of rows."""
        if not name.replace("_", "").replace("-", "").isalnum():
            raise ValueError(f"table name {name!r} is not filename-safe")
        self.tables[name] = Table(header, rows)

    def write(self, out_dir) -> Path:
        """Write all tables and the metadata sidecar; returns the directory."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, table in self.tables.items():
            with open(out / f"{name}.csv", "w", newline="") as fh:
                fh.write(_csv_line(table.header) + "\n")
                fh.writelines(line + "\n" for line in table.lines)
        meta = {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "tables": sorted(self.tables),
            "verdicts": self.verdicts,
            "version": __version__,
            "wall_time_s": self.wall_time_s,
        }
        with open(out / "metadata.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return out
