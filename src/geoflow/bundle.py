"""Run artifacts: CSV tables plus one JSON metadata sidecar per run.

Every command writes its outputs through a :class:`ResultBundle` so the
on-disk layout is uniform: ``<name>.csv`` per table (comma-separated,
header row, ``%.12e`` floats, LF line endings) and ``metadata.json``
carrying the version, the echoed config, verdicts, and wall time.

Each row is formatted once, when its table is built; float cells then
take the value of their text, so write → read round-trips reproduce the
in-memory bundle exactly and a second write is byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__

__all__ = ["Table", "ResultBundle", "quantize"]

_FLOAT_FMT = "%.12e"


def quantize(value: float) -> float:
    """Round a float to the precision the CSV writer will emit."""
    return float(_FLOAT_FMT % value)


def _encode(cell) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return _FLOAT_FMT % cell
    if isinstance(cell, int):
        return str(cell)
    return str(cell)


def _csv_line(cells: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    return buf.getvalue()


def _format_row(row: list) -> tuple[str, list]:
    """The row's CSV line, and the row with floats read back from it."""
    if set(map(type, row)) == {float}:
        # all-float rows, the bulk of every table, take no Python call per
        # cell, and their text never needs quoting
        text = list(map(_FLOAT_FMT.__mod__, row))
        return ",".join(text), list(map(float, text))
    text = [_encode(c) for c in row]
    return _csv_line(text), [float(t) if isinstance(c, float) else c
                             for c, t in zip(row, text)]


def _decode(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _cells_equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return type(a) is type(b) and a == b


@dataclass
class Table:
    """One CSV table: a header row and typed cells (float, int, bool, str).

    Construction takes any iterable of rows and formats each row once:
    ``lines`` holds the CSV line written for it, and each float cell of
    ``rows`` is replaced by the value of its text.  ``lines`` is not
    refreshed if ``rows`` is edited later.
    """

    header: list[str]
    rows: list[list]
    lines: list[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        width = len(self.header)
        self.lines = []
        rows = []
        for row in self.rows:
            if len(row) != width:
                raise ValueError(
                    f"row width {len(row)} != header width {width}")
            line, values = _format_row(row)
            self.lines.append(line)
            rows.append(values)
        self.rows = rows


@dataclass
class ResultBundle:
    """In-memory run result: metadata, named tables, verdict lines."""

    command: str
    config: dict
    version: str = __version__
    seed: int | None = None
    verdicts: list[str] = field(default_factory=list)
    tables: dict[str, Table] = field(default_factory=dict)
    wall_time_s: float | None = None

    def add_table(self, name: str, header: list[str], rows) -> None:
        """Attach a table, quantizing floats to the emitted precision.

        ``rows`` may be any iterable of rows, a generator included.
        """
        if not name.replace("_", "").replace("-", "").isalnum():
            raise ValueError(f"table name {name!r} is not filename-safe")
        self.tables[name] = Table(header=list(header), rows=rows)

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
            "version": self.version,
            "wall_time_s": self.wall_time_s,
        }
        with open(out / "metadata.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return out

    @classmethod
    def read(cls, out_dir) -> "ResultBundle":
        """Re-parse a written run directory into an equal bundle."""
        out = Path(out_dir)
        with open(out / "metadata.json") as fh:
            meta = json.load(fh)
        bundle = cls(command=meta["command"], config=meta["config"],
                     version=meta["version"], seed=meta["seed"],
                     verdicts=list(meta["verdicts"]),
                     wall_time_s=meta["wall_time_s"])
        for name in meta["tables"]:
            with open(out / f"{name}.csv", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                rows = [[_decode(c) for c in row] for row in reader]
            bundle.tables[name] = Table(header=header, rows=rows)
        return bundle

    def same_data(self, other: "ResultBundle") -> bool:
        """Field-by-field equality, treating NaN cells as equal to NaN."""
        if (self.command, self.version, self.seed, self.verdicts,
                self.config) != (other.command, other.version, other.seed,
                                 other.verdicts, other.config):
            return False
        if sorted(self.tables) != sorted(other.tables):
            return False
        for name, table in self.tables.items():
            theirs = other.tables[name]
            if table.header != theirs.header or len(table.rows) != len(theirs.rows):
                return False
            for ra, rb in zip(table.rows, theirs.rows):
                if len(ra) != len(rb):
                    return False
                if not all(_cells_equal(a, b) for a, b in zip(ra, rb)):
                    return False
        return True
