"""Run artifacts: CSV tables plus one JSON metadata sidecar per run.

Every command writes its outputs through a :class:`ResultBundle` so the
on-disk layout is uniform: ``<name>.csv`` per table (comma-separated,
header row, ``%.12e`` floats, LF line endings) and ``metadata.json``
carrying the version, the echoed config, verdicts, and wall time.

A table keeps only its text: each row is formatted once, when the table
is built, so a second write is byte-identical.  A float table comes as
one 2-D array and is formatted in numpy, in blocks of whole rows of at
most _BLOCK_CELLS cells: a cell with the bits of the cell above it
reuses that cell's text, and every other cell gets its ``%.12e`` digits
from a 13-digit integer mantissa, scaled by a power of ten and rounded
where an error bound settles the rounding, or from Python's ``%`` where
it does not.  Either way each cell reads as ``"%.12e" % v`` does.  A
table goes to its file in one write, or one per _WRITE_CHARS characters
of a larger one.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__

__all__ = ["Table", "ResultBundle"]

_FLOAT_FMT = "%.12e"

#: cells of a float array formatted together: whole rows, at least one;
#: bounds the block's scratch arrays whatever the table's size
_BLOCK_CELLS = 4096

#: bytes of one cell's slot: its text right-aligned after zero bytes
#: ("-1.797693134862e+308", 20 characters, is the longest), then a
#: separator; six uint32 words, so that four-byte groups are aligned
_SLOT = 24

#: leading zero bytes of the slot of a non-negative cell that the numpy
#: route settles: its text ("1.234567890123e+05") and separator take 19
_FAST_PAD = _SLOT - 19

#: how close to a half the scaled value may come and keep its rounding:
#: above the 2.3e-3 error bound of the scaling (see :func:`_cell_slots`)
_HALF_TOL = 2.0 ** -8

#: characters of a table's text that go to its file in one write: a
#: table of up to this size is one write, a larger one is not held twice
#: more (as one str and as its encoded bytes)
_WRITE_CHARS = 1 << 16


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


def _fallback(v: float) -> str:
    """One cell through Python's ``%``: the route of the cells that
    :func:`_cell_slots` does not settle."""
    return _FLOAT_FMT % v


@functools.cache
def _lookup() -> tuple[np.ndarray, ...]:
    """Tables built on first use: the correctly rounded 10**(12 - e) for
    each exponent |e| <= 99, and the four-byte words of a fast slot's
    text: sign, lead digit, ``.`` and first decimal (by sign * 100 + two
    leading digits); four digits (0..9999); three digits and ``e``
    (0..999); exponent sign, two digits and ``,`` (by e + 99)."""
    # the digit words by broadcasting '0'..'9' over one axis per digit:
    # arithmetic scratch arrays would raise a short run's peak RSS
    exps = range(-99, 100)
    scale = np.array([float(f"1e{12 - e}") for e in exps])
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    head = np.empty((2, 10, 10, 4), np.uint8)
    head[..., 0] = np.array([0, ord("-")], np.uint8)[:, None, None]
    head[..., 1], head[..., 2], head[..., 3] = d[:, None], ord("."), d
    quad = np.empty((10, 10, 10, 10, 4), np.uint8)
    quad[..., 0], quad[..., 1], quad[..., 2], quad[..., 3] = \
        d[:, None, None, None], d[:, None, None], d[:, None], d
    tail = np.empty((10, 10, 10, 4), np.uint8)
    tail[..., 0], tail[..., 1], tail[..., 2], tail[..., 3] = \
        d[:, None, None], d[:, None], d, ord("e")
    exp = np.frombuffer(b"".join(b"%+03d," % e for e in exps), np.uint8)
    tables = [scale] + [w.view(np.uint32).ravel()
                        for w in (head, quad, tail, exp)]
    for table in tables:
        table.setflags(write=False)
    return tuple(tables)


def _cell_slots(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``%.12e`` text of each value of ``v``, as a (len(v), _SLOT)
    uint8 array of slots, and each slot's count of leading zero bytes.

    A finite |v| with decimal exponent e = floor(log10 |v|), |e| <= 99,
    has the digits of the integer M nearest y = |v| 10**(12 - e), which
    lies in [1e12, 1e13).  One product with the correctly rounded power
    of ten computes y to within 2u y (u = 2**-53), under 2.3e-3; where it
    lies further than _HALF_TOL from a half, y rounds to the same M.  An
    M of 10**13 carries into the exponent.  M < 2**53, so its digit
    groups are exact in float64.  A product outside [1e12, 1e13), where
    log10 missed the exponent, a product near a half, |e| > 99
    (subnormals included), nan and +-inf go through :func:`_fallback`.
    Zero is a fast cell; at the edges of the range both readings of the
    exponent print the same text.
    """
    scale, head, quad, tail, exp = _lookup()
    a = np.abs(v)
    zero = a == 0.0
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))
    e[zero] = 0.0
    ok = np.abs(e) <= 99.0
    e = np.where(ok, e, 0.0).astype(np.intp)
    y = np.where(ok, a, 0.0) * scale[e + 99]
    m = np.floor(y)
    y -= m
    ok &= (np.abs(y - 0.5) > _HALF_TOL) & (zero | ((m >= 1e12) & (m < 1e13)))
    m += y > 0.5
    carry = m == 1e13
    m[carry] = 1e12
    e += carry
    ok &= e <= 99
    # the 13 digits as 2 + 4 + 4 + 3
    top = np.floor(m / 1e11)
    m -= top * 1e11
    high = np.floor(m / 1e7)
    m -= high * 1e7
    mid = np.floor(m / 1e3)
    m -= mid * 1e3
    sign = np.signbit(v)
    slots = np.empty((len(v), _SLOT), np.uint8)
    words = slots.view(np.uint32)
    words[:, 0] = 0
    words[:, 1] = head[(top + 100 * sign).astype(np.intp)]
    words[:, 2] = quad[high.astype(np.intp)]
    words[:, 3] = quad[mid.astype(np.intp)]
    words[:, 4] = tail[m.astype(np.intp)]
    words[:, 5] = exp[np.where(ok, e, 0) + 99]
    pad = _FAST_PAD - sign.view(np.uint8)
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = [_fallback(x) for x in v[bad].tolist()]
        pad[bad] = [_SLOT - 1 - len(t) for t in text]
        slots[bad, :-1] = np.frombuffer(
            b"".join(t.encode().rjust(_SLOT - 1, b"\0") for t in text),
            np.uint8).reshape(-1, _SLOT - 1)
    return slots, pad


def _fill_down(src: np.ndarray) -> None:
    """Replace each entry of a 2-D integer array by the largest entry at
    or above it in its column, in place."""
    # ufunc.accumulate along axis 0 costs ~20 ns per column; a short
    # block is cheaper one row at a time
    if len(src) <= 32:
        for i in range(1, len(src)):
            np.maximum(src[i - 1], src[i], out=src[i])
    else:
        np.maximum.accumulate(src, axis=0, out=src)


def _float_lines(a: np.ndarray) -> list[str]:
    """The CSV line of each row of a 2-D float64 array.

    Rows go in blocks of at most _BLOCK_CELLS cells (one row at least).
    A cell whose bit pattern equals that of the cell above it, in the
    block or the row before it, reuses that cell's slot, so -0.0 and 0.0
    stay apart and a column that settles is formatted once; the other
    cells go through :func:`_cell_slots`.  The block's slots are
    gathered in row order with the zero columns that every slot has
    dropped, so a block of non-negative cells has no zero byte to delete,
    and its text comes from one ``decode`` and one ``split``.  No float's
    text needs quoting.
    """
    rows, width = a.shape
    if not width:
        return [""] * rows
    step = max(1, _BLOCK_CELLS // width)
    bits = a.view(np.uint64)
    cols = np.arange(width)
    # slots of the row above the block and their leading zeros; the first
    # block's are blank and unused, and their pad is one that no used slot
    # exceeds unless a zero byte must go anyway
    above = np.zeros((width, _SLOT), np.uint8)
    above_pad = np.full(width, _FAST_PAD, np.uint8)
    lines: list[str] = []
    for start in range(0, rows, step):
        block = bits[start:start + step]
        new = np.empty(block.shape, bool)
        np.not_equal(block[1:], block[:-1], out=new[1:])
        if start:
            np.not_equal(block[0], bits[start - 1], out=new[0])
        else:
            new[0] = True
        fresh, fresh_pad = _cell_slots(a[start:start + step][new])
        pad = np.concatenate([above_pad, fresh_pad])
        # drop the zero columns that every slot has
        skip = int(pad.min())
        slots = np.concatenate([above[:, skip:], fresh[:, skip:]])
        # the slot of each cell: its own if new, else the one above it
        src = np.zeros((len(block) + 1, width), np.intp)
        src[0] = cols
        src[1:][new] = np.arange(width, len(slots))
        _fill_down(src)
        src = src[1:]
        text = np.take(slots, src, axis=0)
        above = np.zeros((width, _SLOT), np.uint8)
        above[:, skip:] = text[-1]
        above_pad = pad[src[-1]]
        # rows end in a newline, the block's last row in nothing
        text[:, -1, -1] = ord("\n")
        chunk = str(text.reshape(-1)[:-1], "ascii")
        if pad.max() > skip:
            chunk = chunk.replace("\0", "")
        lines += chunk.split("\n")
    return lines


class Table:
    """One CSV table: a header row and the CSV line of each row.

    ``rows`` is either a 2-D float64 array, one column per header name,
    or any iterable of rows of float, int, bool and str cells, a
    generator included; each row is formatted once, into ``lines``.  An
    array goes through numpy a block of rows at a time (see
    :func:`_float_lines`); rows share one ``csv.writer`` and its buffer,
    and each cell goes through :func:`_encode`.  Both give every float
    the text of ``"%.12e" % v``.
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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="")
        self.lines = []
        for row in rows:
            if len(row) != width:
                raise ValueError(
                    f"row width {len(row)} != header width {width}")
            writer.writerow([_encode(c) for c in row])
            self.lines.append(buf.getvalue())
            buf.seek(0)
            buf.truncate()


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
            lines = [_csv_line(table.header)] + table.lines
            step = max(1, _WRITE_CHARS // (len(lines[-1]) + 1))
            with open(out / f"{name}.csv", "w", newline="") as fh:
                for start in range(0, len(lines), step):
                    fh.write("\n".join(lines[start:start + step]) + "\n")
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
