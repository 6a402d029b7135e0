"""Result bundle write and CSV formatting guarantees."""

import contextlib
import filecmp
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

from geoflow import bundle, cli
from geoflow.bundle import (_BLOCK_CELLS, ResultBundle, Table, _csv_line,
                            _encode)


def sample_bundle():
    b = ResultBundle(command="chain", config={"n_beads": 3, "t_plus": 2.0},
                     seed=7, verdicts=["warming-faster"])
    b.add_table("numbers", ["t", "value", "count", "flag", "label"],
                [[0.0, 1.0 / 3.0, 4, True, "ok"],
                 [0.5, float("nan"), 5, False, "singular"]])
    b.wall_time_s = 0.25
    return b


def test_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        Table(header=["a", "b"], rows=[[1.0]])


def test_table_name_must_be_filename_safe():
    b = sample_bundle()
    with pytest.raises(ValueError):
        b.add_table("../escape", ["a"], [[1.0]])


def test_round_trip_handles_nan(tmp_path):
    b = sample_bundle()
    b.write(tmp_path / "run")
    text = (tmp_path / "run" / "numbers.csv").read_text()
    assert text.splitlines()[2] == "5.000000000000e-01,nan,5,false,singular"


def test_rewrite_is_byte_identical(tmp_path):
    b = sample_bundle()
    b.write(tmp_path / "one")
    b.write(tmp_path / "two")
    for name in ("numbers.csv", "metadata.json"):
        assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "two" / name,
                           shallow=False)


def test_csv_format_contract(tmp_path):
    b = sample_bundle()
    b.write(tmp_path / "run")
    raw = (tmp_path / "run" / "numbers.csv").read_bytes()
    assert b"\r" not in raw
    text = raw.decode()
    assert text.splitlines()[0] == "t,value,count,flag,label"
    assert "3.333333333333e-01" in text


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e308, -1e308, 1.0 / 3.0)


_FLOATS = (hst.floats(allow_nan=True, allow_infinity=True)
           | hst.sampled_from(_EDGE_FLOATS))


#: row counts as (blocks, rows more): one or two rows, and either side of
#: the end of the first block of rows
_ROW_COUNTS = ((0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (1, 2))


@given(pool=hst.lists(_FLOATS, min_size=1, max_size=6),
       width=hst.integers(1, 6), n_rows=hst.sampled_from(_ROW_COUNTS),
       seed=hst.integers(0, 2**32 - 1))
@example(pool=[0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324], width=3,
         n_rows=(1, 2), seed=0)
def test_float_rows_take_either_path_to_the_same_text(pool, width, n_rows,
                                                      seed):
    # an array table formats a block of rows at a time, and a cell with
    # the bits of the cell above it once; a list of rows sends the same
    # floats through the per-cell encoder and the csv writer.  Cells drawn
    # from a small pool repeat, within a block and across block boundaries
    blocks, more = n_rows
    n_rows = blocks * (_BLOCK_CELLS // width) + more
    idx = np.random.default_rng(seed).integers(len(pool), size=(n_rows, width))
    values = np.array(pool)[idx]
    rows = values.tolist()
    header = [f"c{i}" for i in range(width)]
    lines = Table(header, values).lines
    assert lines == [_csv_line([_encode(c) for c in row]) for row in rows]
    mixed = Table(header + ["label"], [row + ["x"] for row in rows]).lines
    assert mixed == [line + ",x" for line in lines]
    # -0.0, +-inf and nan read as "%.12e" renders them
    assert ([line.split(",") for line in lines]
            == [["%.12e" % v for v in row] for row in rows])


def test_float_table_needs_a_2d_float_array_of_the_header_width():
    for bad in (np.zeros(3), np.zeros((2, 3, 1)), np.zeros((2, 2)),
                np.zeros((2, 4)), np.zeros((2, 3), dtype=int)):
        with pytest.raises(ValueError):
            Table(["a", "b", "c"], bad)
    assert Table(["a", "b"], np.zeros((0, 2))).lines == []


def test_float_table_round_trips(tmp_path):
    b = sample_bundle()
    values = np.tile([[0.0, -0.0, math.nan], [math.inf, -math.inf, 5e-324]],
                     (40, 1))
    b.add_table("floats", ["x", "y", "z"], values)
    b.write(tmp_path / "run")
    lines = (tmp_path / "run" / "floats.csv").read_text().splitlines()
    assert lines == ["x,y,z"] + [_csv_line([_encode(c) for c in row])
                                 for row in values.tolist()]


def _bits(*values):
    return [int(b) for b in np.array(values).view(np.uint64)]


@given(bits=hst.lists(hst.integers(0, 2**64 - 1), min_size=1, max_size=64))
# an exact tie at the 13th digit
@example(bits=_bits(1234567890123.5, -1234567890123.5))
# carries into the next decade, into a third exponent digit included
@example(bits=_bits(*(float(f"{s}{m}e{k}") for s in "+-"
                      for m in ("9.9999999999995", "9.99999999999996",
                                "9.9999999999997")
                      for k in (0, 1, -1, 98, -98, 99, -99, 100, -100))))
# the edge of exact powers of ten
@example(bits=_bits(1e22, 1e23, 1e-22, 1e-23, -1e22, -1e23, -1e-22, -1e-23))
@example(bits=_bits(5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                    -0.0, 0.0, -5e-324, -1.7976931348623157e308))
def test_each_float_cell_reads_as_percent_e(bits):
    # raw 64-bit patterns: nan payloads of either sign, subnormals, both
    # infinities and every exponent, in one column and in one row
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    want = ["%.12e" % v for v in values.tolist()]
    assert Table(["x"], values[:, None]).lines == want
    header = [f"c{i}" for i in range(len(values))]
    assert Table(header, values[None, :]).lines == [",".join(want)]


def _count_fallbacks(monkeypatch, argv):
    """(cells through the per-cell fallback, finite cells) of the float
    tables that the CLI run of ``argv`` builds."""
    counts = {"fallback": 0, "finite": 0}
    fallback, float_lines = bundle._fallback, bundle._float_lines

    def counted_fallback(v):
        counts["fallback"] += 1
        return fallback(v)

    def counted_lines(a):
        counts["finite"] += int(np.isfinite(a).sum())
        return float_lines(a)

    monkeypatch.setattr(bundle, "_fallback", counted_fallback)
    monkeypatch.setattr(bundle, "_float_lines", counted_lines)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    return counts["fallback"], counts["finite"]


def test_few_float_cells_take_the_slow_route(tmp_path, monkeypatch):
    # the numpy route settles all but the cells near a half, so at most 2%
    # of the finite cells pay a Python call each: a deterministic stand-in
    # for the formatting time
    chain = ["chain", "--n-beads", "12", "--t-plus", "2",
             "--out", str(tmp_path / "chain")]
    bowl = ["compare", "--model", "euclidean-quadratic",
            "--direction1=0.3,-1.2", "--direction2=1.0,0.4", "--level", "0.5",
            "--t-end", "12", "--out", str(tmp_path / "bowl")]
    for argv, min_cells in ((chain, 13_000), (bowl, 2_000)):
        slow, finite = _count_fallbacks(monkeypatch, argv)
        assert finite >= min_cells
        assert slow <= 0.02 * finite


def test_float_table_scratch_memory_is_bounded():
    # blocks of rows bound the formatting's scratch arrays: the peak
    # stays within the lines it returns plus a fixed 2 MB
    rng = np.random.default_rng(0)
    values = rng.standard_normal((100_000, 8)) * 10.0 ** rng.integers(
        -30, 30, (100_000, 8))
    tracemalloc.start()
    try:
        lines = Table([f"c{i}" for i in range(8)], values).lines
        result, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lines) == 100_000
    assert peak < result + 2 * 2**20
