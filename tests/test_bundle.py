"""Result bundle write and CSV formatting guarantees."""

import filecmp
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

from geoflow.bundle import ResultBundle, Table, _csv_line, _encode


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


@given(pool=hst.lists(_FLOATS, min_size=1, max_size=6),
       width=hst.integers(1, 6), n_rows=hst.sampled_from([1, 2, 64, 65, 150]),
       seed=hst.integers(0, 2**32 - 1))
@example(pool=[0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324], width=3,
         n_rows=150, seed=0)
def test_float_rows_take_either_path_to_the_same_text(pool, width, n_rows,
                                                      seed):
    # an array table formats each distinct value of a 64-row block once;
    # a list of rows sends the same floats through the per-cell encoder
    # and the csv writer.  Cells drawn from a small pool repeat, within a
    # block and across block boundaries
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
