"""Tests for the reduction of `scripts/bench_layers.py`'s paired runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "bench_layers.py")
_SPEC = importlib.util.spec_from_file_location("bench_layers", _PATH)
bench_layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_layers)


def _runs(unit, *values):
    return [{"row": (unit, value)} for value in values]


def test_columns_are_minima_and_ratio_the_median_over_rounds():
    # rounds: 10 -> 8 (0.8), 12 -> 15 (1.25), 20 -> 10 (0.5)
    rows = bench_layers.compare(_runs("us", 10.0, 12.0, 20.0), _runs("us", 8.0, 15.0, 10.0))
    assert rows == {"row": {"unit": "us", "parent": 10.0, "change": 8.0,
                            "ratio": 0.8, "wins": 2}}


def test_ties_count_for_neither_side():
    rows = bench_layers.compare(_runs("us", 5.0, 7.0, 9.0), _runs("us", 5.0, 6.0, 9.0))
    assert rows["row"]["wins"] == 1
    assert rows["row"]["ratio"] == 1.0


def test_equal_sweep_rows_read_one_and_win_nothing():
    parent = [{"solve": ("us", 40.0), "solve.sweeps": ("sweeps", 16)} for _ in range(5)]
    change = [{"solve": ("us", 30.0), "solve.sweeps": ("sweeps", 16)} for _ in range(5)]
    rows = bench_layers.compare(parent, change)
    assert rows["solve.sweeps"] == {"unit": "sweeps", "parent": 16, "change": 16,
                                    "ratio": 1.0, "wins": 0}
    assert rows["solve"]["wins"] == 5
    assert list(rows) == ["solve", "solve.sweeps"]


def test_moved_sweeps_show_in_the_ratio():
    rows = bench_layers.compare(_runs("sweeps", 16, 16), _runs("sweeps", 4, 4))
    assert rows["row"]["ratio"] == 0.25
    assert rows["row"]["wins"] == 2


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_row_on_one_side_only_is_an_error(side):
    runs = {"parent": _runs("us", 1.0), "change": _runs("us", 1.0)}
    runs[side][0]["extra"] = ("us", 2.0)
    with pytest.raises(ValueError, match="extra"):
        bench_layers.compare(runs["parent"], runs["change"])


def test_the_sides_must_have_the_same_rounds():
    with pytest.raises(ValueError):
        bench_layers.compare(_runs("us", 1.0, 2.0), _runs("us", 1.0))
