"""The row comparison of tools/ladder_rows.py, on hand-made rows."""
import importlib.util
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "ladder_rows.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ladder_rows", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FLAGS = {"bn_addition_hurts": True, "pool_removal_hurts": None}


def ladder(rows, flags=FLAGS):
    # the shape measure() writes: rows as JSON lists, flags as a JSON object
    return {"rows": [list(row) for row in rows], "flags": dict(flags)}


ROWS = [("lp3", 16, "fixed", 16, 2, ""), ("lp3", 16, "growing", 16, 2, ""),
        ("gp3+BN", 32, "fixed", 16, 1, ""), ("gp3+BN", 32, "growing", 32, 3, "")]


def test_identical_rows_and_flags(tool):
    assert tool.compare(ladder(ROWS), ladder(ROWS)) == (["identical"], True)


def test_a_moved_count_names_its_row(tool):
    after = ROWS[:2] + [("gp3+BN", 32, "fixed", 16, 2, "")] + ROWS[3:]
    lines, same = tool.compare(ladder(ROWS), ladder(after))
    assert not same
    assert lines == ["gp3+BN 32 fixed: before ['gp3+BN', 32, 'fixed', 16, 1, ''], "
                     "after ['gp3+BN', 32, 'fixed', 16, 2, '']"]


def test_a_failed_cell_names_only_its_own_rows(tool):
    # a failed cell reports one fixed row of L 1 and no growing row
    after = ROWS[:2] + [("gp3+BN", 32, "fixed", 1, 0, "NumericError: loss")]
    lines, same = tool.compare(ladder(ROWS), ladder(after))
    assert not same
    assert [line.split(":")[0] for line in lines] == ["gp3+BN 32 fixed", "gp3+BN 32 growing"]
    assert lines[1].endswith("after None")


def test_reordered_rows_differ(tool):
    lines, same = tool.compare(ladder(ROWS), ladder(ROWS[::-1]))
    assert (lines, same) == (["the same rows in another order or number"], False)


def test_flags_alone_differ(tool):
    flags = dict(FLAGS, pool_removal_hurts=False)
    lines, same = tool.compare(ladder(ROWS), ladder(ROWS, flags))
    assert not same
    assert lines == [f"flags: before {FLAGS}, after {flags}"]
