"""The pass/fail rule of tools/accuracy_gate.py, on hand-made accuracies."""
import importlib.util
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parents[1] / "tools" / "accuracy_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("accuracy_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# accuracies over 64 held-out pairs are multiples of 1/64, exact in binary
BEFORE = {"lp": [20, 24, 18, 22, 25], "gp": [19, 21, 23, 17, 20], "rn": [16, 26, 22, 21, 19]}


def accuracies(counts):
    return {family: [c / 64 for c in cs] for family, cs in counts.items()}


def verdicts(lines):
    return {row.split("|")[1].strip(): row.split("|")[-2].strip()
            for row in lines if row.endswith(("pass |", "FAIL |"))}


def test_identical_accuracies_pass(gate):
    lines, passed = gate.compare(accuracies(BEFORE), accuracies(BEFORE))
    assert passed
    assert verdicts(lines) == {"lp": "pass", "gp": "pass", "rn": "pass"}


def test_uniform_drop_in_one_family_fails(gate):
    # every seed loses 2 pairs: the paired SE is 0, so any drop fails
    after = dict(BEFORE, gp=[c - 2 for c in BEFORE["gp"]])
    lines, passed = gate.compare(accuracies(BEFORE), accuracies(after))
    assert not passed
    assert verdicts(lines) == {"lp": "pass", "gp": "FAIL", "rn": "pass"}


def test_drop_within_one_paired_se_passes(gate):
    # differences +2 -4 +1 -3 +2 pairs: mean -0.4, paired SE about 1.29
    after = dict(BEFORE, rn=[c + d for c, d in zip(BEFORE["rn"], (2, -4, 1, -3, 2))])
    lines, passed = gate.compare(accuracies(BEFORE), accuracies(after))
    assert passed
    assert verdicts(lines)["rn"] == "pass"
