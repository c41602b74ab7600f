"""Acceptance gate: every shipped claim about the library, one test per criterion.

Each criterion prints its own PASS/FAIL line so a test run shows the whole
scoreboard even when everything is green.
"""

import json
import time
from dataclasses import asdict

import pytest

from quartet import acceptance


@pytest.mark.parametrize("number", [num for num, _, _, _ in acceptance.CRITERIA],
                         ids=[name for _, name, _, _ in acceptance.CRITERIA])
def test_criterion(number, capsys):
    result = acceptance.run_one(number)
    with capsys.disabled():
        print(acceptance.format_line(result))
    assert result.duration_seconds <= result.budget_seconds
    assert result.passed, result.details


def test_result_json_encodes():
    # Criterion 3 builds its verdict from numpy comparisons.
    payload = json.loads(json.dumps(asdict(acceptance.run_one(3))))
    assert payload["passed"] is True


def test_an_unknown_criterion_number_raises():
    with pytest.raises(ValueError, match="no criterion numbered 9"):
        acceptance.run_one(9)


def test_a_criterion_over_its_budget_fails(monkeypatch):
    def slow():
        time.sleep(1e-3)
        return True, "ok"

    monkeypatch.setattr(acceptance, "CRITERIA", ((1, "stub", slow, 0.0),))
    result = acceptance.run_one(1)
    assert not result.passed
    assert result.details.startswith("ok; OVER BUDGET ")


def test_run_all_yields_one_result_per_criterion_in_order(monkeypatch):
    rows = tuple((num, f"stub-{num}", lambda num=num: (num != 2, f"row {num}"), 60.0)
                 for num in (3, 1, 2))
    monkeypatch.setattr(acceptance, "CRITERIA", rows)
    results = list(acceptance.run_all())
    assert [(r.number, r.name, r.passed, r.details) for r in results] == [
        (3, "stub-3", True, "row 3"), (1, "stub-1", True, "row 1"), (2, "stub-2", False, "row 2")]
