"""Acceptance gate: every shipped claim about the library, one test per criterion.

Each criterion prints its own PASS/FAIL line so a test run shows the whole
scoreboard even when everything is green.
"""

import json
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
