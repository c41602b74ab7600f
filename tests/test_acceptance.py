"""Acceptance gate: every shipped claim about the library, one test per criterion.

Each criterion prints its own PASS/FAIL line so a test run shows the whole
scoreboard even when everything is green.
"""

import itertools
import json
import math
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from quartet import acceptance, canonical


@pytest.mark.parametrize("number", [num for num, _, _, _ in acceptance.CRITERIA],
                         ids=[name for _, name, _, _ in acceptance.CRITERIA])
def test_criterion(number, capsys):
    result = acceptance.run_one(number)
    with capsys.disabled():
        print(acceptance.format_line(result))
    assert result.duration_seconds <= result.budget_seconds
    assert result.passed, result.details


def test_result_json_encodes():
    # Criterion 3 measures numpy values; its verdict is still a JSON bool.
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


def test_a_check_passes_only_strictly_below_its_bound():
    assert acceptance.verdict([("a", [1e-9, 2e-9], 2e-9)]) == (False, "a 2.00e-09 (tol 2e-09)")
    assert acceptance.verdict([("a", [1e-9, np.nextafter(2e-9, 0.0)], 2e-9)])[0] is True
    assert acceptance.verdict([("a", [1e-9, math.nan, 0.0], 2e-9)])[0] is False
    assert acceptance.verdict([("a", [], 2e-9)]) == (False, "a nan (tol 2e-09)")


def test_the_details_name_every_check_in_order_then_the_notes():
    passed, details = acceptance.verdict(
        [("first", [3e-12], 1e-10), ("second", [[0.5, 0.25], [0.75, 0.0]], 1e-10)],
        ["note one", "note two"])
    assert passed is False
    assert details == ("first 3.00e-12 (tol 1e-10); second 7.50e-01 (tol 1e-10); "
                       "note one; note two")


def test_a_nan_pair_entropy_of_m4_fails_criterion_1(monkeypatch):
    real_profile = acceptance.profile

    def profile(s):
        p = real_profile(s)
        if p.average != pytest.approx(acceptance.TARGET_AVERAGE, abs=1e-9):
            return p
        return replace(p, entries={**p.entries, "BC": math.nan})

    monkeypatch.setattr(acceptance, "profile", profile)
    passed, details = acceptance.criterion_entropy_profiles()
    assert not passed
    assert "M4 profile deviation nan (tol 1e-10)" in details


def test_a_nan_zero_residual_fails_criterion_6(monkeypatch):
    real_canonicalize = canonical.canonicalize
    calls = itertools.count()

    def canonicalize(s, **kwargs):
        form = real_canonicalize(s, **kwargs)
        if next(calls) == 37:
            return replace(form, zero_residual=math.nan)
        return form

    monkeypatch.setattr(canonical, "canonicalize", canonicalize)
    passed, details = acceptance.criterion_canonical_form()
    assert not passed
    assert "worst zero_residual nan (tol 1e-08)" in details
