"""The SAT-query gate: the sweep benchmark's query totals, exactly.

``benchmarks/bench_cec.py`` runs 11 circuit pairs under 4 engine modes
(refinement × preprocessing, each naming the structural-then-SAT
portfolio, so no truth-table phase runs) and records every mode's
SAT-query and core-retirement totals in the checked-in
``BENCH_cec.json``.  The totals follow from the exact search trajectory,
so they are deterministic: this test re-runs the matrix and holds each
mode to its recorded totals — a change that spends even one more query,
or retires one fewer, fails here.  It also asserts the benchmark's
acceptance criterion, that no pair's verdict depends on the mode, with
the default check as a fifth column.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.bench_cec import MODES, NARROW, corpus
from repro.cec import check_equivalence

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_cec.json"


@pytest.fixture(scope="module")
def matrix():
    """``{mode: {"sat_queries", "core_retired"}}`` totals plus verdicts.

    The verdicts also hold a ``default`` column: the check with no named
    portfolio, whose truth-table phase may decide a pair before any SAT
    query.
    """
    totals = {mode: {"sat_queries": 0, "core_retired": 0} for mode, _ in MODES}
    verdicts = {}
    for name, golden, revised in corpus():
        for mode, options in MODES:
            result = check_equivalence(golden, revised, options, **NARROW)
            verdicts.setdefault(name, {})[mode] = result.verdict.value
            for key in totals[mode]:
                totals[mode][key] += int(result.stats[key])
        result = check_equivalence(golden, revised, **NARROW)
        verdicts[name]["default"] = result.verdict.value
    return totals, verdicts


def test_no_verdict_depends_on_the_mode(matrix):
    _, verdicts = matrix
    assert len(verdicts) == 11
    assert all(len(by_mode) == len(MODES) + 1 for by_mode in verdicts.values())
    split = {
        name: by_mode
        for name, by_mode in verdicts.items()
        if len(set(by_mode.values())) != 1
    }
    assert not split


@pytest.mark.parametrize("mode", [mode for mode, _ in MODES])
def test_totals_equal_the_checked_in_baseline(matrix, mode):
    totals, _ = matrix
    recorded = json.loads(BASELINE.read_text())["totals"][mode]
    assert totals[mode] == {
        "sat_queries": recorded["sat_queries"],
        "core_retired": recorded["core_retired"],
    }
