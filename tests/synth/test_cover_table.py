"""The cover table: a shared table changes no circuit, and its keys hold."""

from __future__ import annotations

import pytest

from repro.bench.industrial import build_table2_circuit
from repro.core.expose import prepare_circuit
from repro.flows.table1 import QUICK_SET
from repro.netlist.cube import Sop
from repro.synth.script import optimize_sequential_delay
from tests.synth.row_calls import CountingTable, record_row, same_netlist


@pytest.mark.parametrize("name", QUICK_SET)
def test_row_table_gives_the_fresh_table_circuits(name):
    """Each of a row's five calls, rerun with a table of its own."""
    calls = record_row(name).synthesis
    assert [call.name for call in calls] == [
        f"{name}_{tag}" for tag in ("D", "C0", "C", "E", "F")
    ]
    assert all(call.table is calls[0].table for call in calls)
    for call in calls:
        fresh = optimize_sequential_delay(call.circuit, call.effort, name=call.name)
        assert same_netlist(call.result, fresh), call.name


def test_edbf_setups_share_one_table():
    """The EDBF pairs' C circuits, as the verify benchmark builds them."""
    table = CountingTable()
    for name in ("ex5", "ex10", "ex11"):
        b = prepare_circuit(build_table2_circuit(name), use_unateness=True).circuit
        shared = optimize_sequential_delay(b, name=name + "_C", table=table)
        fresh = optimize_sequential_delay(b, name=name + "_C")
        assert same_netlist(shared, fresh), name
    work = table.work()
    assert work["minimized"] < work["minimize_asks"]
    assert work["composed"] < work["compose_asks"]


def test_row_counts_pinned():
    """s953's row: covers asked for, and covers worked on, per question.

    A key that misses where it should hit (one holding a name, say)
    raises the worked-on counts; one that hits where it should miss
    lowers them.
    """
    table = record_row("s953").synthesis[0].table
    assert table.work() == {
        "minimize_asks": 36,
        "minimized": 14,
        "compose_asks": 159,
        "composed": 53,
    }


def test_minimized_once_per_cover_and_guard():
    sop = Sop(3, ("11-", "1-1", "111", "0--", "01-"))
    table = CountingTable()
    assert table.minimized(sop, True) == sop.minimized()
    assert table.minimized(Sop(3, sop.cubes), True) is table.minimized(sop, True)
    assert table.minimized(sop, False) == sop.scc_minimal()
    assert table.work() == {
        "minimize_asks": 4,
        "minimized": 2,
        "compose_asks": 0,
        "composed": 0,
    }
