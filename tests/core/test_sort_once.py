"""One ``verify_pair`` sorts each circuit it reads once.

Validation computes each input circuit's ``topo_gates()``, and the check
hands that order to classification, preparation, CBF/EDBF computation and
the counterexample minimiser, replay and refutation search, instead of
each sorting the circuit again.  A prepared circuit is sorted once, by
:func:`prepare_circuit`'s check for leftover feedback, and the check
classifies and lowers it on that order.  The CBF/EDBF pair is lowered
straight into the miter AIG, so no lowered H/J circuit is built or sorted.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

import pytest

import repro.core.verify as core_verify
from repro.api import VerifyRequest, verify_pair
from repro.bench.industrial import build_table2_circuit
from repro.bench.iscas_like import build_table1_circuit
from repro.bench.mutations import sample_mutations
from repro.core.expose import prepare_circuit
from repro.netlist.circuit import Circuit
from repro.synth.script import optimize_sequential_delay
from tests.cec.test_sweep_trajectory import table1_pair


class SortLog:
    """Per circuit object: ``topo_gates`` calls; the names of new circuits."""

    def __init__(self, monkeypatch) -> None:
        self.calls: Counter = Counter()
        self.circuits: Dict[int, Circuit] = {}
        self.built: List[str] = []
        original_sort = Circuit.topo_gates
        original_init = Circuit.__init__

        def counted(circuit):
            self.calls[id(circuit)] += 1
            self.circuits[id(circuit)] = circuit
            return original_sort(circuit)

        def built(circuit, *args, **kwargs):
            original_init(circuit, *args, **kwargs)
            self.built.append(circuit.name)

        monkeypatch.setattr(Circuit, "topo_gates", counted)
        monkeypatch.setattr(Circuit, "__init__", built)


def verify_and_count(monkeypatch, golden, revised):
    log = SortLog(monkeypatch)
    report = verify_pair(VerifyRequest(golden=golden, revised=revised))
    monkeypatch.undo()
    for circuit in (golden, revised):
        assert log.calls[id(circuit)] <= 1, circuit.name
    lowered = ("_H", "_J", "_cbf", "_edbf")
    assert [name for name in log.built if name.endswith(lowered)] == []
    sorted_names = [c.name for c in log.circuits.values()]
    assert [name for name in sorted_names if name.endswith(lowered)] == []
    return report, log


def test_equivalent_cbf_pair(monkeypatch):
    golden, revised = table1_pair("s953")
    report, log = verify_and_count(monkeypatch, golden, revised)
    assert (report.verdict, report.method) == ("equivalent", "cbf")
    # Validation's two sorts are the only ones.
    assert sum(log.calls.values()) == 2


def test_edbf_pair(monkeypatch):
    golden = prepare_circuit(build_table2_circuit("ex10"), use_unateness=True).circuit
    revised = optimize_sequential_delay(golden, name="ex10_C")
    report, log = verify_and_count(monkeypatch, golden, revised)
    assert (report.verdict, report.method) == ("equivalent", "edbf")
    assert sum(log.calls.values()) == 2


def test_feedback_pair_is_prepared_on_the_validation_order(monkeypatch):
    golden = build_table1_circuit("minmax10")
    revised = golden.copy("minmax10_copy")
    prepared = []

    def spy(circuit, *args, **kwargs):
        result = prepare_circuit(circuit, *args, **kwargs)
        prepared.append(result)
        return result

    monkeypatch.setattr(core_verify, "prepare_circuit", spy)
    report, log = verify_and_count(monkeypatch, golden, revised)
    assert (report.verdict, report.method) == ("equivalent", "edbf")
    assert (report.stats["exposed"], report.stats["remodelled"]) == (18, 2)
    assert len(prepared) == 2
    for prep in prepared:
        assert prep.order == prep.circuit.topo_gates()
        assert log.calls[id(prep.circuit)] == 1, prep.circuit.name


def test_refuted_cbf_mutant_with_its_witness(monkeypatch):
    golden, revised = table1_pair("s953")
    for _, mutant in sample_mutations(revised, 40, 0):
        report = verify_pair(VerifyRequest(golden=golden, revised=mutant))
        if report.verdict == "not_equivalent":
            break
    else:
        pytest.fail("no refuted mutant")
    report, _ = verify_and_count(monkeypatch, golden, mutant)
    assert (report.verdict, report.method) == ("not_equivalent", "cbf")
    # The witness was minimised and replayed on the original circuits.
    assert report.counterexample and report.stats["cex_confirmed"] == 1.0
