"""One ``verify_pair`` sorts each input circuit once.

Validation computes each input circuit's ``topo_gates()``, and the check
hands that order to classification, preparation, CBF/EDBF computation and
the counterexample minimiser, replay and refutation search, instead of
each sorting the circuit again.  The lowered H/J pair is built in
topological order, so its sort (in the AIG import) is ``topo_gates``'
linear pass and never reaches the depth-first search.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

import pytest

from repro.api import VerifyRequest, verify_pair
from repro.bench.industrial import build_table2_circuit
from repro.bench.iscas_like import build_table1_circuit
from repro.bench.mutations import sample_mutations
from repro.core.expose import prepare_circuit
from repro.netlist.circuit import Circuit
from repro.synth.script import optimize_sequential_delay
from tests.cec.test_sweep_trajectory import table1_pair


class SortLog:
    """Per circuit object: ``topo_gates`` calls, and those that searched."""

    def __init__(self, monkeypatch) -> None:
        self.calls: Counter = Counter()
        self.searches: Counter = Counter()
        self.circuits: Dict[int, Circuit] = {}
        for attr, counter in (
            ("topo_gates", self.calls),
            ("_topo_search", self.searches),
        ):
            original = getattr(Circuit, attr, None)

            def counted(circuit, original=original, counter=counter):
                counter[id(circuit)] += 1
                self.circuits[id(circuit)] = circuit
                return original(circuit)

            monkeypatch.setattr(Circuit, attr, counted, raising=False)


def verify_and_count(monkeypatch, golden, revised):
    log = SortLog(monkeypatch)
    report = verify_pair(VerifyRequest(golden=golden, revised=revised))
    monkeypatch.undo()
    for circuit in (golden, revised):
        assert log.calls[id(circuit)] <= 1, circuit.name
    lowered = [c for c in log.circuits.values() if c.name.endswith(("_H", "_J"))]
    assert len(lowered) == 2
    for circuit in lowered:
        assert log.calls[id(circuit)] == 1, circuit.name
        assert log.searches[id(circuit)] == 0, circuit.name
    return report


def test_equivalent_cbf_pair(monkeypatch):
    golden, revised = table1_pair("s953")
    report = verify_and_count(monkeypatch, golden, revised)
    assert (report.verdict, report.method) == ("equivalent", "cbf")


def test_edbf_pair(monkeypatch):
    golden = prepare_circuit(build_table2_circuit("ex10"), use_unateness=True).circuit
    revised = optimize_sequential_delay(golden, name="ex10_C")
    report = verify_and_count(monkeypatch, golden, revised)
    assert (report.verdict, report.method) == ("equivalent", "edbf")


def test_feedback_pair_is_prepared_on_the_validation_order(monkeypatch):
    golden = build_table1_circuit("minmax10")
    revised = golden.copy("minmax10_copy")
    report = verify_and_count(monkeypatch, golden, revised)
    assert (report.verdict, report.method) == ("equivalent", "edbf")
    assert (report.stats["exposed"], report.stats["remodelled"]) == (18, 2)


def test_refuted_cbf_mutant_with_its_witness(monkeypatch):
    golden, revised = table1_pair("s953")
    for _, mutant in sample_mutations(revised, 40, 0):
        report = verify_pair(VerifyRequest(golden=golden, revised=mutant))
        if report.verdict == "not_equivalent":
            break
    else:
        pytest.fail("no refuted mutant")
    report = verify_and_count(monkeypatch, golden, mutant)
    assert (report.verdict, report.method) == ("not_equivalent", "cbf")
    # The witness was minimised and replayed on the original circuits.
    assert report.counterexample and report.stats["cex_confirmed"] == 1.0
