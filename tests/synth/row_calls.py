"""The synthesis and mapping calls of Table 1 rows, each row recorded once.

:func:`record_row` runs one row of the Fig. 19 flow without its
verification step and keeps what its five ``optimize_sequential_delay``
calls were given and gave back, and what each ``tech_map`` call was
given.  The cover-table and fanout-limit tests replay those calls against
fresh tables and against the fanout oracle.  The row's table is a
:class:`CountingTable`, so a test can read how much work it was asked for.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional

import pytest

from repro.bench.iscas_like import build_table1_circuit
from repro.flows import flow
from repro.netlist.circuit import Circuit
from repro.synth.network import CoverTable

__all__ = [
    "CountingTable",
    "SynthesisCall",
    "RowCalls",
    "record_row",
    "same_netlist",
]


class CountingTable(CoverTable):
    """A cover table that counts the questions asked of it."""

    def __init__(self) -> None:
        super().__init__()
        self.minimize_asks = 0
        self.compose_asks = 0

    def minimized(self, sop, full):
        self.minimize_asks += 1
        return super().minimized(sop, full)

    def compose(self, *args):
        self.compose_asks += 1
        return super().compose(*args)

    def work(self) -> Dict[str, int]:
        """Questions asked and answers computed so far, per kind."""
        return {
            "minimize_asks": self.minimize_asks,
            "minimized": len(self._minimized),
            "compose_asks": self.compose_asks,
            "composed": len(self._composed),
        }


@dataclass
class SynthesisCall:
    """One ``optimize_sequential_delay`` call of a row."""

    circuit: Circuit
    effort: str
    name: Optional[str]
    table: Optional[CoverTable]
    result: Circuit


@dataclass
class RowCalls:
    """A row's synthesis calls, in order, and its mapped circuits by name."""

    synthesis: List[SynthesisCall]
    mapped: Dict[str, Circuit]


@functools.lru_cache(maxsize=None)
def record_row(name: str) -> RowCalls:
    """Run the flow of Table 1 row ``name`` (no verification), recording."""
    row = RowCalls([], {})
    synthesise = flow.optimize_sequential_delay
    tech_map = flow.tech_map

    def recording_synthesis(circuit, effort="medium", name=None, table=None):
        given = circuit.copy()
        result = synthesise(circuit, effort, name=name, table=table)
        row.synthesis.append(SynthesisCall(given, effort, name, table, result))
        return result

    def recording_map(circuit):
        row.mapped[circuit.name] = circuit.copy()
        return tech_map(circuit)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow, "optimize_sequential_delay", recording_synthesis)
        patch.setattr(flow, "tech_map", recording_map)
        patch.setattr(flow, "CoverTable", CountingTable)
        flow.run_flow(build_table1_circuit(name), verify=False)
    return row


def same_netlist(a: Circuit, b: Circuit) -> bool:
    """Identical gate for gate: names, ``gates`` order, fanins and covers."""
    return (
        list(a.gates.items()) == list(b.gates.items())
        and list(a.latches.items()) == list(b.latches.items())
        and a.inputs == b.inputs
        and a.outputs == b.outputs
    )
