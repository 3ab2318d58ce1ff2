"""And-Inverter Graph with structural hashing.

* :mod:`repro.aig.aig` — the :class:`AIG` container, circuit import, and
  bit-parallel big-int simulation;
* :mod:`repro.aig.rewrite` — pre-sweep preprocessing: constant
  propagation, strash, local two-level rewrites, dead-node elimination.
"""

from repro.aig.aig import AIG, aig_from_circuit, aig_to_circuit
from repro.aig.rewrite import preprocess_miter, rewrite_cone

__all__ = [
    "AIG",
    "aig_from_circuit",
    "aig_to_circuit",
    "preprocess_miter",
    "rewrite_cone",
]
