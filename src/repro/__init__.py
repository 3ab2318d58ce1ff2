"""repro — Using Combinational Verification for Sequential Circuits.

A full reproduction of Ranjan, Singhal, Somenzi & Brayton (UCB/ERL M97/77;
DATE 1999): sequential equivalence checking of retimed-and-resynthesised
circuits by reduction to combinational verification, together with every
substrate the paper's flow depends on — circuit model & BLIF I/O, a BDD
package, a CDCL SAT solver, an AIG-based combinational equivalence checker,
SIS-style combinational synthesis, Leiserson-Saxe / Minaret-style retiming,
simulators, and the benchmark/experiment harnesses regenerating the paper's
Tables 1 and 2.

Quickstart::

    from repro import CircuitBuilder, check_sequential_equivalence
    from repro.retime import retime_min_period

    b = CircuitBuilder("toy")
    x, y = b.inputs("x", "y")
    b.output(b.latch(b.AND(x, y)), name="o")
    original = b.circuit

    retimed, old_period, new_period = retime_min_period(original)
    assert check_sequential_equivalence(original, retimed).equivalent
"""

from repro.netlist import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    Gate,
    Latch,
    Sop,
    parse_blif,
    parse_blif_file,
    validate_circuit,
    write_blif,
)
from repro.core import (
    CBF,
    EDBF,
    SeqCheckResult,
    SeqVerdict,
    check_sequential_equivalence,
    compute_cbf,
    compute_edbf,
    prepare_circuit,
    sequential_depth,
)
from repro.cec import CecVerdict, CheckResult, check_equivalence
from repro.api import (
    EXIT_EQUIVALENT,
    EXIT_NOT_EQUIVALENT,
    EXIT_UNKNOWN,
    VerificationResult,
    VerifyReport,
    VerifyRequest,
    exit_code_for_verdict,
    verify_batch,
    verify_pair,
)

__version__ = "1.5.0"

__all__ = [
    "Circuit",
    "CircuitBuilder",
    "CircuitError",
    "Gate",
    "Latch",
    "Sop",
    "parse_blif",
    "parse_blif_file",
    "write_blif",
    "validate_circuit",
    "CBF",
    "EDBF",
    "SeqCheckResult",
    "SeqVerdict",
    "check_sequential_equivalence",
    "compute_cbf",
    "compute_edbf",
    "prepare_circuit",
    "sequential_depth",
    "CecVerdict",
    "CheckResult",
    "check_equivalence",
    "EXIT_EQUIVALENT",
    "EXIT_NOT_EQUIVALENT",
    "EXIT_UNKNOWN",
    "VerificationResult",
    "VerifyReport",
    "VerifyRequest",
    "exit_code_for_verdict",
    "verify_batch",
    "verify_pair",
    "__version__",
]
