"""Pluggable CEC proof engines: the adapter protocol plus the built-ins.

Importing this package registers the four built-in adapters —
``structural``, ``sim``, ``bdd``, ``sat`` — with the registry in
:mod:`repro.cec.engines.base`.  :func:`repro.cec.check_equivalence`
walks a portfolio of them, in order, for every output pair.
"""

from repro.cec.engines.base import (
    DEFAULT_BDD_NODE_LIMIT,
    PASS,
    UNKNOWN,
    EngineAdapter,
    EngineContext,
    EngineOutcome,
    Obligation,
    available_engines,
    extract_counterexample,
    get_engine,
    lit_word,
    register_engine,
    resolve_portfolio,
    validate_counterexample,
)
from repro.cec.engines.bdd import BddEngine, bdd_decide_pair
from repro.cec.engines.sat import SatEngine
from repro.cec.engines.sim import SimEngine, sim_refute_pair
from repro.cec.engines.structural import StructuralEngine

__all__ = [
    "DEFAULT_BDD_NODE_LIMIT",
    "PASS",
    "UNKNOWN",
    "EngineAdapter",
    "EngineContext",
    "EngineOutcome",
    "Obligation",
    "available_engines",
    "get_engine",
    "register_engine",
    "resolve_portfolio",
    "extract_counterexample",
    "validate_counterexample",
    "lit_word",
    "sim_refute_pair",
    "bdd_decide_pair",
    "StructuralEngine",
    "SimEngine",
    "BddEngine",
    "SatEngine",
]
