"""Retiming substrate (Leiserson-Saxe, plus a Minaret-style min-area mode).

* :mod:`repro.retime.rgraph` — the retiming graph ``G = (V, E, d, w)`` built
  from a circuit, with the host vertex convention;
* :mod:`repro.retime.minperiod` — minimum-period retiming via binary search
  over clock periods with the FEAS feasibility algorithm;
* :mod:`repro.retime.minarea` — constrained minimum-area retiming (the
  Minaret analogue [6]) via LP with lazy period-constraint generation;
* :mod:`repro.retime.apply` — applying a retiming vector back to a netlist
  (latch placement with fanout-chain sharing);
* :mod:`repro.retime.classes` — latch classes and legal class-aware moves
  (Legl et al. [9], Fig. 16);
* :mod:`repro.retime.incremental` — greedy class-aware local retiming for
  circuits with load-enabled latches (the capability the paper lacked a
  public tool for).
"""

from repro.retime.rgraph import RetimingGraph, build_retiming_graph
from repro.retime.minperiod import min_period_retiming, clock_period, feasible_retiming
from repro.retime.minarea import min_area_retiming
from repro.retime.apply import apply_retiming, retime_min_period, retime_min_area
from repro.retime.incremental import incremental_retime_enabled

__all__ = [
    "RetimingGraph",
    "build_retiming_graph",
    "min_period_retiming",
    "clock_period",
    "feasible_retiming",
    "min_area_retiming",
    "apply_retiming",
    "retime_min_period",
    "retime_min_area",
    "incremental_retime_enabled",
]
