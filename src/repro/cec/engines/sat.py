"""SAT adapter: decide an output pair on the shared incremental solver.

The final (and only complete) stage of the historical ladder.  Proves
``l1 == l2`` by UNSAT in both assumption directions on the *parent's*
incremental solver — so every merge clause the sweep learned strengthens
these queries.  Each solve is bounded by the context's folded conflict
limit and, on budget-governed checks, the budget's propagation limit
and deadline (both None without a budget); an unknown solver outcome
stops the portfolio with the solver's reason code on budgeted and
unbudgeted checks alike.

When the context carries a :class:`~repro.sat.cores.CoreIndex`, each
direction is first checked against the known assumption cores (plus the
solver's root-level values): a subsumed direction is UNSAT by
construction and is retired without a solver call, counted under
``cec.sat.core_retired``; every fresh UNSAT core is fed back into the
index so later pairs benefit.

``cec.cascade.sat`` is incremented here and nowhere else — once per
*decided* obligation (NEQ on a model, EQ after both UNSATs), never on
the unknown path, whether or not the check is budget-governed.
"""

from __future__ import annotations

from repro.cec.engines.base import (
    EQ,
    NEQ,
    UNKNOWN,
    EngineAdapter,
    EngineContext,
    EngineOutcome,
    Obligation,
    extract_counterexample,
    register_engine,
    validate_counterexample,
)
from repro.runtime.budget import REASON_TIMEOUT
from repro.sat.cores import core_retires

__all__ = ["SatEngine"]


@register_engine
class SatEngine(EngineAdapter):
    name = "sat"

    def decide(self, ob: Obligation, ctx: EngineContext) -> EngineOutcome:
        """Prove both SAT directions UNSAT on the shared solver (EQ),
        extract a validated counterexample on SAT (NEQ), or report
        UNKNOWN when the conflict/propagation budget runs out.
        """
        solver = ctx.solver
        a = ctx.lit2cnf(ob.l1)
        b = ctx.lit2cnf(ob.l2)
        # UNSAT(a != b) in both directions means equal.
        for assumptions in ([a, -b], [-a, b]):
            if core_retires(solver, ctx.cores, assumptions):
                ctx.metrics.inc("cec.sat.core_retired")
                continue
            res = solver.solve(
                assumptions=assumptions,
                conflict_limit=ctx.sat_limit,
                propagation_limit=ctx.propagation_limit,
                deadline=ctx.deadline,
            )
            ctx.metrics.inc("cec.sat_queries")
            if solver.last_unknown:
                reason = solver.last_unknown_reason or REASON_TIMEOUT
                return EngineOutcome(UNKNOWN, reason=reason)
            if res.satisfiable:
                assert res.model is not None
                cex = extract_counterexample(
                    ctx.aig, res.model, ctx.lit2cnf, (ob.l1, ob.l2)
                )
                validate_counterexample(ctx.aig, cex, ob.l1, ob.l2, ob.name)
                ctx.metrics.inc("cec.cascade.sat")
                return EngineOutcome(NEQ, counterexample=cex)
            if ctx.cores is not None and res.core is not None:
                ctx.cores.add(res.core)
        ctx.metrics.inc("cec.cascade.sat")
        return EngineOutcome(EQ)
