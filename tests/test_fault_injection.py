"""Fault-injection validation of the sequential checker.

The critical two-sided property: the checker must flag every behaviourally
*visible* fault (no false EQUIVALENT) and must not raise a false alarm on
*masked* faults (functionally invisible mutations).  The simulation oracle
decides visibility; the checker must agree.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.mutations import apply_mutation, enumerate_mutations, sample_mutations
from repro.bench.pipeline import fig3_circuit, pipeline_circuit, trapped_latch_circuit
from repro.core.verify import SeqVerdict, check_sequential_equivalence
from repro.netlist.validate import validate_circuit
from repro.sim.exact3 import exact3_equivalent


def visible(circuit, mutant, seed=0, warmup=0) -> bool:
    """Is the fault observable by some concrete execution?

    ``warmup > 0`` switches to the unknown-past semantics the CBF/EDBF
    reduction encodes (see EXPERIMENTS.md finding 2): transient-only
    differences — a mutant whose early-cycle output is a constant where the
    original's is power-up garbage — are *safe replacements* and are not
    counted as visible under that reading.
    """
    rng = random.Random(seed)
    seqs = [
        [{i: rng.random() < 0.5 for i in circuit.inputs} for _ in range(6)]
        for _ in range(120)
    ]
    return not exact3_equivalent(circuit, mutant, seqs, warmup=warmup)


class TestEnumerate:
    def test_covers_all_fault_kinds(self):
        c = pipeline_circuit(stages=2, width=3, seed=3, enable=True)
        kinds = {m.kind for m in enumerate_mutations(c)}
        assert {"stuck_at_0", "stuck_at_1", "negation", "wrong_gate"} <= kinds
        assert "latch_bypass" in kinds
        assert "enable_stuck" in kinds

    def test_mutants_are_valid_circuits(self):
        c = pipeline_circuit(stages=2, width=3, seed=3)
        for mutation in enumerate_mutations(c)[:20]:
            mutant = apply_mutation(c, mutation)
            validate_circuit(mutant)
            assert set(mutant.inputs) == set(c.inputs)
            assert set(mutant.outputs) == set(c.outputs)

    def test_describe(self):
        c = fig3_circuit()
        m = enumerate_mutations(c)[0]
        assert m.target in m.describe()


class TestCheckerAgainstFaults:
    @pytest.mark.parametrize(
        "builder,seed",
        [
            (lambda: fig3_circuit(), 0),
            (lambda: pipeline_circuit(stages=2, width=3, seed=1), 1),
            (lambda: trapped_latch_circuit(width=3, seed=2), 2),
        ],
    )
    def test_regular_circuits_two_sided(self, builder, seed):
        circuit = builder()
        caught, errors = 0, []
        for mutation, mutant in sample_mutations(circuit, count=12, seed=seed):
            result = check_sequential_equivalence(circuit, mutant)
            if visible(circuit, mutant, seed, warmup=8):
                # Observable after any unknown past: must be flagged.
                if result.verdict is SeqVerdict.EQUIVALENT:
                    errors.append(f"missed visible fault {mutation.describe()}")
                else:
                    caught += 1
            elif not visible(circuit, mutant, seed, warmup=0):
                # Invisible even to strict Def. 1: must not raise an alarm.
                if result.verdict is SeqVerdict.NOT_EQUIVALENT:
                    errors.append(f"false alarm on masked {mutation.describe()}")
        assert not errors, errors
        assert caught > 0  # the sample contained real bugs

    def test_enabled_circuit_never_false_equivalent(self):
        circuit = pipeline_circuit(stages=2, width=3, seed=4, enable=True)
        for mutation, mutant in sample_mutations(circuit, count=10, seed=4):
            result = check_sequential_equivalence(circuit, mutant)
            # Visibility under the unknown-past reading (warmup): a fault
            # observable by a concrete post-warmup execution must never be
            # blessed.  (Transient-only ⊥-vs-defined differences are safe
            # replacements; the EDBF reduction deliberately accepts them —
            # EXPERIMENTS.md finding 2.)
            if visible(circuit, mutant, 4, warmup=8):
                assert result.verdict is not SeqVerdict.EQUIVALENT, (
                    mutation.describe()
                )

    def test_latch_bypass_is_caught(self):
        """The classic off-by-one-cycle bug must always be found."""
        circuit = fig3_circuit()
        mutation = next(
            m
            for m in enumerate_mutations(circuit)
            if m.kind == "latch_bypass"
        )
        mutant = apply_mutation(circuit, mutation)
        result = check_sequential_equivalence(circuit, mutant)
        assert result.verdict is SeqVerdict.NOT_EQUIVALENT
        assert result.counterexample is not None

    def test_enable_stuck_is_flagged(self):
        """Tying an enable high removes the hold path — a real bug."""
        b_seed = 5
        circuit = pipeline_circuit(stages=2, width=2, seed=b_seed, enable=True)
        mutation = next(
            m
            for m in enumerate_mutations(circuit)
            if m.kind == "enable_stuck"
        )
        mutant = apply_mutation(circuit, mutation)
        if visible(circuit, mutant, b_seed):
            result = check_sequential_equivalence(circuit, mutant)
            assert result.verdict is not SeqVerdict.EQUIVALENT


class TestResourceFaults:
    """Resource exhaustion must degrade to UNKNOWN, never flip a verdict.

    The one-sided soundness contract under injected budgets/faults:

    * a *visible* fault may come back NOT_EQUIVALENT or UNKNOWN, never
      EQUIVALENT (no false proof under starvation);
    * a *masked* mutation may come back EQUIVALENT or UNKNOWN, never
      NOT_EQUIVALENT (resource limits cannot conjure a counterexample);
    * a killed sweep worker changes nothing at all versus the serial run.
    """

    def _mutant_pairs(self, seed=0, count=8):
        circuit = fig3_circuit()
        return circuit, list(sample_mutations(circuit, count=count, seed=seed))

    def test_bdd_starvation_never_flips_verdicts(self):
        from repro.cec import CecOptions
        from repro.runtime.budget import Budget

        circuit, pairs = self._mutant_pairs(seed=11)
        ladder = CecOptions(engines=("structural", "sim", "bdd", "sat"))
        for mutation, mutant in pairs:
            baseline = check_sequential_equivalence(circuit, mutant)
            starved = check_sequential_equivalence(
                circuit,
                mutant,
                options=ladder,
                budget=Budget(wall_seconds=30.0, bdd_nodes=4),
            )
            assert starved.verdict in (
                baseline.verdict,
                SeqVerdict.UNKNOWN,
            ), mutation.describe()

    def test_expired_deadline_yields_unknown_not_equivalent(self):
        from repro.runtime.budget import Budget

        circuit, pairs = self._mutant_pairs(seed=12)
        flagged = False
        for mutation, mutant in pairs:
            if not visible(circuit, mutant, 12, warmup=8):
                continue
            result = check_sequential_equivalence(
                circuit, mutant, budget=Budget(wall_seconds=0.0)
            )
            # A visible fault under a dead budget: UNKNOWN is acceptable,
            # a blessing is not.
            assert result.verdict is not SeqVerdict.EQUIVALENT, (
                mutation.describe()
            )
            if result.verdict is SeqVerdict.UNKNOWN:
                assert result.reason is not None
                flagged = True
        assert flagged  # the dead budget actually bit somewhere

    def test_conflict_starvation_never_blesses_visible_fault(self):
        from repro.runtime.budget import Budget

        circuit, pairs = self._mutant_pairs(seed=13)
        for mutation, mutant in pairs:
            if not visible(circuit, mutant, 13, warmup=8):
                continue
            result = check_sequential_equivalence(
                circuit,
                mutant,
                budget=Budget(wall_seconds=30.0, sat_conflicts=1),
            )
            assert result.verdict is not SeqVerdict.EQUIVALENT, (
                mutation.describe()
            )

    def test_killed_sweep_worker_preserves_seq_verdict(self):
        from repro.cec import SAT_PORTFOLIO, CecOptions
        from repro.runtime import chaos
        from repro.runtime.chaos import FaultPlan, FaultRule

        circuit = pipeline_circuit(stages=2, width=3, seed=21)
        pairs = sample_mutations(circuit, count=4, seed=21)
        # The SAT portfolio, named: a default check decides the
        # equivalent mutants by truth tables and starts no sweep unit.
        sat_path = CecOptions(engines=SAT_PORTFOLIO)
        fired = 0
        for mutation, mutant in pairs:
            clean = check_sequential_equivalence(
                circuit, mutant, options=sat_path
            )
            plan = chaos.install(
                FaultPlan([FaultRule(site="worker.entry", action="crash")])
            )
            try:
                faulty = check_sequential_equivalence(
                    circuit, mutant, options=sat_path
                )
            finally:
                chaos.uninstall()
            assert faulty.verdict is clean.verdict, mutation.describe()
            fired += plan.fired("worker.entry")
        assert fired > 0  # some sweep unit really died
