"""Counterexample-guided refinement (fraiging) loop tests.

Covers the refinement loop added to :func:`check_equivalence`: refuting
SAT models become new simulation-pattern columns, surviving classes are
re-split, and deferred in-class queries are saved outright.  Also pins
down the satellite bugfixes that rode along: constant node 0 joining
signature classes, PI-PI candidate exclusion, per-round seed mixing, and
re-simulation validation of NEQ models before they refine anything.
"""

from __future__ import annotations

import pytest

from repro.bench.random_circuits import random_combinational
from repro.cec import CecOptions
from repro.cec.engine import (
    CecVerdict,
    _class_candidates,
    _initial_signatures,
    _model_to_pattern,
    _refine_signatures,
    _round_seed,
    _signature_classes,
    check_equivalence,
)
from repro.cec.miter import build_miter
from repro.sim.logic2 import simulate

from tests.cec.test_sweep_parallel import xor_chain, xor_tree

# Narrow initial signatures: one 4-bit round aliases many inequivalent
# nodes into shared classes, which is exactly the regime refinement is
# for (the refuting models split the classes instead of SAT doing it
# pair by pair).
NARROW = dict(sim_rounds=1, sim_width=4)
REFINE = CecOptions(refine=True)
NO_REFINE = CecOptions(refine=False)


class TestRefinementConvergence:
    def test_fewer_sat_queries_than_no_refine(self):
        c1, c2 = xor_chain(16), xor_tree(16)
        refined = check_equivalence(c1, c2, REFINE, **NARROW)
        plain = check_equivalence(c1, c2, NO_REFINE, **NARROW)
        assert refined.verdict is CecVerdict.EQUIVALENT
        assert plain.verdict is CecVerdict.EQUIVALENT
        assert refined.stats["refine_rounds"] >= 1
        assert refined.stats["refine_patterns"] >= 1
        assert refined.stats["sat_queries"] < plain.stats["sat_queries"]

    def test_no_refine_disables_all_refinement_work(self):
        plain = check_equivalence(
            xor_chain(16), xor_tree(16), NO_REFINE, **NARROW
        )
        assert plain.stats["refine_rounds"] == 0
        assert plain.stats["refine_patterns"] == 0
        assert plain.stats["refine_saved"] == 0

    def test_deferred_queries_are_reported_saved(self):
        refined = check_equivalence(
            xor_chain(16), xor_tree(16), REFINE, **NARROW
        )
        # Narrow signatures produce multi-member spurious classes, so at
        # least one in-class query must be deferred and never re-asked.
        assert refined.stats["refine_saved"] >= 1

    def test_wide_signatures_converge_in_one_round(self):
        # With healthy 4x64-bit signatures the xor pair has no spurious
        # classes: no NEQ models, hence no refinement rounds.
        r = check_equivalence(xor_chain(16), xor_tree(16), REFINE)
        assert r.verdict is CecVerdict.EQUIVALENT
        assert r.stats["refine_rounds"] == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_verdicts_match_no_refine_on_random_pairs(self, seed):
        c1 = random_combinational(n_inputs=8, n_gates=60, seed=seed)
        c2 = random_combinational(
            n_inputs=8, n_gates=60, seed=seed + 10, name="other"
        )
        refined = check_equivalence(c1, c2, REFINE, **NARROW)
        plain = check_equivalence(c1, c2, NO_REFINE, **NARROW)
        assert refined.verdict is plain.verdict
        if refined.verdict is CecVerdict.NOT_EQUIVALENT:
            vec = refined.counterexample
            o1 = simulate(c1, [vec]).outputs[0]
            o2 = simulate(c2, [vec]).outputs[0]
            assert o1 != o2

    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_parallel_refinement_matches_serial(self, n_jobs):
        c1, c2 = xor_chain(16), xor_tree(16)
        serial = check_equivalence(c1, c2, REFINE, **NARROW)
        parallel = check_equivalence(
            c1, c2, REFINE, n_jobs=n_jobs, **NARROW
        )
        # Workers prove on fresh per-unit solvers, so their NEQ *models*
        # (and hence later-round class evolution) may legitimately differ
        # from the serial run's; the verdict must not.
        assert parallel.verdict is serial.verdict
        assert parallel.verdict is CecVerdict.EQUIVALENT

    def test_refined_runs_are_deterministic(self):
        c1, c2 = xor_chain(16), xor_tree(16)
        a = check_equivalence(c1, c2, REFINE, **NARROW)
        b = check_equivalence(c1, c2, REFINE, **NARROW)
        assert a.verdict is b.verdict
        for key in (
            "sat_queries",
            "sweep_merges",
            "sweep_refuted",
            "refine_rounds",
            "refine_patterns",
            "refine_saved",
        ):
            assert a.stats[key] == b.stats[key]

    def test_refine_rounds_caps_the_loop(self):
        r = check_equivalence(
            xor_chain(16), xor_tree(16), REFINE, refine_rounds=0, **NARROW
        )
        assert r.verdict is CecVerdict.EQUIVALENT
        assert r.stats["refine_rounds"] == 0


class TestClassConstruction:
    @staticmethod
    def _stuck_at_zero_pair():
        """o = x1 computed two ways, one via a stuck-at-0 AND node.

        ``XOR(a, b) AND XNOR(a, b)`` is constant 0, but the two sides are
        built from structurally different AND trees, so AIG strashing
        cannot fold the node away — only semantic analysis (simulation +
        a constant-class merge) can.
        """
        from repro.netlist.build import CircuitBuilder

        b = CircuitBuilder("stuck")
        x0, x1 = b.inputs("x0", "x1")
        xor = b.XOR(x0, x1)
        xnor = b.OR(b.AND(x0, x1), b.AND(b.NOT(x0), b.NOT(x1)))
        zero = b.AND(xor, xnor)  # constant 0 in disguise
        b.output(b.XOR(zero, x1), name="o")
        c1 = b.circuit

        b2 = CircuitBuilder("wire")
        _, y1 = b2.inputs("x0", "x1")
        b2.output(b2.AND(y1, y1), name="o")
        return c1, b2.circuit

    def test_constant_node_joins_its_class(self):
        # Regression: classes started at node 1, so stuck-at-constant
        # nodes could never merge with constant node 0.
        c1, c2 = self._stuck_at_zero_pair()
        m = build_miter(c1, c2)
        aig = m.aig
        signatures, mask = _initial_signatures(aig, 4, 64, 0)
        classes = _signature_classes(
            signatures, mask, range(aig.num_nodes())
        )
        const_class = next(
            members for members in classes.values() if 0 in members
        )
        assert const_class[0] == 0  # node order => the constant is rep
        class_list = _class_candidates(aig, classes, signatures)
        const_cands = [
            c for cls in class_list for c in cls if c.rep == 0
        ]
        assert const_cands, "stuck-at-0 node must pair with the constant"

    def test_constant_node_merge_proves_equivalence(self):
        c1, c2 = self._stuck_at_zero_pair()
        r = check_equivalence(c1, c2)
        assert r.verdict is CecVerdict.EQUIVALENT

    def test_pi_pi_pairs_are_excluded(self):
        # Two PIs can only alias under degenerate signatures, and their
        # query is guaranteed SAT; fabricate the aliasing directly.
        m = build_miter(xor_chain(4), xor_tree(4))
        aig = m.aig
        pi_a, pi_b = aig.pis[0], aig.pis[1]
        signatures = [0] * aig.num_nodes()
        signatures[pi_a] = signatures[pi_b] = 0b10
        classes = {0b10: [pi_a, pi_b]}
        assert _class_candidates(aig, classes, signatures) == []

    def test_const_pi_pairs_are_excluded(self):
        m = build_miter(xor_chain(4), xor_tree(4))
        aig = m.aig
        pi = aig.pis[0]
        signatures = [0] * aig.num_nodes()
        classes = {0: [0, pi]}
        assert _class_candidates(aig, classes, signatures) == []

    def test_resolved_pairs_are_not_regenerated(self):
        m = build_miter(xor_chain(8), xor_tree(8))
        aig = m.aig
        signatures, mask = _initial_signatures(aig, 4, 64, 0)
        classes = _signature_classes(
            signatures, mask, range(aig.num_nodes())
        )
        full = _class_candidates(aig, classes, signatures)
        cand = full[0][0]
        resolved = {(cand.rep, cand.node, cand.phase_equal)}
        pruned = _class_candidates(aig, classes, signatures, resolved)
        flat = [
            (c.rep, c.node, c.phase_equal) for cls in pruned for c in cls
        ]
        assert (cand.rep, cand.node, cand.phase_equal) not in flat

    def test_group_ids_respect_offset(self):
        m = build_miter(xor_chain(8), xor_tree(8))
        aig = m.aig
        signatures, mask = _initial_signatures(aig, 4, 64, 0)
        classes = _signature_classes(
            signatures, mask, range(aig.num_nodes())
        )
        shifted = _class_candidates(
            aig, classes, signatures, group_offset=100
        )
        assert all(c.group >= 100 for cls in shifted for c in cls)


class TestSeedMixing:
    def test_rounds_do_not_alias_neighbouring_seeds(self):
        # Regression: ``seed + r`` made round 1 of seed 0 identical to
        # round 0 of seed 1, so neighbouring seeds shared their streams.
        assert _round_seed(0, 1) != _round_seed(1, 0)
        assert _round_seed(0, 0) != _round_seed(0, 1)

    def test_round_seeds_are_stable(self):
        # hashlib mixing: no PYTHONHASHSEED dependence, same value in
        # every interpreter.
        assert _round_seed(0, 0) == _round_seed(0, 0)
        seeds = {_round_seed(s, r) for s in range(8) for r in range(8)}
        assert len(seeds) == 64


class TestModelValidation:
    def _one_candidate(self, aig):
        signatures, mask = _initial_signatures(aig, 4, 64, 0)
        classes = _signature_classes(
            signatures, mask, range(aig.num_nodes())
        )
        class_list = _class_candidates(aig, classes, signatures)
        return signatures, mask, class_list[0][0]

    def test_bogus_model_raises_instead_of_refining(self):
        # Every signature class of the xor pair is a genuine equivalence,
        # so NO pattern can distinguish any candidate: a model claiming
        # to must be rejected by re-simulation, mirroring
        # ``_validate_counterexample``.
        m = build_miter(xor_chain(8), xor_tree(8))
        signatures, mask, cand = self._one_candidate(m.aig)
        bogus = {name: False for name in m.aig.pi_names}
        with pytest.raises(RuntimeError, match="does not distinguish"):
            _refine_signatures(m.aig, signatures, mask, [(cand, bogus)])

    def test_model_to_pattern_defaults_unconstrained_pis_false(self):
        m = build_miter(xor_chain(4), xor_tree(4))
        aig = m.aig
        model = {aig.pis[0]: True}
        pattern = _model_to_pattern(aig, model)
        assert set(pattern) == set(aig.pi_names)
        assert sum(pattern.values()) == 1

    def test_genuine_model_appends_a_column(self):
        # A genuinely distinguishing assignment must extend the mask by
        # exactly one column and keep old columns intact.
        m = build_miter(xor_chain(8), xor_tree(8))
        aig = m.aig
        signatures, mask, cand = self._one_candidate(aig)
        words, _ = aig.simulate_patterns(
            [{name: False for name in aig.pi_names}]
        )
        # Find an assignment flipping exactly one PI that distinguishes a
        # fabricated anti-phase pair: pair the candidate's rep against
        # its own complement, which every assignment distinguishes.
        from repro.cec.partition import Candidate

        anti = Candidate(cand.rep, cand.rep, phase_equal=False)
        pattern = {name: False for name in aig.pi_names}
        refined, new_mask, added = _refine_signatures(
            aig, signatures, mask, [(anti, pattern)]
        )
        assert added == 1
        assert new_mask == (mask << 1) | 1
        assert all(
            (refined[n] >> 1) == signatures[n]
            for n in range(aig.num_nodes())
        )

    def test_duplicate_patterns_fold_into_one_column(self):
        m = build_miter(xor_chain(8), xor_tree(8))
        aig = m.aig
        signatures, mask, cand = self._one_candidate(aig)
        from repro.cec.partition import Candidate

        anti = Candidate(cand.rep, cand.rep, phase_equal=False)
        pattern = {name: False for name in aig.pi_names}
        _, _, added = _refine_signatures(
            aig, signatures, mask, [(anti, pattern), (anti, dict(pattern))]
        )
        assert added == 1


class TestFacadeAndFlags:
    def test_verify_request_round_trips_refine(self):
        from repro.api import VerifyRequest

        request = VerifyRequest(golden="a.blif", revised="b.blif", refine=False)
        data = request.to_dict()
        assert data["refine"] is False
        assert VerifyRequest.from_dict(data).refine is False
        assert VerifyRequest(golden="a", revised="b").refine is True

    def test_refine_does_not_change_fingerprint(self):
        # Engine options are verdict-preserving, so the request
        # fingerprint must ignore them.
        from repro.api import VerifyRequest

        c1, c2 = xor_chain(4), xor_tree(4)
        on = VerifyRequest(golden=c1, revised=c2, refine=True)
        off = VerifyRequest(golden=c1, revised=c2, refine=False)
        assert on.fingerprint() == off.fingerprint()

    def test_cli_exposes_no_refine(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["verify", "a.blif", "b.blif", "--no-refine"])
        assert args.no_refine is True
        args = parser.parse_args(["verify", "a.blif", "b.blif"])
        assert args.no_refine is False
        args = parser.parse_args(["table1", "--quick", "--no-refine"])
        assert args.no_refine is True

    def test_refinement_threads_through_sequential_verify(self):
        from repro.core.verify import SeqVerdict, check_sequential_equivalence
        from tests.cec.test_sweep_parallel import retimed_resynthesised_pair

        h, j = retimed_resynthesised_pair(seed=0)
        on = check_equivalence(h, j, REFINE, **NARROW)
        off = check_equivalence(h, j, NO_REFINE, **NARROW)
        assert on.verdict is off.verdict
