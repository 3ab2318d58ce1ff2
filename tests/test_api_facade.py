"""The stable repro.api facade: schema, exit codes, deprecation shims.

Covers satellite guarantees of the API redesign:

* ``VerifyRequest`` / ``VerifyReport`` round-trip through their JSON
  dict forms (the manifest-row / result-store schemas);
* fingerprints are content-addressed (names and engine knobs don't
  matter, verdict-relevant options do);
* every result type emits exactly the canonical ``RESULT_KEYS`` set and
  satisfies the :class:`repro.api.VerificationResult` protocol;
* the exit-code contract (0 / 1 / 2, INCONCLUSIVE → 2);
* the ``cec_cache=`` spelling, deprecated in 1.0, is gone in 1.1.0.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import MISSING, fields

import pytest

import repro
from repro.api import (
    EXIT_EQUIVALENT,
    EXIT_NOT_EQUIVALENT,
    EXIT_UNKNOWN,
    RESULT_KEYS,
    REASON_INCONCLUSIVE,
    VerificationResult,
    VerifyReport,
    VerifyRequest,
    exit_code_for_verdict,
    verify_pair,
)
from repro.bench.pipeline import pipeline_circuit
from repro.cec import CecOptions, ProofCache
from repro.cec.engine import check_equivalence
from repro.core.verify import SeqVerdict, check_sequential_equivalence
from repro.netlist.blif import write_blif


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    """BLIF paths of an equivalent (golden, retimed+resynthesised) pair.

    The revision is structurally different enough that the CEC engine
    must do real SAT work — budget and proof-cache behaviour is
    observable, unlike an identical or merely retimed copy.
    """
    from repro.retime.apply import retime_min_period
    from repro.synth.script import optimize_sequential_delay

    tmp = tmp_path_factory.mktemp("facade")
    golden = pipeline_circuit(stages=2, width=3, seed=1, name="g")
    revised, _, _ = retime_min_period(golden)
    revised = optimize_sequential_delay(revised, "medium", name="r")
    gp, rp = tmp / "g.blif", tmp / "r.blif"
    gp.write_text(write_blif(golden))
    rp.write_text(write_blif(revised))
    return str(gp), str(rp)


class TestRequestRoundTrip:
    def test_to_from_dict(self, pair):
        request = VerifyRequest(
            golden=pair[0],
            revised=pair[1],
            name="row",
            priority=3,
            prepare=False,
            use_unateness=False,
            event_rewrite=True,
            validate_cex=False,
            jobs=2,
            cache="proofs.json",
            refine=False,
            preprocess=False,
            share_learned=False,
            time_limit=5.0,
            sat_conflicts=100,
            sat_propagations=1000,
            bdd_node_limit=500,
            metadata={"suite": "unit"},
            engines=["structural", "sat"],
            dispatch_policy="heuristic",
            dispatch_store="outcomes.json",
        )
        data = json.loads(json.dumps(request.to_dict()))
        back = VerifyRequest.from_dict(data)
        for f in fields(VerifyRequest):
            value = getattr(request, f.name)
            if f.default is not MISSING:
                # A new field must join this request with a non-default
                # value, or its round trip goes untested.
                assert value != f.default, f.name
            assert getattr(back, f.name) == value, f.name
        assert back.fingerprint() == request.fingerprint()

    def test_live_cache_serialises_as_its_path(self, tmp_path):
        circuit = pipeline_circuit(stages=1, width=2, seed=0)
        path = str(tmp_path / "proofs.json")
        request = VerifyRequest(
            golden=circuit, revised=circuit, cache=ProofCache(path)
        )
        assert request.to_dict()["cache"] == path
        assert VerifyRequest.from_dict(request.to_dict()).cache == path

    def test_pathless_cache_cannot_be_serialised(self):
        # The Table 1 harness hands one live ProofCache to every row's
        # request; an in-memory one has no manifest form.
        circuit = pipeline_circuit(stages=1, width=2, seed=0)
        request = VerifyRequest(
            golden=circuit, revised=circuit, cache=ProofCache(None)
        )
        with pytest.raises(ValueError, match="cache"):
            request.to_dict()

    def test_inline_circuits_round_trip(self):
        circuit = pipeline_circuit(stages=1, width=2, seed=0, name="inline")
        request = VerifyRequest(golden=circuit, revised=circuit)
        data = request.to_dict()
        assert "golden_blif" in data and "revised_blif" in data
        back = VerifyRequest.from_dict(data)
        assert back.fingerprint() == request.fingerprint()

    def test_unknown_keys_rejected(self, pair):
        with pytest.raises(ValueError, match="unknown"):
            VerifyRequest.from_dict(
                {"golden": pair[0], "revised": pair[1], "time_limt": 3}
            )

    def test_base_dir_resolves_relative_paths(self, pair, tmp_path):
        import os

        base = os.path.dirname(pair[0])
        request = VerifyRequest.from_dict(
            {"golden": "g.blif", "revised": "r.blif"}, base_dir=base
        )
        assert request.load()[0].name == "g"

    def test_default_name_derivation(self, pair):
        request = VerifyRequest(golden=pair[0], revised=pair[1])
        assert request.name == "g~r"


class TestFingerprint:
    def test_name_and_engine_knobs_do_not_change_it(self, pair):
        a = VerifyRequest(golden=pair[0], revised=pair[1], name="a", jobs=4)
        b = VerifyRequest(
            golden=pair[0], revised=pair[1], name="b", time_limit=1.0
        )
        assert a.fingerprint() == b.fingerprint()

    def test_verdict_relevant_options_change_it(self, pair):
        a = VerifyRequest(golden=pair[0], revised=pair[1])
        b = VerifyRequest(golden=pair[0], revised=pair[1], event_rewrite=True)
        assert a.fingerprint() != b.fingerprint()

    def test_different_circuits_change_it(self, pair):
        a = VerifyRequest(golden=pair[0], revised=pair[1])
        b = VerifyRequest(golden=pair[0], revised=pair[0])
        assert a.fingerprint() != b.fingerprint()


class TestResultProtocol:
    def test_seq_result_canonical_keys(self):
        circuit = pipeline_circuit(stages=1, width=2, seed=0)
        result = check_sequential_equivalence(circuit, circuit)
        assert isinstance(result, VerificationResult)
        assert tuple(result.as_dict().keys()) == RESULT_KEYS

    def test_cec_result_canonical_keys(self):
        from repro.bench.random_circuits import random_combinational

        circuit = random_combinational(n_inputs=3, n_gates=8, seed=0)
        result = check_equivalence(circuit, circuit)
        assert isinstance(result, VerificationResult)
        assert tuple(result.as_dict().keys()) == RESULT_KEYS

    def test_report_includes_canonical_keys(self, pair):
        report = verify_pair(pair[0], pair[1])
        data = report.as_dict()
        for key in RESULT_KEYS:
            assert key in data
        back = VerifyReport.from_dict(json.loads(json.dumps(data)))
        assert back.verdict == report.verdict
        assert back.stats == report.stats
        assert back.fingerprint == report.fingerprint


class TestExitCodeContract:
    def test_mapping(self):
        assert exit_code_for_verdict(SeqVerdict.EQUIVALENT) == EXIT_EQUIVALENT
        assert (
            exit_code_for_verdict(SeqVerdict.NOT_EQUIVALENT)
            == EXIT_NOT_EQUIVALENT
        )
        assert exit_code_for_verdict(SeqVerdict.UNKNOWN) == EXIT_UNKNOWN
        # The bugfix: a conservative EDBF mismatch is "could not decide",
        # not a refutation — it must exit 2, not 1.
        assert exit_code_for_verdict(SeqVerdict.INCONCLUSIVE) == EXIT_UNKNOWN
        assert exit_code_for_verdict("equivalent") == 0

    def test_inconclusive_report_reason(self):
        report = VerifyReport.from_result(
            _FakeResult(SeqVerdict.INCONCLUSIVE.value)
        )
        assert report.verdict == "inconclusive"
        assert report.reason == REASON_INCONCLUSIVE
        assert report.exit_code == EXIT_UNKNOWN
        assert not report.decided

    def test_verify_pair_exit_codes(self, pair):
        assert verify_pair(pair[0], pair[1]).exit_code == EXIT_EQUIVALENT
        budget_starved = verify_pair(pair[0], pair[1], time_limit=0.0)
        assert budget_starved.exit_code == EXIT_UNKNOWN
        assert budget_starved.reason is not None

    def test_cli_inconclusive_exits_2(self, tmp_path, monkeypatch, capsys):
        # Drive the real CLI while forcing an INCONCLUSIVE verdict at the
        # facade boundary: the printed verdict and exit code must follow
        # the documented contract.
        from repro import cli

        report = VerifyReport.from_result(
            _FakeResult(SeqVerdict.INCONCLUSIVE.value)
        )
        monkeypatch.setattr(
            "repro.api.check_sequential_equivalence",
            lambda *a, **k: _FakeResult(SeqVerdict.INCONCLUSIVE.value),
        )
        golden = tmp_path / "g.blif"
        golden.write_text(
            write_blif(pipeline_circuit(stages=1, width=2, seed=0))
        )
        rc = cli.main(["verify", str(golden), str(golden)])
        out = capsys.readouterr().out
        assert rc == 2
        assert "inconclusive" in out
        assert report.reason in out


class _FakeResult:
    """Minimal object satisfying the VerificationResult protocol."""

    def __init__(self, verdict: str):
        self.verdict = verdict
        self.reason = None
        self.failing_output = None

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "method": "fake",
            "reason": self.reason,
            "counterexample": None,
            "failing_output": self.failing_output,
            "stats": {},
        }


class TestDeprecationShims:
    """``cec_cache=`` was deprecated in 1.0 and removed in 1.1.0."""

    def test_cache_option_forwards_and_warms(self, pair):
        from repro.netlist.blif import parse_blif_file

        golden = parse_blif_file(pair[0])
        revised = parse_blif_file(pair[1])
        options = CecOptions(cache=ProofCache())
        result = check_sequential_equivalence(golden, revised, options=options)
        assert result.equivalent
        warm = check_sequential_equivalence(golden, revised, options=options)
        assert warm.stats.get("cec_cache_hits", 0) > 0

    def test_new_spelling_does_not_warn(self):
        circuit = pipeline_circuit(stages=1, width=2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = check_sequential_equivalence(
                circuit, circuit, options=CecOptions(cache=None)
            )
        assert result.equivalent

    def test_cec_cache_spellings_removed(self, pair):
        circuit = pipeline_circuit(stages=1, width=2, seed=0)
        with pytest.raises(TypeError, match="cec_cache"):
            check_sequential_equivalence(circuit, circuit, cec_cache=None)
        with pytest.raises(TypeError, match="cec_cache"):
            VerifyRequest(golden=pair[0], revised=pair[1], cec_cache="x.json")

    def test_request_new_spelling_is_warning_clean(self, pair, tmp_path):
        # The satellite contract: constructing with the new spelling must
        # survive ``PYTHONWARNINGS=error::DeprecationWarning``.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            request = VerifyRequest(
                golden=pair[0],
                revised=pair[1],
                cache=str(tmp_path / "proofs.json"),
                engines=["sat"],
                dispatch_policy="heuristic",
            )
        assert request.engines == ["sat"]

    def test_manifest_row_with_cec_cache_rejected(self, pair):
        with pytest.raises(ValueError, match="cec_cache"):
            VerifyRequest.from_dict(
                {
                    "golden": pair[0],
                    "revised": pair[1],
                    "cec_cache": "proofs.json",
                }
            )


class TestEngineDispatchKnobs:
    """Satellite 1: engines / dispatch_policy on the request and report."""

    def test_engines_string_normalised_to_list(self, pair):
        request = VerifyRequest(
            golden=pair[0], revised=pair[1], engines="sim, sat"
        )
        assert request.engines == ["sim", "sat"]

    def test_round_trip_preserves_dispatch_fields(self, pair, tmp_path):
        request = VerifyRequest(
            golden=pair[0],
            revised=pair[1],
            engines=["structural", "sat"],
            dispatch_policy="heuristic",
            dispatch_store=str(tmp_path / "outcomes.json"),
        )
        data = json.loads(json.dumps(request.to_dict()))
        back = VerifyRequest.from_dict(data)
        assert back.engines == ["structural", "sat"]
        assert back.dispatch_policy == "heuristic"
        assert back.dispatch_store == str(tmp_path / "outcomes.json")

    def test_dispatch_knobs_do_not_change_fingerprint(self, pair):
        base = VerifyRequest(golden=pair[0], revised=pair[1])
        tweaked = VerifyRequest(
            golden=pair[0],
            revised=pair[1],
            engines=["structural", "sim", "bdd", "sat"],
            dispatch_policy="heuristic",
            dispatch_store="outcomes.json",
        )
        assert base.fingerprint() == tweaked.fingerprint()

    def test_report_engine_used_breakdown(self, pair):
        report = verify_pair(pair[0], pair[1])
        assert report.engine_used  # some engine decided something
        assert all(
            isinstance(count, int) and count >= 0
            for count in report.engine_used.values()
        )
        data = json.loads(json.dumps(report.as_dict()))
        assert VerifyReport.from_dict(data).engine_used == report.engine_used

    def test_heuristic_policy_same_verdict(self, pair):
        default = verify_pair(pair[0], pair[1])
        heuristic = verify_pair(
            pair[0], pair[1], dispatch_policy="heuristic"
        )
        assert heuristic.verdict == default.verdict

    def test_sat_only_portfolio_through_facade(self, pair):
        report = verify_pair(pair[0], pair[1], engines=["sat"])
        assert report.exit_code == EXIT_EQUIVALENT
        assert set(report.engine_used) <= {"sat"}


class TestPackageSurface:
    def test_facade_reexported_from_repro(self):
        for name in (
            "VerifyRequest",
            "VerifyReport",
            "verify_pair",
            "verify_batch",
            "exit_code_for_verdict",
        ):
            assert hasattr(repro, name)
            assert name in repro.__all__
