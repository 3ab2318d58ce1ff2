"""The stable repro.api facade: schema, exit codes, deprecation shims.

Covers satellite guarantees of the API redesign:

* ``VerifyRequest`` / ``VerifyReport`` round-trip through their JSON
  dict forms (the manifest-row / result-store schemas);
* fingerprints are content-addressed (names and engine knobs don't
  matter, verdict-relevant options do);
* every result type emits exactly the canonical ``RESULT_KEYS`` set and
  satisfies the :class:`repro.api.VerificationResult` protocol;
* the exit-code contract (0 / 1 / 2, INCONCLUSIVE → 2);
* the ``cec_cache=`` spelling, deprecated in 1.0, is gone in 1.1.0;
* the inert fields (``jobs``, ``share_learned`` since 1.4.0, ``cache``
  since 1.5.0) still load, warn once each and change nothing.
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
from repro.cec import CecOptions
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
        # The deprecated inert fields still round-trip (1.3 manifests
        # keep loading); setting them warns.
        with pytest.warns(DeprecationWarning):
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
            )
        data = json.loads(json.dumps(request.to_dict()))
        with pytest.warns(DeprecationWarning):
            back = VerifyRequest.from_dict(data)
        for f in fields(VerifyRequest):
            value = getattr(request, f.name)
            if f.default is not MISSING:
                # A new field must join this request with a non-default
                # value, or its round trip goes untested.
                assert value != f.default, f.name
            assert getattr(back, f.name) == value, f.name
        assert back.fingerprint() == request.fingerprint()

    def test_inert_cache_serialises_as_its_path(self, tmp_path):
        # A 1.4 manifest row's cache path survives a round trip, so a
        # re-written manifest still loads; the field does nothing.
        circuit = pipeline_circuit(stages=1, width=2, seed=0)
        path = tmp_path / "proofs.json"
        with pytest.warns(DeprecationWarning):
            request = VerifyRequest(golden=circuit, revised=circuit, cache=path)
        assert request.to_dict()["cache"] == str(path)
        with pytest.warns(DeprecationWarning):
            back = VerifyRequest.from_dict(request.to_dict())
        assert back.cache == str(path)

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
        a = VerifyRequest(
            golden=pair[0], revised=pair[1], name="a", refine=False
        )
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

    def test_new_spelling_does_not_warn(self):
        circuit = pipeline_circuit(stages=1, width=2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = check_sequential_equivalence(
                circuit, circuit, options=CecOptions(refine=True)
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
                refine=False,
                engines=["sat"],
            )
        assert request.engines == ["sat"]

    def test_manifest_row_with_dispatch_policy_rejected(self, pair):
        # Deprecated in 1.3.0 and removed in 1.4.0, as the notice said.
        for field_name, value in (
            ("dispatch_policy", "heuristic"),
            ("dispatch_store", "outcomes.json"),
        ):
            with pytest.raises(ValueError, match=field_name):
                VerifyRequest.from_dict(
                    {"golden": pair[0], "revised": pair[1], field_name: value}
                )
            with pytest.raises(TypeError, match=field_name):
                VerifyRequest(
                    golden=pair[0], revised=pair[1], **{field_name: value}
                )

    def test_manifest_row_with_sweep_fields_loads_and_warns(self, pair):
        # A 1.3 manifest row naming the sweep's worker count and clause
        # sharing still loads: one warning per field, each with its own
        # reason, and the same fingerprint and verdict as a plain row.
        row = {"golden": pair[0], "revised": pair[1]}
        with pytest.warns(DeprecationWarning) as caught:
            request = VerifyRequest.from_dict(
                {**row, "jobs": 2, "share_learned": False}
            )
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        jobs, share = messages
        assert jobs.startswith("VerifyRequest.jobs is ignored since 1.4.0")
        assert "repro batch --jobs" in jobs
        assert share.startswith(
            "VerifyRequest.share_learned is ignored since 1.4.0"
        )
        assert "sharing" in share
        # Not 1.5.0, as first announced: the benchmark still passes jobs=1.
        assert all("removed in 1.6.0" in m for m in messages)
        plain = VerifyRequest.from_dict(row)
        assert request.fingerprint() == plain.fingerprint()
        assert request.cec_options() == plain.cec_options() == CecOptions()
        assert verify_pair(request).verdict == verify_pair(plain).verdict

    def test_dispatch_fields_are_inert(self, pair):
        # The sweep-dispatch fields (``jobs`` chose the process pool,
        # ``share_learned`` fed it) change nothing about the run.
        with pytest.warns(DeprecationWarning) as caught:
            tweaked = verify_pair(
                pair[0], pair[1], jobs=2, share_learned=False
            )
        assert {str(w.message).split()[0] for w in caught} == {
            "VerifyRequest.jobs",
            "VerifyRequest.share_learned",
        }
        default = verify_pair(pair[0], pair[1])
        assert tweaked.verdict == default.verdict
        for key in ("sat_queries", "cec_sat_queries", "cec_core_retired"):
            assert tweaked.stats.get(key) == default.stats.get(key)
        assert tweaked.engine_used == default.engine_used

    def test_cache_field_loads_and_warns_once(self, pair):
        # A 1.4 request or manifest row naming the proof cache still
        # loads: exactly one warning, naming its own release, and the
        # fingerprint and verdict of the same row without the field.
        row = {"golden": pair[0], "revised": pair[1]}
        plain = VerifyRequest.from_dict(row)
        for build in (
            lambda: VerifyRequest(**row, cache="proofs.json"),
            lambda: VerifyRequest.from_dict({**row, "cache": "proofs.json"}),
        ):
            with pytest.warns(DeprecationWarning) as caught:
                request = build()
            assert [str(w.message) for w in caught] == [
                "VerifyRequest.cache is ignored since 1.5.0 and is removed "
                "in 1.6.0: the proof cache is gone; `repro batch --store F "
                "--resume` replays pairs already decided"
            ]
            assert request.fingerprint() == plain.fingerprint()
            assert request.cec_options() == plain.cec_options()
        assert verify_pair(request).verdict == verify_pair(plain).verdict

    def test_batch_cache_warns_once(self, pair, tmp_path):
        # ``verify_batch(cache=)`` and a manifest row's ``cache`` each warn
        # once: the batch worker never sees the inert field again.
        from repro.api import verify_batch

        row = {"golden": pair[0], "revised": pair[1]}
        (plain,) = verify_batch([row], use_processes=False)
        path = tmp_path / "proofs.json"
        for kwargs, rows in (
            ({"cache": str(path)}, [row]),
            ({}, [{**row, "cache": str(path)}]),
        ):
            with pytest.warns(DeprecationWarning) as caught:
                (report,) = verify_batch(rows, use_processes=False, **kwargs)
            assert len(caught) == 1
            assert "is ignored since 1.5.0" in str(caught[0].message)
            assert report.fingerprint == plain.fingerprint
            assert report.verdict == plain.verdict
        assert not path.exists()

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
    """The ``engines`` portfolio, and the deprecated sweep-dispatch
    fields (``jobs``, ``share_learned``), on the request and report."""

    def test_engines_string_normalised_to_list(self, pair):
        request = VerifyRequest(
            golden=pair[0], revised=pair[1], engines="sim, sat"
        )
        assert request.engines == ["sim", "sat"]

    def test_round_trip_preserves_dispatch_fields(self, pair):
        with pytest.warns(DeprecationWarning):
            request = VerifyRequest(
                golden=pair[0],
                revised=pair[1],
                engines=["structural", "sat"],
                jobs=3,
                share_learned=False,
            )
        data = json.loads(json.dumps(request.to_dict()))
        assert (data["jobs"], data["share_learned"]) == (3, False)
        with pytest.warns(DeprecationWarning):
            back = VerifyRequest.from_dict(data)
        assert back.engines == ["structural", "sat"]
        assert (back.jobs, back.share_learned) == (3, False)

    def test_dispatch_knobs_do_not_change_fingerprint(self, pair):
        base = VerifyRequest(golden=pair[0], revised=pair[1])
        with pytest.warns(DeprecationWarning):
            tweaked = VerifyRequest(
                golden=pair[0],
                revised=pair[1],
                engines=["structural", "sim", "bdd", "sat"],
                jobs=4,
                share_learned=False,
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
