"""One definition of the CEC engine options.

:class:`repro.cec.CecOptions` is the only place the engine options are
declared; :class:`repro.api.VerifyRequest` carries them as flat fields of
the same names, and every layer between the facade and the engine passes
them on whole.  These tests pin that contract:

* every ``CecOptions`` field is a ``VerifyRequest`` field with the same
  default;
* each option set on a request or on :func:`repro.flows.flow.run_flow`
  reaches the engine (:func:`repro.cec.check_miter`, which the sequential
  check runs on its lowered miter) unchanged, next to the run resources
  only — on a CBF pair and on an EDBF pair.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

import repro.core.verify as core_verify
from repro.api import VerifyRequest, verify_pair
from repro.bench.pipeline import pipeline_circuit
from repro.cec import CecOptions, CecVerdict, CheckResult
from repro.flows.flow import run_flow

#: Every option away from its default (``CecOptions()`` must differ in
#: each field, or a dropped option could pass unnoticed).
OPTIONS = CecOptions(
    refine=False,
    preprocess=False,
    engines=["structural", "sat"],
)
#: The run keywords the engine receives besides the options.
RUN_KEYWORDS = {"budget", "tracer", "metrics"}


def test_three_options():
    # The proof cache went in 1.5.0; what is left changes effort only.
    assert [f.name for f in fields(CecOptions)] == [
        "refine",
        "preprocess",
        "engines",
    ]


def test_every_option_is_a_request_field_with_the_same_default():
    request_fields = {f.name: f for f in fields(VerifyRequest)}
    for option in fields(CecOptions):
        assert option.name in request_fields, option.name
        assert request_fields[option.name].default == option.default


def test_options_differ_from_defaults_in_every_field():
    defaults = CecOptions()
    for option in fields(CecOptions):
        assert getattr(OPTIONS, option.name) != getattr(defaults, option.name)


def test_request_cec_options_round_trip():
    circuit = pipeline_circuit(stages=1, width=2, seed=0)
    request = VerifyRequest(
        golden=circuit,
        revised=circuit,
        **{f.name: getattr(OPTIONS, f.name) for f in fields(CecOptions)},
    )
    assert request.cec_options() == OPTIONS
    assert VerifyRequest(golden=circuit, revised=circuit).cec_options() == (
        CecOptions()
    )


@pytest.fixture
def engine_calls(monkeypatch):
    """Record what reaches the engine; answer EQUIVALENT without solving."""
    calls = []

    def spy(miter, options=None, **run):
        calls.append((options, run))
        return CheckResult(CecVerdict.EQUIVALENT)

    monkeypatch.setattr(core_verify, "check_miter", spy)
    return calls


def _pair(enable: bool):
    golden = pipeline_circuit(stages=2, width=3, seed=0, enable=enable)
    revised = pipeline_circuit(stages=2, width=3, seed=0, enable=enable)
    return golden, revised


@pytest.mark.parametrize("enable, method", [(False, "cbf"), (True, "edbf")])
def test_request_options_reach_the_engine(engine_calls, enable, method):
    golden, revised = _pair(enable)
    request = VerifyRequest(
        golden=golden,
        revised=revised,
        **{f.name: getattr(OPTIONS, f.name) for f in fields(CecOptions)},
    )
    report = verify_pair(request)
    assert report.method == method
    ((options, run),) = engine_calls
    assert options == OPTIONS
    assert set(run) == RUN_KEYWORDS


@pytest.mark.parametrize("enable, stat", [(False, "depth1"), (True, "events")])
def test_flow_options_reach_the_engine(engine_calls, enable, stat):
    circuit, _ = _pair(enable)
    result = run_flow(circuit, build_unexposed_variants=False, options=OPTIONS)
    # ``depth1`` is recorded by the CBF lowering, ``events`` by the EDBF one.
    assert stat in result.verify_stats
    ((options, run),) = engine_calls
    assert options == OPTIONS
    assert set(run) == RUN_KEYWORDS
