"""Console verbosity-tier tests."""

from __future__ import annotations

import io

from repro.obs.console import Console


def build(quiet=False, verbose=False, silent=False):
    out, err = io.StringIO(), io.StringIO()
    console = Console(
        stream=out, err_stream=err, quiet=quiet, verbose=verbose, silent=silent
    )
    return console, out, err


def emit_all(console):
    console.result("RESULT")
    console.info("INFO")
    console.detail("DETAIL")
    console.error("ERROR")


class TestTiers:
    def test_default_prints_result_info_error(self):
        console, out, err = build()
        emit_all(console)
        assert out.getvalue() == "RESULT\nINFO\n"
        assert err.getvalue() == "ERROR\n"

    def test_quiet_keeps_only_result_and_error(self):
        console, out, err = build(quiet=True)
        emit_all(console)
        assert out.getvalue() == "RESULT\n"
        assert err.getvalue() == "ERROR\n"

    def test_verbose_adds_detail(self):
        console, out, _ = build(verbose=True)
        emit_all(console)
        assert out.getvalue() == "RESULT\nINFO\nDETAIL\n"

    def test_quiet_beats_verbose(self):
        console, out, _ = build(quiet=True, verbose=True)
        emit_all(console)
        assert out.getvalue() == "RESULT\n"

    def test_silent_writes_nothing(self):
        console, out, err = build(silent=True)
        emit_all(console)
        assert out.getvalue() == ""
        assert err.getvalue() == ""


class TestFactories:
    def test_null_console_is_silent(self):
        assert Console.null().silent is True
