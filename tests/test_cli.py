"""CLI tests (``python -m repro``)."""

from __future__ import annotations

import argparse
import importlib

import pytest

from repro.bench.counterex import fig14_conditional_update
from repro.bench.pipeline import pipeline_circuit
from repro.cli import main
from repro.netlist.blif import parse_blif_file, write_blif
from repro.netlist.validate import validate_circuit


@pytest.fixture
def blif_file(tmp_path):
    circuit = pipeline_circuit(stages=2, width=3, seed=5)
    path = tmp_path / "demo.blif"
    path.write_text(write_blif(circuit))
    return path


class TestCli:
    def test_stats(self, blif_file, capsys):
        assert main(["stats", str(blif_file)]) == 0
        out = capsys.readouterr().out
        assert "unit-delay depth" in out
        assert "mapped" in out

    def test_retime_roundtrip(self, blif_file, tmp_path, capsys):
        out_path = tmp_path / "rt.blif"
        assert main(["retime", str(blif_file), "-o", str(out_path)]) == 0
        retimed = parse_blif_file(out_path)
        validate_circuit(retimed)
        assert main(["verify", str(blif_file), str(out_path)]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_min_area_retime(self, blif_file, tmp_path):
        out_path = tmp_path / "ma.blif"
        assert main(
            ["retime", str(blif_file), "-o", str(out_path), "--min-area"]
        ) == 0
        assert main(["verify", str(blif_file), str(out_path)]) == 0

    def test_synth_and_verify(self, blif_file, tmp_path, capsys):
        out_path = tmp_path / "opt.blif"
        assert main(["synth", str(blif_file), "-o", str(out_path)]) == 0
        assert main(["verify", str(blif_file), str(out_path)]) == 0

    def test_verify_detects_difference(self, blif_file, tmp_path, capsys):
        other = pipeline_circuit(stages=2, width=3, seed=6)
        # Rename I/O to match the golden circuit's names.
        other_path = tmp_path / "other.blif"
        other_path.write_text(write_blif(other))
        rc = main(["verify", str(blif_file), str(other_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "not_equivalent" in out
        assert "counterexample" in out

    def test_expose_reports(self, tmp_path, capsys):
        circuit = fig14_conditional_update(3)
        path = tmp_path / "cond.blif"
        path.write_text(write_blif(circuit))
        assert main(["expose", str(path)]) == 0
        out = capsys.readouterr().out
        assert "to remodel (positive unate): 3" in out

    def test_expose_weighted_writes_prepared(self, tmp_path, capsys):
        circuit = fig14_conditional_update(2)
        path = tmp_path / "cond.blif"
        out_path = tmp_path / "prep.blif"
        path.write_text(write_blif(circuit))
        assert main(
            [
                "expose",
                str(path),
                "--weighted",
                "--no-unate",
                "-o",
                str(out_path),
            ]
        ) == 0
        prepared = parse_blif_file(out_path)
        validate_circuit(prepared)
        from repro.netlist.graph import feedback_latches

        assert not feedback_latches(prepared)


class _Parsed(Exception):
    """Raised instead of parsing, to capture a module's own parser."""


def _option_strings(parser: argparse.ArgumentParser) -> set:
    return set(parser._option_string_actions)


def _module_options(module_name: str, monkeypatch) -> set:
    """Option strings of ``python -m <module_name>``'s parser."""
    captured = []

    def capture(self, args=None, namespace=None):
        captured.append(self)
        raise _Parsed

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_args", capture)
        with pytest.raises(_Parsed):
            importlib.import_module(module_name).main([])
    return _option_strings(captured[0])


class TestTableCommands:
    """`repro tableN` and `python -m repro.flows.tableN` share one parser."""

    @pytest.mark.parametrize("table", ["table1", "table2"])
    def test_same_flags_as_module_entry_point(self, table, monkeypatch):
        from repro.cli import build_parser

        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert _option_strings(subparsers.choices[table]) == _module_options(
            f"repro.flows.{table}", monkeypatch
        )

    def test_table2_circuits_flag(self, capsys):
        assert main(["table2", "--circuits", "ex2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "ex2" in out

    def test_table1_resume_requires_checkpoint(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--resume", "--circuits", "s953"])
        assert exc.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err


class TestRemovedSweepFlags:
    """The sweep's ``--jobs`` and ``--no-share-learned`` are gone (1.4.0);
    ``repro batch --jobs`` keeps setting the batch's worker lanes."""

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--no-share-learned"]])
    @pytest.mark.parametrize("command", ["verify", "table1"])
    def test_sweep_flags_are_unknown_arguments(
        self, command, flag, blif_file, capsys
    ):
        if command == "verify":
            args = ["verify", str(blif_file), str(blif_file)]
        else:
            args = ["table1", "--circuits", "s953"]
        with pytest.raises(SystemExit) as exc:
            main(args + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_batch_keeps_its_lanes(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["batch", "m.json", "--jobs", "3"])
        assert args.jobs == 3


class TestWeightedExposure:
    def test_weighted_prefers_cheap_latches(self):
        """Two latches in a ring; the one with the big cone should be kept."""
        from repro.core.expose import choose_latches_to_expose
        from repro.netlist.build import CircuitBuilder

        b = CircuitBuilder("ring")
        ins = b.inputs(*[f"i{k}" for k in range(6)])
        b.circuit.add_latch("cheap", "d_cheap")
        b.circuit.add_latch("costly", "d_costly")
        # cheap's cone: one gate; costly's cone: a large tree.
        b.XOR("costly", ins[0], name="d_cheap")
        big = b.AND(*ins[:3])
        big2 = b.OR(*ins[3:])
        big3 = b.XOR(big, big2)
        big4 = b.AND(big3, ins[1])
        b.XOR("cheap", big4, name="d_costly")
        b.output("costly", name="o")
        exposed, _ = choose_latches_to_expose(
            b.circuit, use_unateness=False, strategy="weighted"
        )
        assert exposed == {"cheap"}

    def test_unknown_strategy_raises(self):
        from repro.core.expose import choose_latches_to_expose
        from repro.bench.pipeline import pipeline_circuit

        with pytest.raises(ValueError):
            choose_latches_to_expose(
                pipeline_circuit(seed=1), strategy="nope"
            )


class TestRemovedCacheAndLogFlags:
    """The proof cache's and the obligation log's flags are gone (1.5.0),
    without a shim: each is an unknown argument, exit code 2."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("verify", "--cec-cache"),
            ("verify", "--oblog"),
            ("table1", "--cache"),
            ("batch", "--cache"),
            ("batch", "--oblog"),
        ],
    )
    def test_flag_is_unknown_argument(
        self, command, flag, blif_file, tmp_path, capsys
    ):
        args = {
            "verify": ["verify", str(blif_file), str(blif_file)],
            "table1": ["table1", "--circuits", "s953"],
            "batch": ["batch", str(tmp_path / "m.json")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(args + [flag, str(tmp_path / "f.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
