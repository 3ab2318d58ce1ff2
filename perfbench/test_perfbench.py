"""The benchmark's own tests.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
from spans import LAYERS, Recorder, layer_patches, patched  # noqa: E402
from workloads import WORKLOADS, distinguishes, variant  # noqa: E402
from repro.bench.iscas_like import build_table1_circuit  # noqa: E402


def _invoke(script: Path, workload: str, trace: int = 0, tiny: bool = True):
    command = [
        sys.executable, str(script), "--workload", workload, "--seed", "0",
        "--seconds", "0", "--trace", str(trace),
    ]
    proc = subprocess.run(
        command + (["--tiny"] if tiny else []),
        capture_output=True, text=True, cwd=script.parent.parent, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def _binding(target: str):
    module_name, attr = target.rsplit(".", 1)
    return getattr(importlib.import_module(module_name), attr)


def _copy_benchmark(tmp_path: Path, with_source: bool) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_source:
        (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_of_each_workload_completes(workload):
    proc, result = _invoke(HERE / "run.py", workload)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == bench.END_TO_END
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    proc, result = _invoke(HERE / "run.py", "verify_mutants", trace=1)
    assert proc.returncode == 0, proc.stderr
    assert list(result["metrics"]) == list(bench.PER_LAYER)
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert values["cex.minimize.calls"] > 0 and values["cex.replay.s"] > 0
    assert values["cec.sat_queries"] > 0 and values["sat.calls"] > 0
    assert values["synth.script.calls"] == 0  # pairs are built in set-up


def test_benchmark_json_names_what_the_program_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_wrapper_restores_the_original():
    originals = {target: _binding(target) for target, _, _ in LAYERS}
    with pytest.raises(RuntimeError):
        with patched(layer_patches(Recorder())):
            for target, original in originals.items():
                assert _binding(target) is not original
            raise RuntimeError("body failed")
    for target, original in originals.items():
        assert _binding(target) is original


def test_patched_restores_earlier_swaps_when_a_later_one_fails():
    original = _binding("repro.flows.flow.tech_map")
    with pytest.raises(AttributeError):
        with patched(
            {
                "repro.flows.flow.tech_map": lambda f: None,
                "repro.flows.flow.no_such_function": lambda f: None,
            }
        ):
            pass
    assert _binding("repro.flows.flow.tech_map") is original


def test_seeded_renaming_keeps_every_name_comparison():
    circuit = build_table1_circuit("s953")
    renamed = variant(circuit, 7)
    old = [*circuit.inputs, *circuit.gates, *circuit.latches]
    new = [*renamed.inputs, *renamed.gates, *renamed.latches]
    assert len(set(new) & set(old)) == 0
    names = dict(zip(old, new))
    pairs = [(s, names[s]) for s in old]
    pairs += [(s + "_0", names[s] + "_0") for s in old]  # fresh_signal-style
    pairs += [("__fx1", "__fx1"), ("__td2_n1", "__td2_n1")]  # synthesis names
    assert [n for _, n in sorted(pairs)] == sorted(n for _, n in pairs)
    assert variant(circuit, 0) is circuit


def test_self_time_subtracts_child_spans():
    recorder = Recorder()
    recorder.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert recorder.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_corrupted_reference_is_caught():
    workload = WORKLOADS["table2_expose"](0, tiny=True)
    workload.setup()
    reference = json.loads(bench.REFERENCE.read_text())["table2_expose"]
    clean = bench.Run(workload, reference)
    clean.measure(0)
    assert clean.problems == [] and clean.failed == 0
    corrupted = copy.deepcopy(reference)
    corrupted["ex2"]["exposed_unate"] += 1
    run = bench.Run(workload, corrupted)
    run.measure(0)
    assert run.failed == 1
    assert any("differs from reference" in problem for problem in run.problems)


def test_flipped_verdict_and_bad_witness_are_caught():
    workload = WORKLOADS["verify_mutants"](0, tiny=True)
    workload.setup()
    key = workload.items[0]
    report = workload.run(key)
    assert workload.check(key, report) == []
    flipped = dataclasses.replace(report, verdict="equivalent", counterexample=None)
    assert "expected not_equivalent" in workload.check(key, flipped)[0]
    missing = dataclasses.replace(report, counterexample=[])
    assert "does not replay" in workload.check(key, missing)[0]
    golden, mutant, _ = workload.cases[key]
    assert distinguishes(golden, mutant, report.counterexample)
    assert not distinguishes(golden, golden, report.counterexample)
    reference = json.loads(bench.REFERENCE.read_text())["verify_mutants"]
    assert reference[key]["verdict"] == "not_equivalent"
    assert bench.Run(workload, reference)._check(key, flipped)


def test_wrong_reference_makes_the_command_exit_nonzero(tmp_path):
    script = _copy_benchmark(tmp_path, with_source=True)
    reference_path = script.parent / "reference.json"
    reference = json.loads(reference_path.read_text())
    reference["table2_expose"]["ex3"]["exposed_structural"] -= 1
    reference_path.write_text(json.dumps(reference))
    proc, result = _invoke(script, "table2_expose")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] == 1


def test_without_program_source_the_command_fails_silently(tmp_path):
    script = _copy_benchmark(tmp_path, with_source=False)
    proc, result = _invoke(script, "table1_flow", tiny=False)
    assert proc.returncode not in (0, None) and result is None
