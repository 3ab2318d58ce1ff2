"""In-memory spans around the program's public calls, recorded from outside.

:func:`patched` swaps a function at the module attribute where its caller
looks it up (``repro.synth.script.resubstitute``,
``repro.flows.flow.tech_map``, ``repro.core.verify.check_equivalence``...)
and always puts the original back on exit.  :class:`Recorder` turns such
swaps into spans: each call becomes one ``(name, start, end, parent)`` row
kept in memory and written once, at the end of the run.  A layer's self
time is its spans' duration minus the part covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Optional

__all__ = ["Recorder", "patched", "LAYERS", "layer_patches"]


class Recorder:
    """Spans and event counts of one traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per span, in start order.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span; spans opened inside it become its children."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, by: float = 1) -> None:
        """Add to an event counter."""
        self.counts[name] += by

    def wrap(
        self,
        name: str,
        function: Callable,
        on_result: Optional[Callable[["Recorder", object], None]] = None,
    ) -> Callable:
        """``function`` inside a span; counts ``<name>.calls`` and ``.errors``."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self.count(name + ".calls")
            with self.span(name):
                try:
                    result = function(*args, **kwargs)
                except Exception:
                    self.count(name + ".errors")
                    raise
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            duration = end - start
            totals[name] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def dump(self, path: str) -> None:
        """Write every span as JSON (once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans},
                handle,
            )


@contextmanager
def patched(replacements: Mapping[str, Callable[[Callable], Callable]]) -> Iterator[None]:
    """Swap ``module.attr`` for ``make(original)`` per entry, then restore.

    Keys are dotted paths whose last part is the attribute.  Every
    original is restored on exit, also when the body or a later swap raises.
    """
    saved = []
    try:
        for target, make in replacements.items():
            module_name, attr = target.rsplit(".", 1)
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _gates_out(recorder: Recorder, circuit) -> None:
    recorder.count("synth.gates_out", circuit.num_gates())


def _prepared(recorder: Recorder, prepared) -> None:
    recorder.count("expose.latches_exposed", len(prepared.exposed))
    recorder.count("expose.latches_remodelled", len(prepared.remodelled))


def _chosen(recorder: Recorder, chosen) -> None:
    to_expose, to_remodel = chosen
    recorder.count("expose.latches_exposed", len(to_expose))
    recorder.count("expose.latches_remodelled", len(to_remodel))


#: (binding to wrap, span name, result hook).  Two bindings may share a
#: span name when they are the same layer seen from different callers.
LAYERS = [
    ("repro.flows.table1.table1_row", "flow.row", None),
    ("repro.flows.table2.table2_row", "flow.row", None),
    ("repro.flows.flow.prepare_circuit", "expose", _prepared),
    ("repro.flows.table2.choose_latches_to_expose", "expose", _chosen),
    ("repro.core.expose.analyze_feedback_latch", "feedback", None),
    ("repro.core.expose.remodel_feedback_latches", "feedback", None),
    ("repro.synth.script.script_delay", "synth.script", _gates_out),
    ("repro.synth.script.sweep", "synth.sweep", None),
    ("repro.synth.script.strash", "synth.strash", None),
    ("repro.synth.script.algebraic_decomp", "synth.decomp", None),
    ("repro.synth.script.tech_decomp", "synth.tech_decomp", None),
    ("repro.synth.script.resubstitute", "synth.resub", None),
    ("repro.synth.script.reduce_depth", "synth.reduce_depth", None),
    ("repro.synth.script.eliminate", "synth.eliminate", None),
    ("repro.synth.script.simplify_network", "synth.simplify", None),
    ("repro.synth.script.fast_extract", "synth.fx", None),
    ("repro.flows.flow.tech_map", "techmap", None),
    ("repro.flows.flow.retime_min_period", "retime.min_period", None),
    ("repro.flows.flow.retime_min_area", "retime.min_area", None),
    (
        "repro.retime.incremental.incremental_retime_enabled",
        "retime.incremental",
        None,
    ),
    ("repro.flows.flow.verify_pair", "api.verify", None),
    ("repro.api.verify_pair", "api.verify", None),
    ("repro.core.verify.compute_cbf", "lower.cbf", None),
    ("repro.core.verify.cbf_to_circuit", "lower.cbf", None),
    ("repro.core.verify.compute_edbf", "lower.edbf", None),
    ("repro.core.verify.edbf_to_circuit", "lower.edbf", None),
    ("repro.core.verify.check_equivalence", "cec", None),
    ("repro.core.verify.exact3_outputs", "cex.replay", None),
    ("repro.core.verify.minimize_counterexample", "cex.minimize", None),
]


def layer_patches(recorder: Recorder) -> Dict[str, Callable[[Callable], Callable]]:
    """The :func:`patched` table that records every layer of :data:`LAYERS`."""
    return {
        target: (
            lambda original, name=name, hook=hook: recorder.wrap(name, original, hook)
        )
        for target, name, hook in LAYERS
    }
