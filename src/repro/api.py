"""The stable public facade of the verification stack.

Everything a caller needs to check circuit pairs lives behind four names:

* :class:`VerifyRequest` — one circuit-pair verification obligation with
  every option that can change its outcome (engine knobs, budgets) as
  plain data, JSON round-trippable, with a content-addressed
  :meth:`~VerifyRequest.fingerprint`;
* :class:`VerifyReport` — the outcome in one canonical, JSON-stable
  shape shared by every layer (CLI exit codes, batch result stores);
* :func:`verify_pair` — run one request synchronously;
* :func:`verify_batch` — run many requests on the local batch runner
  (:mod:`repro.service`).

The facade wraps :func:`repro.core.verify.check_sequential_equivalence`;
that function (and the CEC-level :func:`repro.cec.check_equivalence`)
remains public, but new integrations should talk to this module: the
underlying kwargs may grow engine-specific options, while the facade's
surface is covered by the stability policy in ``docs/API.md`` — fields
are only ever *added*, old spellings keep working for at least one minor
version behind a :class:`DeprecationWarning`.

Exit-code contract (``repro verify`` / per-job codes of ``repro batch``)::

    0  EQUIVALENT      — proven equivalent
    1  NOT_EQUIVALENT  — refuted, a counterexample trace is available
    2  UNKNOWN         — undecided; ``reason`` says why (a ``REASON_*``
                         code from :mod:`repro.runtime.budget`, or
                         ``"edbf-inconclusive"`` for the paper's
                         conservative EDBF verdict)

INCONCLUSIVE maps to exit code 2, *not* 1: a conservative EDBF mismatch
is "could not decide", not "proven different" (Sec. 5.2 of the paper).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from repro.cec.cache import ProofCache
from repro.cec.options import CecOptions
from repro.core.verify import (
    SeqCheckResult,
    SeqVerdict,
    check_sequential_equivalence,
)
from repro.netlist.blif import parse_blif_file, write_blif
from repro.netlist.circuit import Circuit
from repro.netlist.validate import validate_circuit
from repro.runtime.budget import Budget

__all__ = [
    "RESULT_KEYS",
    "REASON_INCONCLUSIVE",
    "EXIT_EQUIVALENT",
    "EXIT_NOT_EQUIVALENT",
    "EXIT_UNKNOWN",
    "VerificationResult",
    "VerifyRequest",
    "VerifyReport",
    "exit_code_for_verdict",
    "verify_pair",
    "verify_batch",
]

#: The canonical key set of every result type's ``as_dict()`` —
#: :class:`repro.core.verify.SeqCheckResult`,
#: :class:`repro.cec.CheckResult` and :class:`VerifyReport` all emit
#: exactly these keys (reports add bookkeeping fields on top).
RESULT_KEYS = (
    "verdict",
    "method",
    "reason",
    "counterexample",
    "failing_output",
    "stats",
)

#: Reason code reported for the paper's conservative EDBF verdict when it
#: is mapped onto the UNKNOWN exit code (Sec. 5.2: a mismatch that the
#: random-simulation refuter could not confirm is not a proof of
#: difference).
REASON_INCONCLUSIVE = "edbf-inconclusive"

EXIT_EQUIVALENT = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_UNKNOWN = 2

#: On-the-wire schema version of VerifyRequest/VerifyReport dicts.
API_SCHEMA_VERSION = 1


@runtime_checkable
class VerificationResult(Protocol):
    """The common protocol of every verification outcome type.

    :class:`repro.core.verify.SeqCheckResult` and
    :class:`repro.cec.CheckResult` both satisfy it structurally — code
    that only reads these members works unchanged on either.
    """

    reason: Optional[str]
    failing_output: Optional[str]

    @property
    def equivalent(self) -> bool:
        """True when the outcome proves equivalence."""
        ...

    def as_dict(self) -> Dict[str, object]:
        """The canonical JSON form — exactly the :data:`RESULT_KEYS` keys."""
        ...


def exit_code_for_verdict(verdict: Union[str, SeqVerdict]) -> int:
    """Map a verdict (enum or canonical string) onto the exit-code contract."""
    value = verdict.value if isinstance(verdict, SeqVerdict) else str(verdict)
    if value == SeqVerdict.EQUIVALENT.value:
        return EXIT_EQUIVALENT
    if value == SeqVerdict.NOT_EQUIVALENT.value:
        return EXIT_NOT_EQUIVALENT
    return EXIT_UNKNOWN


def _blif_bytes(circuit: Union[str, os.PathLike, Circuit]) -> bytes:
    """The bytes that define a circuit's identity for fingerprinting."""
    if isinstance(circuit, Circuit):
        return write_blif(circuit).encode("utf-8")
    with open(os.fspath(circuit), "rb") as handle:
        return handle.read()


#: VerifyRequest fields holding the two circuits (serialised separately).
_CIRCUIT_FIELDS = ("golden", "revised")
#: VerifyRequest fields holding a file path or a store object with a
#: ``path`` attribute (:class:`~repro.cec.ProofCache`,
#: :class:`~repro.cec.OutcomeStore`).
_PATH_FIELDS = ("cache", "dispatch_store")


def _default(f) -> Any:
    """A dataclass field's default value."""
    return f.default_factory() if f.default is MISSING else f.default


@dataclass
class VerifyRequest:
    """One circuit-pair verification obligation as plain data.

    ``golden`` / ``revised`` are BLIF paths or in-memory
    :class:`~repro.netlist.Circuit` objects.  The reduction fields mirror
    :func:`repro.core.verify.check_sequential_equivalence`.  The engine
    fields carry the names and defaults of the
    :class:`~repro.cec.CecOptions` fields and become one value through
    :meth:`cec_options`.  ``jobs`` and the resource fields describe the
    run: the worker count and the per-request
    :class:`~repro.runtime.Budget`.  A request serialises to a stable
    JSON dict (:meth:`to_dict`) — the batch-manifest row format — and
    hashes to a content-addressed :meth:`fingerprint` used for dedup and
    store resume.
    """

    golden: Union[str, os.PathLike, Circuit]
    revised: Union[str, os.PathLike, Circuit]
    name: str = ""
    priority: int = 0
    # Reduction options (verdict-relevant; part of the fingerprint).
    prepare: bool = True
    use_unateness: bool = True
    event_rewrite: bool = False
    validate_cex: bool = True
    # Sweep worker processes: a run resource, not an engine option.
    jobs: int = 1
    # Engine options (verdict-preserving; not fingerprinted), named as in
    # CecOptions.  ``cache`` may also be a live ProofCache (the Table 1
    # harness shares one across rows).
    cache: Union[None, str, os.PathLike, ProofCache] = None
    refine: bool = True
    preprocess: bool = True
    share_learned: bool = True
    # Resource budget (None = unlimited).
    time_limit: Optional[float] = None
    sat_conflicts: Optional[int] = None
    sat_propagations: Optional[int] = None
    bdd_node_limit: Optional[int] = None
    # Free-form caller annotations, carried through to the report.
    metadata: Dict[str, Any] = field(default_factory=dict)
    # Engine-portfolio dispatch (verdict-preserving; not fingerprinted).
    # ``engines`` is a list of adapter names (or a comma-separated
    # string, normalised to a list); None lets the policy choose.
    engines: Optional[List[str]] = None
    dispatch_policy: str = "cascade"
    dispatch_store: Union[None, str, os.PathLike] = None

    def __post_init__(self) -> None:
        if isinstance(self.engines, str):
            self.engines = [
                part.strip() for part in self.engines.split(",") if part.strip()
            ]
        elif self.engines is not None:
            self.engines = list(self.engines)
        if not self.name:
            self.name = f"{self._label(self.golden)}~{self._label(self.revised)}"

    @staticmethod
    def _label(circuit: Union[str, os.PathLike, Circuit]) -> str:
        if isinstance(circuit, Circuit):
            return circuit.name
        stem = os.path.basename(os.fspath(circuit))
        return stem[:-5] if stem.endswith(".blif") else stem

    # ------------------------------------------------------------------
    # derived forms
    # ------------------------------------------------------------------
    def load(self) -> tuple:
        """Materialise (golden, revised) as validated circuits."""
        pair = []
        for side in (self.golden, self.revised):
            circuit = (
                side
                if isinstance(side, Circuit)
                else parse_blif_file(os.fspath(side))
            )
            validate_circuit(circuit)
            pair.append(circuit)
        return pair[0], pair[1]

    def cec_options(self) -> CecOptions:
        """The request's engine fields as one :class:`~repro.cec.CecOptions`."""
        return CecOptions(
            **{f.name: getattr(self, f.name) for f in fields(CecOptions)}
        )

    def budget(self) -> Optional[Budget]:
        """A fresh Budget from the resource fields (None when unlimited).

        Fresh on every call — deadlines are single-use, so a retried or
        requeued request must not inherit a spent clock.
        """
        budget = Budget(
            wall_seconds=self.time_limit,
            sat_conflicts=self.sat_conflicts,
            sat_propagations=self.sat_propagations,
            bdd_nodes=self.bdd_node_limit,
        )
        return None if budget.unlimited else budget

    def fingerprint(self) -> str:
        """Content-addressed identity of the obligation.

        Hashes the two circuits' BLIF bytes plus every verdict-relevant
        option, so two manifest rows naming byte-identical files dedup
        even under different names/paths, while requests differing in a
        way that can change the verdict never collide.  The engine
        options (the :class:`~repro.cec.CecOptions` fields), ``jobs`` and
        budgets are deliberately excluded: they affect *whether* a
        verdict is reached, not which one.
        """
        h = hashlib.sha256()
        h.update(_blif_bytes(self.golden))
        h.update(b"\x00")
        h.update(_blif_bytes(self.revised))
        options = {
            "prepare": self.prepare,
            "use_unateness": self.use_unateness,
            "event_rewrite": self.event_rewrite,
        }
        h.update(json.dumps(options, sort_keys=True).encode("utf-8"))
        return h.hexdigest()

    # ------------------------------------------------------------------
    # JSON round trip (the batch-manifest row schema)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON form; circuits given as objects become inline BLIF.

        Fields at their default are left out.  ``cache`` and
        ``dispatch_store`` are written as paths; a live store object
        without a backing file has no JSON form and raises
        :class:`ValueError` naming the field.
        """
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _CIRCUIT_FIELDS:
                if isinstance(value, Circuit):
                    out[f.name + "_blif"] = write_blif(value)
                else:
                    out[f.name] = os.fspath(value)
                continue
            if value == _default(f):
                continue
            if f.name in _PATH_FIELDS:
                value = getattr(value, "path", value)
                if value is None:
                    raise ValueError(
                        f"VerifyRequest.{f.name} is a store with no file "
                        "path; it cannot be serialised"
                    )
                value = os.fspath(value)
            elif f.name == "metadata":
                value = dict(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Any],
        base_dir: Union[None, str, os.PathLike] = None,
    ) -> "VerifyRequest":
        """Build a request from its :meth:`to_dict` / manifest-row form.

        ``base_dir`` resolves relative circuit paths (a manifest's rows
        are relative to the manifest file).  Unknown keys are rejected —
        a typoed option silently meaning "default" is how wrong verdicts
        get trusted.
        """
        from repro.netlist.blif import parse_blif

        names = {f.name for f in fields(cls)}
        unknown = set(data) - names - {"golden_blif", "revised_blif"}
        if unknown:
            raise ValueError(
                f"unknown VerifyRequest field(s): {sorted(unknown)}"
            )
        sides: Dict[str, Union[str, Circuit]] = {}
        for key in _CIRCUIT_FIELDS:
            if key + "_blif" in data:
                sides[key] = parse_blif(str(data[key + "_blif"]))
            elif key in data:
                path = os.fspath(str(data[key]))
                if base_dir is not None and not os.path.isabs(path):
                    path = os.path.join(os.fspath(base_dir), path)
                sides[key] = path
            else:
                raise ValueError(f"VerifyRequest needs {key!r} or {key}_blif")
        kwargs = {
            key: data[key]
            for key in names - set(_CIRCUIT_FIELDS)
            if key in data
        }
        if "metadata" in kwargs:
            kwargs["metadata"] = dict(kwargs["metadata"] or {})
        return cls(**sides, **kwargs)


@dataclass
class VerifyReport:
    """The canonical outcome of one verified request.

    Carries the full canonical result dict (``verdict`` / ``method`` /
    ``reason`` / ``counterexample`` / ``failing_output`` / ``stats`` —
    see :data:`RESULT_KEYS`) plus request bookkeeping: the request name
    and fingerprint, wall time, and caller metadata.  JSON-stable via
    :meth:`as_dict` / :meth:`from_dict`.
    """

    verdict: str
    method: str = ""
    reason: Optional[str] = None
    counterexample: Optional[Any] = None
    failing_output: Optional[str] = None
    stats: Dict[str, float] = field(default_factory=dict)
    name: str = ""
    fingerprint: str = ""
    elapsed_seconds: float = 0.0
    metadata: Dict[str, Any] = field(default_factory=dict)
    # Output obligations decided per engine adapter name (cache replays
    # count under "structural"); empty when the core path did not run
    # the CEC portfolio (e.g. structural short-circuits).
    engine_used: Dict[str, int] = field(default_factory=dict)

    @property
    def equivalent(self) -> bool:
        """True when the verdict is EQUIVALENT."""
        return self.verdict == SeqVerdict.EQUIVALENT.value

    @property
    def decided(self) -> bool:
        """True for a definitive verdict (equivalent / not_equivalent)."""
        return self.verdict in (
            SeqVerdict.EQUIVALENT.value,
            SeqVerdict.NOT_EQUIVALENT.value,
        )

    @property
    def exit_code(self) -> int:
        """The process exit code this verdict maps to (0 / 1 / 2)."""
        return exit_code_for_verdict(self.verdict)

    @classmethod
    def from_result(
        cls,
        result: VerificationResult,
        request: Optional[VerifyRequest] = None,
        elapsed_seconds: float = 0.0,
        fingerprint: str = "",
    ) -> "VerifyReport":
        """Wrap a core/CEC result object into the stable report shape.

        Verdicts pass through faithfully (an INCONCLUSIVE report still
        says ``inconclusive``); the exit-code contract folds it into
        code 2 via :func:`exit_code_for_verdict`, and its reason slot is
        filled with :data:`REASON_INCONCLUSIVE` so undecided outcomes
        always say why.
        """
        data = result.as_dict()
        verdict = str(data["verdict"])
        reason = data["reason"]
        if verdict == SeqVerdict.INCONCLUSIVE.value:
            reason = reason or REASON_INCONCLUSIVE
        stats = dict(data["stats"])  # type: ignore[arg-type]
        engine_used: Dict[str, int] = {}
        for prefix in ("cec_engine_", "engine_"):
            for key, value in stats.items():
                if key.startswith(prefix):
                    engine_used[key[len(prefix) :]] = int(value)
            if engine_used:
                break
        return cls(
            verdict=verdict,
            method=str(data["method"]),
            reason=reason,
            counterexample=data["counterexample"],
            failing_output=data["failing_output"],
            stats=stats,
            name=request.name if request is not None else "",
            fingerprint=fingerprint,
            elapsed_seconds=elapsed_seconds,
            metadata=dict(request.metadata) if request is not None else {},
            engine_used=engine_used,
        )

    def as_dict(self) -> Dict[str, Any]:
        """Stable JSON form (canonical result keys + report bookkeeping)."""
        return {
            "schema": API_SCHEMA_VERSION,
            "verdict": self.verdict,
            "method": self.method,
            "reason": self.reason,
            "counterexample": self.counterexample,
            "failing_output": self.failing_output,
            "stats": dict(self.stats),
            "name": self.name,
            "fingerprint": self.fingerprint,
            "elapsed_seconds": self.elapsed_seconds,
            "exit_code": self.exit_code,
            "metadata": dict(self.metadata),
            "engine_used": dict(self.engine_used),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "VerifyReport":
        """Inverse of :meth:`as_dict`; tolerant of missing bookkeeping."""
        return cls(
            verdict=str(data["verdict"]),
            method=str(data.get("method", "")),
            reason=data.get("reason"),
            counterexample=data.get("counterexample"),
            failing_output=data.get("failing_output"),
            stats=dict(data.get("stats") or {}),
            name=str(data.get("name", "")),
            fingerprint=str(data.get("fingerprint", "")),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            metadata=dict(data.get("metadata") or {}),
            engine_used={
                str(k): int(v)
                for k, v in (data.get("engine_used") or {}).items()
            },
        )

    def summary(self) -> str:
        """One human-readable line (the ``repro batch`` per-job summary)."""
        tail = f" reason={self.reason}" if self.reason else ""
        return (
            f"{self.name or self.fingerprint[:12]}: {self.verdict}"
            f" (exit {self.exit_code}, {self.elapsed_seconds:.2f}s)" + tail
        )


def verify_pair(
    golden: Union[str, os.PathLike, Circuit, VerifyRequest],
    revised: Union[None, str, os.PathLike, Circuit] = None,
    *,
    budget: Union[None, int, float, Budget] = None,
    tracer=None,
    metrics=None,
    **options: Any,
) -> VerifyReport:
    """Verify one circuit pair through the stable facade.

    Either pass ``golden``/``revised`` (paths or circuits) plus
    :class:`VerifyRequest` option fields as keyword arguments, or pass a
    ready-made :class:`VerifyRequest` as the single positional argument.
    ``tracer`` / ``metrics`` are the usual observability sinks
    (:mod:`repro.obs`); they are run-scoped, not request data, which is
    why they are not ``VerifyRequest`` fields.  ``budget`` overrides the
    request's own resource fields with a live
    :class:`~repro.runtime.Budget` (or bare wall seconds) — for callers
    like flows that carve one run-level budget into per-call slices.
    """
    if isinstance(golden, VerifyRequest):
        if revised is not None or options:
            raise TypeError(
                "verify_pair(request) takes no further circuit/options"
            )
        request = golden
    else:
        if revised is None:
            raise TypeError("verify_pair() needs both golden and revised")
        request = VerifyRequest(golden=golden, revised=revised, **options)
    c1, c2 = request.load()
    t0 = time.perf_counter()
    result = check_sequential_equivalence(
        c1,
        c2,
        prepare=request.prepare,
        use_unateness=request.use_unateness,
        event_rewrite=request.event_rewrite,
        validate_cex=request.validate_cex,
        options=request.cec_options(),
        n_jobs=request.jobs,
        budget=Budget.coerce(budget) if budget is not None else request.budget(),
        tracer=tracer,
        metrics=metrics,
    )
    return VerifyReport.from_result(
        result,
        request,
        elapsed_seconds=time.perf_counter() - t0,
        fingerprint=request.fingerprint(),
    )


def verify_batch(
    requests: Iterable[Union[VerifyRequest, Mapping[str, Any]]],
    *,
    jobs: int = 1,
    budget: Union[None, int, float, Budget] = None,
    cache: Union[None, str, os.PathLike] = None,
    store: Union[None, str, os.PathLike] = None,
    resume: bool = False,
    retries: int = 2,
    use_processes: bool = True,
    tracer=None,
    metrics=None,
) -> List["VerifyReport"]:
    """Verify many circuit pairs on the sharded async service runtime.

    ``jobs`` worker lanes run concurrently (a process pool by default;
    ``use_processes=False`` keeps execution in-process for tests and
    tiny batches).  ``budget`` is the *batch* budget — each job receives
    an even :meth:`~repro.runtime.Budget.slice` of the remaining wall
    time.  ``cache`` shares one persistent proof-cache file across all
    jobs; ``store``/``resume`` persist results to a JSONL
    :class:`repro.service.store.ResultStore` and skip already-decided
    fingerprints.  Returns one report per request, in request order
    (deduplicated requests share the winning report).

    This is the synchronous convenience wrapper over
    :meth:`repro.service.scheduler.BatchRunner.run`, which ``repro batch``
    runs too.
    """
    import asyncio

    from repro.service.scheduler import BatchRunner

    runner = BatchRunner(
        jobs=jobs,
        budget=Budget.coerce(budget),
        cache=cache,
        store=store,
        resume=resume,
        retries=retries,
        use_processes=use_processes,
        tracer=tracer,
        metrics=metrics,
    )
    request_list = [
        req
        if isinstance(req, VerifyRequest)
        else VerifyRequest.from_dict(req)
        for req in requests
    ]
    results = asyncio.run(runner.run(request_list))
    return [r.report for r in results]
