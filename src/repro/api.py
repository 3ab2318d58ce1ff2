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
import warnings
from dataclasses import MISSING, dataclass, field, fields
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.cec.options import CecOptions, parse_engines
from repro.core.verify import SeqVerdict, check_sequential_equivalence
from repro.netlist.blif import parse_blif_file, write_blif
from repro.netlist.circuit import Circuit, Gate
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

#: Deprecated VerifyRequest fields that no longer do anything: their
#: inert default, the release that made them inert, the release that
#: removes them, and why.  They still load (manifests and stores written
#: by older releases) but warn when set, and are never fingerprinted.
#: ``jobs`` and ``share_learned`` go in 1.6.0, not 1.5.0 as 1.4.0
#: announced: the repository benchmark still passes ``jobs=1`` and
#: ``table1_row(n_jobs=1)``.
_INERT_FIELDS = {
    "jobs": (
        1,
        "1.4.0",
        "1.6.0",
        "the CEC sweep runs in-process; `repro batch --jobs` sets the "
        "batch's worker lanes",
    ),
    "share_learned": (
        True,
        "1.4.0",
        "1.6.0",
        "learned-clause sharing between sweep units is gone; it never "
        "changed a verdict or a SAT-query count",
    ),
    "cache": (
        None,
        "1.5.0",
        "1.6.0",
        "the proof cache is gone; `repro batch --store F --resume` "
        "replays pairs already decided",
    ),
    "bdd_node_limit": (
        None,
        "1.6.0",
        "1.7.0",
        "the `bdd` engine is gone; SAT decides every output the truth "
        "tables leave open",
    ),
}


def _warn_inert(what: str, name: str, stacklevel: int) -> None:
    """The one deprecation notice of inert field ``name``, set as ``what``."""
    _, since, removed, why = _INERT_FIELDS[name]
    warnings.warn(
        f"{what} is ignored since {since} and is removed in {removed}: {why}",
        DeprecationWarning,
        stacklevel=stacklevel + 1,
    )


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
    :meth:`cec_options`.  The resource fields describe the run: the
    per-request :class:`~repro.runtime.Budget`.  A request serialises to
    a stable JSON dict (:meth:`to_dict`) — the batch-manifest row format
    — and hashes to a content-addressed :meth:`fingerprint` used for
    dedup and store resume.
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
    # Deprecated since 1.4.0 and inert: see _INERT_FIELDS.
    jobs: int = 1
    # Deprecated since 1.5.0 and inert: see _INERT_FIELDS.
    cache: Union[None, str, os.PathLike] = None
    # Engine options (verdict-preserving; not fingerprinted), named as in
    # CecOptions.
    refine: bool = True
    preprocess: bool = True
    # Deprecated since 1.4.0 and inert: see _INERT_FIELDS.
    share_learned: bool = True
    # Resource budget (None = unlimited).
    time_limit: Optional[float] = None
    sat_conflicts: Optional[int] = None
    sat_propagations: Optional[int] = None
    # Deprecated since 1.6.0 and inert: see _INERT_FIELDS.
    bdd_node_limit: Optional[int] = None
    # Free-form caller annotations, carried through to the report.
    metadata: Dict[str, Any] = field(default_factory=dict)
    # The CEC engines (verdict-preserving; not fingerprinted), as in
    # CecOptions: None runs the default check; ``sat``, alone or with
    # ``structural`` (a list, or a comma-separated string normalised to
    # a list), runs the SAT path alone.  Anything else raises.
    engines: Optional[List[str]] = None

    def __post_init__(self) -> None:
        for name, (inert, *_) in _INERT_FIELDS.items():
            if getattr(self, name) != inert:
                _warn_inert(f"VerifyRequest.{name}", name, 3)
        self.engines = parse_engines(self.engines)
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
        (golden, _), (revised, _) = self._load_sorted()
        return golden, revised

    def _load_sorted(self) -> Tuple[Tuple[Circuit, List[Gate]], ...]:
        """Each side as ``(circuit, order)``: validated, with the
        ``topo_gates()`` that :func:`validate_circuit` returns."""
        pair = []
        for side in (self.golden, self.revised):
            circuit = (
                side
                if isinstance(side, Circuit)
                else parse_blif_file(os.fspath(side))
            )
            pair.append((circuit, validate_circuit(circuit)))
        return tuple(pair)

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
        )
        return None if budget.unlimited else budget

    def fingerprint(self) -> str:
        """Content-addressed identity of the obligation.

        Hashes the two circuits' BLIF bytes plus every verdict-relevant
        option, so two manifest rows naming byte-identical files dedup
        even under different names/paths, while requests differing in a
        way that can change the verdict never collide.  The engine
        options (the :class:`~repro.cec.CecOptions` fields), the inert
        deprecated fields and budgets are deliberately excluded: they
        affect *whether* a verdict is reached, not which one.
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

        Fields at their default are left out; an inert ``cache`` is
        written as a path string.
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
            if f.name == "cache":
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
    # Output pairs decided by the CEC's truth tables (``tables``) and by
    # SAT (``sat``); empty when no pair reached either (e.g. structural
    # short-circuits).
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
    return _verify(
        request,
        request.fingerprint(),
        budget=budget,
        tracer=tracer,
        metrics=metrics,
    )


def _verify(
    request: VerifyRequest,
    fingerprint: str,
    *,
    budget: Union[None, int, float, Budget] = None,
    tracer=None,
    metrics=None,
) -> VerifyReport:
    """:func:`verify_pair` on a request whose fingerprint is known.

    The batch worker passes the fingerprint its job already carries, so a
    batch job writes and hashes its circuits' BLIF once, at submission.
    """
    (c1, topo1), (c2, topo2) = request._load_sorted()
    t0 = time.perf_counter()
    result = check_sequential_equivalence(
        c1,
        c2,
        prepare=request.prepare,
        use_unateness=request.use_unateness,
        event_rewrite=request.event_rewrite,
        validate_cex=request.validate_cex,
        options=request.cec_options(),
        budget=Budget.coerce(budget) if budget is not None else request.budget(),
        tracer=tracer,
        metrics=metrics,
        topo1=topo1,
        topo2=topo2,
    )
    return VerifyReport.from_result(
        result,
        request,
        elapsed_seconds=time.perf_counter() - t0,
        fingerprint=fingerprint,
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
    time.  ``store``/``resume`` persist results to a JSONL
    :class:`repro.service.store.ResultStore` and skip already-decided
    fingerprints.  Returns one report per request, in request order
    (deduplicated requests share the winning report).  ``cache`` is
    inert since 1.5.0: setting it warns once and changes nothing.

    This is the synchronous convenience wrapper over
    :meth:`repro.service.scheduler.BatchRunner.run`, which ``repro batch``
    runs too.
    """
    import asyncio

    from repro.service.scheduler import BatchRunner

    if cache is not None:
        _warn_inert("verify_batch(cache=...)", "cache", 2)
    runner = BatchRunner(
        jobs=jobs,
        budget=Budget.coerce(budget),
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
