"""The ``engines`` option: the default check against the SAT path.

Pins what ``engines`` still means:

* ``None`` runs the default check; every accepted named value — ``sat``
  alone or with ``structural``, as a list or a comma list — runs the SAT
  path alone, with the same verdict as the default check, and the named
  spellings agree with each other in every stat;
* a budget that does not run out changes nothing about the SAT path;
* the SAT path proves, and refutes with a counterexample that the plain
  two-valued simulator confirms; ``engine_sat`` counts the open pairs SAT
  decided, up to and including a failing one;
* anything else (``sim``, ``bdd``, an unknown name, no names, no ``sat``)
  is rejected where it enters: ``CecOptions``, ``VerifyRequest``, a
  manifest row (with its index) and the ``--engines`` flags of ``repro
  verify`` and ``repro batch`` (exit 2 before any job runs).
"""

from __future__ import annotations

import json

import pytest

from repro.api import VerifyRequest
from repro.bench.random_circuits import random_combinational
from repro.cec import SAT_PORTFOLIO, CecOptions
from repro.cec import engine as cec_engine
from repro.cec.engine import CecVerdict, check_equivalence
from repro.cec.options import parse_engines
from repro.cec.parallel import EQ, NEQ
from repro.cli import main
from repro.netlist.blif import write_blif
from repro.netlist.build import CircuitBuilder
from repro.runtime.budget import Budget
from repro.service.jobs import parse_manifest
from repro.sim.logic2 import simulate


def xor_chain(n, name="chain"):
    b = CircuitBuilder(name)
    xs = b.inputs(*[f"x{i}" for i in range(n)])
    acc = xs[0]
    for x in xs[1:]:
        acc = b.XOR(acc, x)
    b.output(acc, name="o")
    return b.circuit


def xor_tree(n, name="tree"):
    b = CircuitBuilder(name)
    xs = list(b.inputs(*[f"x{i}" for i in range(n)]))
    while len(xs) > 1:
        nxt = [b.XOR(xs[i], xs[i + 1]) for i in range(0, len(xs) - 1, 2)]
        if len(xs) % 2:
            nxt.append(xs[-1])
        xs = nxt
    b.output(xs[0], name="o")
    return b.circuit


def complement_chain(n, name="notchain"):
    """The chain's complement — differs on *every* input vector."""
    b = CircuitBuilder(name)
    xs = b.inputs(*[f"x{i}" for i in range(n)])
    acc = xs[0]
    for x in xs[1:]:
        acc = b.XOR(acc, x)
    b.output(b.NOT(acc), name="o")
    return b.circuit


def three_outputs(kind, name, flip=False):
    """Outputs ``a`` (parity of x0..x5), ``b`` (x0 AND x1, hashed onto one
    literal in the miter) and ``c`` (parity of x2..x7, complemented when
    ``flip``); ``kind`` builds the parities as chains or trees."""
    b = CircuitBuilder(name)
    xs = b.inputs(*[f"x{i}" for i in range(8)])

    def parity(bits):
        if kind == "chain":
            acc = bits[0]
            for x in bits[1:]:
                acc = b.XOR(acc, x)
            return acc
        bits = list(bits)
        while len(bits) > 1:
            nxt = [
                b.XOR(bits[i], bits[i + 1])
                for i in range(0, len(bits) - 1, 2)
            ]
            if len(bits) % 2:
                nxt.append(bits[-1])
            bits = nxt
        return bits[0]

    b.output(parity(xs[:6]), name="a")
    b.output(b.AND(xs[0], xs[1]), name="b")
    c = parity(xs[2:])
    b.output(b.NOT(c) if flip else c, name="c")
    return b.circuit


def distinguishes(c1, c2, counterexample) -> bool:
    vec = {k: bool(v) for k, v in counterexample.items()}
    return simulate(c1, [vec]).outputs[0] != simulate(c2, [vec]).outputs[0]


CASES = [
    ("eq-xor", lambda: (xor_chain(12, "a"), xor_tree(12, "b")), EQ),
    (
        "neq-complement",
        lambda: (xor_chain(8, "a"), complement_chain(8, "b")),
        NEQ,
    ),
    (
        "neq-random",
        lambda: (
            random_combinational(seed=3, name="a"),
            random_combinational(seed=77, name="b"),
        ),
        None,  # whatever the default check says, the SAT path must match
    ),
    (
        "eq-hashed-output",
        lambda: (three_outputs("chain", "a"), three_outputs("tree", "b")),
        EQ,
    ),
]
CASE_IDS = [case[0] for case in CASES]
#: What every rejection says: the two accepted names.
NAMES_BOTH = r"'sat'.*'structural'"


def effort(result):
    """A check's stats without its wall times."""
    return {
        key: value
        for key, value in result.stats.items()
        if not key.startswith("time")
    }


class TestRegistry:
    """What is left of the engine registry: two accepted names, and a
    loud ``ValueError`` naming them for anything else."""

    def test_unknown_engine_lists_available(self):
        with pytest.raises(ValueError, match=r"'nope'") as info:
            parse_engines("nope")
        assert "'sat'" in str(info.value)
        assert "'structural'" in str(info.value)

    def test_unknown_engine_rejected_by_check(self, monkeypatch):
        # ``CecOptions`` already refuses the value; the check reads it
        # again through the same validator before building any miter.
        options = CecOptions()
        object.__setattr__(options, "engines", ["sim", "nope"])

        def no_miter(*_):
            raise AssertionError("miter built for a rejected value")

        monkeypatch.setattr(cec_engine, "build_miter", no_miter)
        with pytest.raises(ValueError, match=NAMES_BOTH):
            check_equivalence(xor_chain(4), xor_tree(4), options)

    def test_empty_portfolio_rejected(self):
        for empty in ([], "", " , "):
            with pytest.raises(ValueError, match=NAMES_BOTH):
                CecOptions(engines=empty)

    def test_comma_string_portfolio(self):
        assert parse_engines("structural, sat") == ["structural", "sat"]
        assert parse_engines(SAT_PORTFOLIO) == ["structural", "sat"]
        assert parse_engines(None) is None


class TestPolicyVerdictParity:
    """The SAT path decides like the default check, however it is named."""

    # ``cascade`` leaves ``engines`` unset (structural, truth tables,
    # SAT); ``named`` names the SAT path without the tables.
    @pytest.mark.parametrize(
        "engines",
        [
            pytest.param(None, id="cascade"),
            pytest.param(SAT_PORTFOLIO, id="named"),
        ],
    )
    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_same_verdict(self, case, engines):
        _, make, expect = case
        c1, c2 = make()
        reference = check_equivalence(c1, c2)
        r = check_equivalence(c1, c2, CecOptions(engines=engines))
        assert r.verdict is reference.verdict
        if expect == EQ:
            assert r.equivalent
        elif expect == NEQ:
            assert r.verdict is CecVerdict.NOT_EQUIVALENT
        if r.verdict is CecVerdict.NOT_EQUIVALENT:
            assert distinguishes(c1, c2, r.counterexample)

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_every_spelling_runs_the_same_check(self, case):
        # ``["sat"]`` skips a pair hashed onto one literal just as
        # ``SAT_PORTFOLIO`` does, so not even the query count differs.
        _, make, _ = case
        c1, c2 = make()
        reference = check_equivalence(c1, c2, CecOptions(engines=SAT_PORTFOLIO))
        assert "engine_tables" not in reference.stats
        for spelling in (["sat"], "structural,sat", " sat "):
            r = check_equivalence(c1, c2, CecOptions(engines=spelling))
            assert r.verdict is reference.verdict, spelling
            assert r.counterexample == reference.counterexample, spelling
            assert r.failing_output == reference.failing_output, spelling
            assert effort(r) == effort(reference), spelling


class TestBudgetOnlyBounds:
    """A budget bounds the SAT path; it never changes it."""

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_unspent_budget_changes_nothing(self, case):
        # The SAT path, named: its counts are what a budget must leave
        # alone, and the default check's truth-table phase would decide
        # these small cases without any.
        _, make, _ = case
        c1, c2 = make()
        options = CecOptions(engines=SAT_PORTFOLIO)
        free = check_equivalence(c1, c2, options)
        bounded = check_equivalence(
            c1, c2, options, budget=Budget(wall_seconds=1e4)
        )
        assert bounded.verdict is free.verdict
        assert bounded.counterexample == free.counterexample
        assert bounded.failing_output == free.failing_output
        keys = {
            key
            for stats in (free.stats, bounded.stats)
            for key in stats
            if key in ("sat_queries", "core_retired")
            or key.startswith("engine_")
        }
        assert "engine_sat" in keys
        for key in sorted(keys):
            assert bounded.stats.get(key) == free.stats.get(key), key


class TestPortfolioSelection:
    def test_sat_only_proves(self):
        r = check_equivalence(
            xor_chain(8, "a"), xor_tree(8, "b"),
            CecOptions(engines=["sat"], preprocess=False),
        )
        assert r.equivalent
        assert r.stats.get("engine_sat", 0) >= 1

    def test_sat_only_refutes_with_counterexample(self):
        c1, c2 = xor_chain(6, "a"), complement_chain(6, "b")
        r = check_equivalence(
            c1, c2, CecOptions(engines=["sat"], preprocess=False)
        )
        assert r.verdict is CecVerdict.NOT_EQUIVALENT
        assert r.stats["sat_queries"] > 0
        assert distinguishes(c1, c2, r.counterexample)

    def test_engine_sat_counts_each_open_pair(self):
        # ``b`` is hashed onto one literal and never reaches SAT; ``a``
        # and ``c`` are open, and SAT decides both.
        r = check_equivalence(
            three_outputs("chain", "a"),
            three_outputs("tree", "b"),
            CecOptions(preprocess=False, engines=SAT_PORTFOLIO),
        )
        assert r.equivalent
        assert r.stats["engine_sat"] == 2
        assert r.engine.engines_used == {"sat": 2}

    def test_engine_sat_stops_at_the_failing_pair(self):
        c1 = three_outputs("chain", "a")
        c2 = three_outputs("tree", "b", flip=True)
        r = check_equivalence(
            c1, c2, CecOptions(preprocess=False, engines=SAT_PORTFOLIO)
        )
        assert r.verdict is CecVerdict.NOT_EQUIVALENT
        assert r.failing_output == "c"
        assert r.stats["engine_sat"] == 2
        vec = {k: bool(v) for k, v in r.counterexample.items()}
        out1, out2 = (simulate(c, [vec]).outputs[0] for c in (c1, c2))
        assert out1["c"] != out2["c"]


#: Values every entry point rejects: the removed adapters, an unknown
#: name, no names at all, and names without ``sat``.
REJECTED = [
    pytest.param("sim", id="sim"),
    pytest.param("bdd", id="bdd"),
    pytest.param("nope", id="nope"),
    pytest.param([], id="empty"),
    pytest.param(["structural"], id="structural"),
    pytest.param(["sim", "sat"], id="sim-sat"),
]


def cli_spelling(value):
    return value if isinstance(value, str) else ",".join(value)


@pytest.fixture(scope="module")
def blif_pair(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("engines")
    golden, revised = tmp / "g.blif", tmp / "r.blif"
    golden.write_text(write_blif(xor_chain(6, "g")))
    revised.write_text(write_blif(xor_tree(6, "r")))
    return golden, revised


class TestRejectedNames:
    @pytest.mark.parametrize("value", REJECTED)
    def test_cec_options(self, value):
        with pytest.raises(ValueError, match=NAMES_BOTH):
            CecOptions(engines=value)

    @pytest.mark.parametrize("value", REJECTED)
    def test_verify_request(self, value, blif_pair):
        golden, revised = blif_pair
        with pytest.raises(ValueError, match=NAMES_BOTH):
            VerifyRequest(golden=golden, revised=revised, engines=value)

    @pytest.mark.parametrize("value", REJECTED)
    def test_manifest_row_fails_with_its_index(self, value, blif_pair):
        good = {"golden": str(blif_pair[0]), "revised": str(blif_pair[1])}
        with pytest.raises(ValueError, match=r"^manifest row 1: .*'sat'"):
            parse_manifest([good, {**good, "engines": value}])

    @pytest.mark.parametrize("value", REJECTED)
    def test_verify_flag_is_a_usage_error(self, value, blif_pair, capsys):
        golden, revised = blif_pair
        with pytest.raises(SystemExit) as exc:
            main(
                ["verify", str(golden), str(revised),
                 "--engines", cli_spelling(value)]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --engines" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", REJECTED)
    def test_batch_flag_is_a_usage_error(
        self, value, blif_pair, tmp_path, capsys
    ):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                [{"golden": str(blif_pair[0]), "revised": str(blif_pair[1])}]
            )
        )
        store = tmp_path / "results.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(
                ["batch", str(manifest), "--in-process", "--store",
                 str(store), "--engines", cli_spelling(value)]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --engines" in err and "Traceback" not in err
        assert not store.exists()  # no job ran

    def test_accepted_spellings_normalise_to_lists(self, blif_pair):
        golden, revised = blif_pair
        for value, names in (
            ("sat", ["sat"]),
            ("structural, sat", ["structural", "sat"]),
            (SAT_PORTFOLIO, ["structural", "sat"]),
        ):
            request = VerifyRequest(golden=golden, revised=revised, engines=value)
            assert request.engines == names
            assert request.cec_options().engines == names
