"""The benchmark's own checks: seeded inputs, planted answers, the tracer.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
from fractions import Fraction as F

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import planebranch  # noqa: E402
from planebranch.errors import NonRationalCoefficient, PrecisionExhausted  # noqa: E402
from planebranch.geometry import Parametrization, contact, intersection  # noqa: E402


@pytest.fixture(scope="module")
def ladder_plans():
    return workloads.ladder(7), workloads.ladder(7), workloads.ladder(8)


def test_same_seed_same_inputs_other_seed_other_inputs(ladder_plans, tmp_path):
    a, b, c = ladder_plans
    assert a.inputs == b.inputs
    assert a.inputs != c.inputs
    assert [op.key for ops in a.rounds for op in ops] == [op.key for ops in c.rounds for op in ops]
    p1, p2, p3 = (workloads.pairs(s) for s in (7, 7, 8))
    assert p1.inputs == p2.inputs and p1.inputs != p3.inputs
    c1 = workloads.cli_mix(7, str(tmp_path / "a")).inputs
    c2 = workloads.cli_mix(7, str(tmp_path / "b")).inputs
    c3 = workloads.cli_mix(8, str(tmp_path / "c")).inputs
    assert c1 == c2 and c1 != c3


def _outcome(op):
    result, error, _ = worker.run_op(op)
    status, reason, _ = worker.judge(op, result, error, {})
    return status, reason, error


def test_planted_answers_on_the_smallest_ladder_rungs(ladder_plans):
    smallest = [op for op in ladder_plans[0].rounds[0] if ".K(3," in op.key]
    assert len(smallest) == 2
    for op in smallest:
        assert _outcome(op)[:2] == ("ok", None), op.key


def test_planted_answers_on_the_smallest_pair_class():
    rng = __import__("random").Random("test")
    item = gen.pair_item(rng, (4, 6, 9), 16, None)
    for op in workloads._pair_ops("K(4,6,9)", item):
        status, reason, error = _outcome(op)
        if op.key.endswith(".puiseux") and status == "defect":
            # the known Newton-Puiseux defect on negative leading data
            assert isinstance(error, NonRationalCoefficient)
            continue
        assert (status, reason) == ("ok", None), op.key


def test_cli_mix_outcomes(tmp_path):
    plan = workloads.cli_mix(3, str(tmp_path / "work"))
    for op in plan.rounds[0]:
        status, reason, error = _outcome(op)
        if op.key.startswith("defect."):
            # a non-positive --precision escapes main as a bare ValueError
            assert status == "ok" or (status == "defect" and type(error) is ValueError), op.key
            continue
        assert (status, reason) == ("ok", None), op.key


def _raising(key, exc, known=()):
    def call():
        raise exc
    return workloads.Op(key, call, lambda r: None, str, known=known)


def _records(*ops, golden=None):
    records = []
    for op in ops:
        result, error, elapsed = worker.run_op(op)
        status, reason, _ = worker.judge(op, result, error, golden or {})
        records.append([op.key, elapsed, status, reason, elapsed])
    return records


def test_a_raise_outside_the_known_defects_makes_the_run_incorrect():
    ok = workloads.Op("fine", lambda: 1, lambda r: None, str)
    defect = _raising("k.puiseux", NonRationalCoefficient("sqrt(-1)"), (NonRationalCoefficient,))
    assert [r[2] for r in _records(ok, defect)] == ["ok", "defect"]
    assert run.correct(_records(ok, defect))
    for exc in (PrecisionExhausted("rung"), ZeroDivisionError("untyped")):
        records = _records(ok, _raising("k.zariski", exc))
        assert records[1][2] == "raised"
        assert not run.correct(records)
    # another type than the named defect's is no known defect
    assert _records(_raising("p", ValueError("x"), (NonRationalCoefficient,)))[0][2] == "raised"
    # at the golden seed, a known defect raised where an output is locked
    records = _records(defect, golden={"k.puiseux": "0123456789abcdef"})
    assert records[0][2] == "changed" and not run.correct(records)


def test_genus1_generator_plants_every_slot():
    rng = __import__("random").Random(5)
    for lam in gen.slots(4, 7) + [None]:
        item = gen.genus1_item(rng, 4, 7, lam)
        op = workloads._ladder_op("k47", item)
        assert _outcome(op)[:2] == ("ok", None)


def test_conjugate_oracle_matches_the_library():
    pairs = [
        ((4, {7: F(1), 10: F(1)}), (4, {7: F(1), 10: F(-1)})),
        ((3, {7: F(1), 8: F(1)}), (3, {7: F(1)})),
        ((4, {6: F(1), 9: F(2)}), (2, {3: F(1)})),
    ]
    for (n1, y1), (n2, y2) in pairs:
        a = Parametrization.from_pairs(n1, y1.items())
        b = Parametrization.from_pairs(n2, y2.items())
        assert oracle.intersection(n1, y1, n2, y2) == intersection(a, b)
        assert oracle.contact(n1, y1, n2, y2) == contact(a, b).theta


def _snapshot():
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "planebranch"]
    state = {id(m): dict(vars(m)) for m in modules}
    for cls in (planebranch.TSeries, planebranch.BivarPoly):
        state[id(cls)] = dict(vars(cls))
    return state


def test_tracer_restores_every_wrapped_attribute():
    before = _snapshot()
    trace = tracer.Tracer()
    with trace:
        during = _snapshot()
        assert during != before
        import planebranch.zariski as z
        import planebranch.series as s
        # the name zariski re-binds from series is wrapped too
        assert z.nth_root_unit is s.nth_root_unit
        assert z.nth_root_unit is not before[id(s)]["nth_root_unit"]
    assert _snapshot() == before


def test_traced_counts_repeat_exactly():
    branch = Parametrization.from_pairs(5, [(7, 1), (9, 1), (11, -1), (13, 2)])

    def traced_counts():
        trace = tracer.Tracer()
        with trace:
            trace.begin_op()
            planebranch.zariski_invariant(branch)
        metrics = trace.metrics()
        assert all(v >= 0 for k, (v, _) in metrics.items() if k.endswith("self_s"))
        # bookkeeping is timed on series spans only
        assert len(trace.held) == len(trace.start)
        labels = [trace.labels[m & 0xFF] for m in trace.meta]
        assert all(h == 0 for h, lab in zip(trace.held, labels) if not lab.startswith("series."))
        assert any(h > 0 for h in trace.held)
        return {k: v for k, (v, _) in metrics.items() if not k.endswith("self_s")}

    first = traced_counts()
    assert first["series.nth_root_unit.calls"] > 0
    assert first["zariski.apply_per_eliminate"] == 2.0
    assert first == traced_counts()
