"""One workload in a fresh interpreter; prints one JSON line on stdout.

    python3 perfbench/worker.py --workload W --seed S --seconds T --mode M --started E

Modes: `setup` builds the inputs and runs the warm-up op, then stops;
`measure` then runs whole rounds of ops in a closed loop (one client, each
op issued when the previous one returns) until T seconds have passed;
`trace` runs the workload's fixed trace rounds once untraced and once
traced; `golden` runs every op of the pool once and reports its digest.
E is the epoch time (`time.time()`) at which the caller started this
interpreter; set-up time counts from it, so interpreter start-up is in it.
"""

import argparse
import bisect
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import planebranch  # noqa: E402

if not os.path.abspath(planebranch.__file__).startswith(SRC + os.sep):
    sys.exit(f"planebranch imported from {planebranch.__file__}, not from {SRC}")

import oracle  # noqa: E402
import workloads  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")
#: the seed whose exact outputs golden.json locks
GOLDEN_SEED = 0

# The host's speed drifts by a third within a minute, in wall and CPU time
# alike, so a fixed reference convolution of Fractions (the arithmetic the
# library spends its time in) is timed between ops, and every time is
# reported at the speed where the reference takes REF_NOMINAL_S.
REF_A = {e: F((-1) ** e * (e % 7 + 1), e % 5 + 1) for e in range(30)}
REF_B = {e: F(e % 3 + 1, (-1) ** e * (e % 4 + 2)) for e in range(30)}
REF_NOMINAL_S = 0.0045
PROBE_EVERY_S = 0.1
# Probes closer than this to an op set its scale.  Narrower windows chase
# second-to-second noise with few, noisy probes and make long ops noisier.
PROBE_WINDOW_S = 5.0


class SpeedProbe:
    """Reference timings through a run."""

    def __init__(self):
        self.at: list = []
        self.took: list = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        oracle.smul(REF_A, REF_B, 60)
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def due(self) -> bool:
        return time.perf_counter() - self.at[-1] >= PROBE_EVERY_S

    def scale(self, when: float, took: float) -> float:
        """Factor taking an op that ran for `took` seconds around `when` to
        the nominal speed: the median reference within max(took,
        PROBE_WINDOW_S) of the op's midpoint, so the host's drift over
        seconds is corrected and one probe's noise averages out."""
        half = max(took, PROBE_WINDOW_S)
        lo = bisect.bisect_left(self.at, when - half)
        hi = bisect.bisect_right(self.at, when + half)
        near = self.took[lo:hi] or [self.took[min(lo, len(self.took) - 1)]]
        return REF_NOMINAL_S / statistics.median(near)


def run_op(op):
    """Time one call; the result is checked afterwards, outside the timing."""
    t0 = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # every failure is recorded, none stops the run
        result, error = None, exc
    elapsed = time.perf_counter() - t0
    if error is None and op.out:
        op.state[op.out] = result
    return result, error, elapsed


def judge(op, result, error, golden: dict):
    """(status, reason, digest): status is ok, defect, raised, wrong or
    changed.  Every status but ok counts as failed; every one but ok and
    defect makes the run incorrect.  A raise is `defect` only when its type
    is one of the op's named known defects; at the golden seed a raise on
    an op whose output is locked is `changed`."""
    if error is not None:
        typed = isinstance(error, planebranch.PlaneBranchError)
        reason = f"{'typed' if typed else 'untyped'} {type(error).__name__}: {error}"
        if golden.get(op.key) is not None:
            return "changed", f"raised where an output is locked ({reason})", None
        if type(error) in op.known:
            return "defect", f"known defect, {reason}", None
        return "raised", reason, None
    try:
        reason = op.check(result)
    except Exception as exc:  # a result the check cannot read is wrong
        reason = f"unreadable result ({type(exc).__name__}: {exc})"
    dig = workloads.digest(op.exact(result))
    if reason:
        return "wrong", reason, dig
    want = golden.get(op.key)
    if want is not None and want != dig:
        return "changed", f"exact output changed (digest {dig}, locked {want})", dig
    return "ok", None, dig


def run_rounds(rounds, count=None, seconds=None, golden=None, tracer=None):
    """Whole rounds from the pool, either `count` of them or until `seconds`
    have passed.  Returns one [key, seconds, status, reason, raw seconds]
    per op, the first time scaled to the nominal host speed."""
    golden = golden or {}
    records = []
    mids = []
    speed = SpeedProbe()
    speed.probe()
    t0 = time.perf_counter()
    r = 0
    while True:
        if count is not None and r >= count:
            break
        if seconds is not None and time.perf_counter() - t0 >= seconds:
            break
        for op in rounds[r % len(rounds)]:
            if tracer is not None:
                tracer.begin_op()
            result, error, elapsed = run_op(op)
            mids.append(time.perf_counter() - elapsed / 2)
            status, reason, _ = judge(op, result, error, golden)
            records.append([op.key, elapsed, status, reason, elapsed])
            if speed.due():
                speed.probe()
        r += 1
    speed.probe()
    for rec, mid in zip(records, mids):
        rec[1] *= speed.scale(mid, rec[4])
    return records


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "golden"), required=True)
    parser.add_argument("--started", type=float, required=True)
    args = parser.parse_args()

    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    try:
        plan = workloads.plan(args.workload, args.seed, workdir)
        run_op(plan.warmup)
        setup_s = time.time() - args.started
        speed = SpeedProbe()
        for _ in range(5):
            speed.probe()
        out = {"setup_s": setup_s * speed.scale(speed.at[2], 0), "setup_raw_s": setup_s}
        if args.mode == "measure":
            golden = {}
            if args.seed == GOLDEN_SEED and os.path.exists(GOLDEN):
                with open(GOLDEN, encoding="utf-8") as handle:
                    golden = json.load(handle).get(args.workload, {})
            out["records"] = run_rounds(plan.rounds, seconds=args.seconds, golden=golden)
            out["rounds"] = len(out["records"]) // len(plan.rounds[0])
            out["round_size"] = len(plan.rounds[0])
            out["tail_pct"] = plan.tail_pct
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elif args.mode == "trace":
            out.update(trace(plan, args))
        elif args.mode == "golden":
            digests = {}
            for ops in plan.rounds:
                for op in ops:
                    result, error, _ = run_op(op)
                    status, _, dig = judge(op, result, error, {})
                    digests[op.key] = dig if status == "ok" else None
            out["digests"] = digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


def trace(plan, args) -> dict:
    """Per-layer metrics from one traced pass over the fixed trace rounds,
    and the overhead against an untraced pass over the same ops."""
    from tracer import Tracer

    plain = run_rounds(plan.rounds, count=plan.trace_rounds)
    tracer = Tracer()
    with tracer:
        traced = run_rounds(plan.rounds, count=plan.trace_rounds, tracer=tracer)
    spans_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(spans_dir, exist_ok=True)
    tracer.write_spans(os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}.csv.gz"))
    metrics = tracer.metrics()
    untraced_s = sum(rec[1] for rec in plain)
    traced_s = sum(rec[1] for rec in traced)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    return {
        "records": traced,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "spans": len(tracer.start),
    }


if __name__ == "__main__":
    main()
