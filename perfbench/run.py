"""planebranch benchmark: one command per workload, every op checked.

    python3 perfbench/run.py --workload zariski-ladder --seed 1 --seconds 35 --trace 0

Run from the root of a source tree (the library is imported from `src/`).
Without `--workload` it runs the three workloads one after the other.
With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer ones; the last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.  Each workload
runs in fresh interpreters (`worker.py`): at least four that only set up,
more while their total is under three seconds, and one that sets up and
then measures; set-up time is the median over all of them.
`--write-golden` instead records the exact-output digests of seed 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("zariski-ladder", "geometry-pairs", "cli-mix")
# set-up-only workers per untraced run: at least SETUP_SAMPLES, and more
# until SETUP_SECONDS have passed, so that a cheap set-up, whose time
# interpreter start-up makes noisy, gets a steadier median
SETUP_SAMPLES = 4
SETUP_SECONDS = 3.0
# percentiles op_tail_ms may fall back to when a run has too few samples
PERCENTILES = (99, 95, 90, 75, 50)


def worker(args, mode: str, seconds: float, timeout: float) -> dict:
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--mode", mode, "--started", repr(time.time()),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list, wanted: int):
    """(percentile, value): the workload's percentile, or the highest lower
    one that still leaves at least ten samples beyond it."""
    for pct in PERCENTILES:
        if pct <= wanted and len(times) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    return 50, statistics.median(times)


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or "unknown"


def correct(records: list) -> bool:
    """False when any op raised outside a named known defect (`defect`),
    returned a wrong answer, or changed a locked exact output."""
    return not any(rec[2] in ("raised", "wrong", "changed") for rec in records)


def report_failures(records: list) -> None:
    failed: dict = {}
    for key, _, status, reason, _ in records:
        if status != "ok":
            failed.setdefault((key, status, reason), 0)
            failed[(key, status, reason)] += 1
    if failed:
        print("failed ops, by input:")
        for (key, status, reason), count in sorted(failed.items()):
            print(f"  {key} x{count}: {status}: {reason}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "planebranch", "__init__.py")):
        sys.stderr.write(f"no planebranch source under {ROOT}/src; run from a source tree\n")
        return 2
    for name in [args.workload] if args.workload else WORKLOADS:
        args.workload = name
        if args.write_golden:
            write_golden(args)
        else:
            run_workload(args)
    return 0


def run_workload(args) -> None:
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(), "git_sha": git_sha(), "nproc": os.cpu_count(),
    }
    if args.trace:
        out = worker(args, "trace", args.seconds, timeout=170)
        metrics = out["metrics"]
        records = out["records"]
        meta["spans"] = out["spans"]
        for name, m in metrics.items():
            print(f"{name} {m['value']} {m['unit']}")
    else:
        setups = []
        begun = time.perf_counter()
        while len(setups) < SETUP_SAMPLES or time.perf_counter() - begun < SETUP_SECONDS:
            setups.append(worker(args, "setup", 0, timeout=60))
        out = worker(args, "measure", args.seconds, timeout=args.seconds + 120)
        setups.append(out)
        records = out["records"]
        times = [rec[1] for rec in records]
        raw = [rec[4] for rec in records]
        good = sum(1 for rec in records if rec[2] == "ok")
        pct, tail_s = tail(times, out["tail_pct"])
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "ops_per_s": {"value": good / sum(times), "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(times), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
        beyond = sum(1 for t in times if t > tail_s)
        meta.update(rounds=out["rounds"], round_size=out["round_size"], ops=len(records),
                    tail_percentile=pct, tail_beyond=beyond, setup_samples=len(setups))
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(f"  op_tail_ms is p{pct} of {len(times)} ops ({beyond} beyond it); "
              f"setup_s is the median of {len(setups)} set-ups")
        print(f"  unscaled wall time: setup_s "
              f"{statistics.median(s['setup_raw_s'] for s in setups):.6g}, ops_per_s "
              f"{good / sum(raw):.6g}, op_p50_ms {1000 * statistics.median(raw):.6g}, "
              f"op_tail_ms {1000 * tail(raw, pct)[1]:.6g}")
    failed = sum(1 for rec in records if rec[2] != "ok")
    print(f"failed_frac {failed / len(records):.6g} ({failed} of {len(records)} ops)")
    report_failures(records)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct(records), "attempted": len(records), "failed": failed,
        "metrics": metrics,
    }))


def write_golden(args) -> None:
    path = os.path.join(HERE, "golden.json")
    golden = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            golden = json.load(handle)
    args.seed = 0
    golden[args.workload] = worker(args, "golden", 0, timeout=600)["digests"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden[args.workload])} digests for {args.workload} to {path}")


if __name__ == "__main__":
    sys.exit(main())
