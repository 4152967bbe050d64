"""Run a set of benchmark runs and report each metric's median and spread.

    python3 perfbench/runset.py --workload fig3 --seeds 1-10
    python3 perfbench/runset.py --workload all --seeds 1-2 --trace 1
    python3 perfbench/runset.py --pin

Each run is a fresh ``perfbench/run.py`` process.  For every metric the
set reports the median, the quartiles (``statistics.quantiles(n=4)``)
and the quartile spread as a share of the median.  Runs of one seed must
give equal output digests.  ``--pin`` runs every workload at the default
seed and writes its output digests to ``perfbench/digests.json``; do that
only in a change that declares an intended output change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    record_line = [ln for ln in lines if ln.startswith("record: ")]
    if not record_line:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    record = json.loads((ROOT / record_line[-1][len("record: "):]).read_text())
    record["exit_code"] = proc.returncode
    record["result"] = json.loads(lines[-1])
    print(f"  {lines[-3]}", flush=True)
    return record


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def summarize(records: list[dict]) -> dict:
    names = records[0]["result"]["metrics"]
    out = {name: spread([r["result"]["metrics"][name]["value"]
                         for r in records]) for name in names}
    by_seed: dict[int, set] = {}
    for r in records:
        by_seed.setdefault(r["environment"]["seed"], set()).add(
            json.dumps(r["digests"], sort_keys=True))
    out["digests_agree_per_seed"] = all(len(v) == 1 for v in by_seed.values())
    out["failed"] = sum(r["failed"] for r in records)
    out["attempted"] = sum(r["attempted"] for r in records)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=names + ["all"])
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    workloads = names if args.workload == "all" else [args.workload]

    if args.pin:
        pins = {w: one_run(w, 0, args.seconds, 0)["digests"] for w in names}
        (BENCH_DIR / "digests.json").write_text(json.dumps(pins, indent=1)
                                                + "\n")
        return 0

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in workloads:
        print(f"{workload}: seeds {args.seeds}", flush=True)
        records = [one_run(workload, seed, args.seconds, args.trace)
                   for seed in args.seeds]
        report[workload] = summary = summarize(records)
        ok &= summary["digests_agree_per_seed"] and summary["failed"] == 0
        for name, s in summary.items():
            if not isinstance(s, dict):
                continue
            bound = bounds.get(name) if not args.trace else None
            note = f" (bound {bound})" if bound else ""
            print(f"  {name:48s} median {s['median']:.6g}  q1 {s['q1']:.6g}"
                  f"  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{note}")
        print(f"  ops_failed {summary['failed']}/{summary['attempted']}, "
              f"digests agree per seed: {summary['digests_agree_per_seed']}",
              flush=True)
    sets = ROOT / ".perfbench" / "sets"
    sets.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = sets / f"{stamp}-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"set summary: {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
