"""Run one cascadelab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig3 --seed 0 --seconds 16 --trace 0

Run from the root of a source checkout; the benchmark imports cascadelab
from ``src/`` there and writes only under ``.perfbench/``.

With ``--trace 0`` the workload's timed part repeats until the next
repetition would end after ``--seconds``; ``wall_s`` is the median
repetition.  With ``--trace 1`` an untraced, a traced and another
untraced repetition run; the per-layer metrics come from the traced one
and ``trace.overhead_s`` compares it with the last.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record of the run, with its
environment, output digests and spans, goes to ``.perfbench/runs/``.

Exit codes: 0 when every operation succeeded and every output digest
matched, 1 otherwise, 2 when the checkout or the arguments are unusable.
"""

import time

T0 = time.perf_counter()  # the set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 0
SETUPS = 3  # set-ups per run; setup_s takes their median
IMPORT_S = None  # seconds from T0 to a finished import of cascadelab


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_cascadelab():
    """Import cascadelab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cascadelab" / "__init__.py").is_file():
        fail(f"no cascadelab sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import cascadelab
    global IMPORT_S
    IMPORT_S = time.perf_counter() - T0
    if Path(cascadelab.__file__).resolve().parent != src / "cascadelab":
        fail(f"imported cascadelab from {cascadelab.__file__}, not {src}")
    return cascadelab


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"commit": commit, "seed": seed,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def repetition(name, workload, tracer=None):
    """One timed part in a fresh out dir: (wall, outcome, digests)."""
    import tracing
    from workloads import file_digests

    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK / "tmp"))
    try:
        arg = workload.prepare(out)
        with (tracing.installed(tracer) if tracer else contextlib.nullcontext()):
            start = time.perf_counter()
            result = workload.run(arg)
            wall = time.perf_counter() - start
        outcome = workload.outcome(result, out)
        return wall, outcome, file_digests(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def digest_failures(digests: dict, expected: dict, label: str) -> list[str]:
    """One failure per output whose digest differs from, or is missing in,
    the expected table."""
    return [f"{label} digest mismatch: {path}"
            for path in sorted(set(digests) | set(expected))
            if digests.get(path) != expected.get(path)]


def pinned_digests(name: str) -> dict:
    return json.loads((BENCH_DIR / "digests.json").read_text())[name]


def measure(name, seed, seconds, trace, size="full", pinned=None):
    """Set up, repeat and check one workload; return the run record."""
    import tracing
    import workloads

    load_before = os.getloadavg()[0]
    builds, workload = [], None
    for _ in range(SETUPS):
        workload = None  # free the previous set-up before the next one
        start = time.perf_counter()
        workload = workloads.build(name, seed, size)
        builds.append(time.perf_counter() - start)
    setup_s = IMPORT_S + statistics.median(builds)

    walls, outcomes, digests = [], [], []

    def rep(tracer=None):
        wall, outcome, dig = repetition(name, workload, tracer)
        outcomes.append(outcome)
        digests.append(dig)
        return wall

    first = time.perf_counter()
    tracer = None
    if trace:
        # the first repetition of a process pays one-off costs, so the
        # overhead compares the traced repetition with a later one
        walls.append(rep())
        tracer = tracing.Tracer()
        traced_wall = rep(tracer)
        walls.append(rep())
    else:
        while True:
            walls.append(rep())
            if (time.perf_counter() - first + statistics.median(walls)
                    > seconds):
                break

    failures = [f for o in outcomes for f in o.failures]
    for i, dig in enumerate(digests[1:], start=2):
        failures += digest_failures(dig, digests[0], f"repetition {i}")
    if pinned is None and seed == DEFAULT_SEED and size == "full":
        pinned = pinned_digests(name)
    if pinned is not None:
        failures += digest_failures(digests[0], pinned, "pinned")
    attempted = sum(o.attempted for o in outcomes)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        metrics = tracing.layer_metrics(tracer.spans, traced_wall)
        metrics["trace.overhead_s"] = traced_wall - walls[-1]
    else:
        metrics = {"wall_s": statistics.median(walls), "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}
    return {
        "workload": name, "size": size, "trace": int(trace),
        "environment": {**environment(seed), "load1_before": load_before,
                        "load1_after": os.getloadavg()[0]},
        "samples": {"wall_s": walls, "setup_builds_s": builds,
                    "import_s": IMPORT_S},
        "attempted": attempted,
        "failed": min(attempted, len(failures)),
        "failures": failures,
        "digests": digests[0],
        "metrics": metrics,
        "spans": [vars(s) for s in tracer.spans] if tracer else [],
    }


def result_line(record: dict, spec: dict) -> dict:
    """The final stdout object: every metric BENCHMARK.json lists for
    this kind of run, by name, with its unit."""
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    names = {m["name"] for m in listed}
    unlisted = sorted(set(record["metrics"]) - names)
    if unlisted:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unlisted}")
    if not record["trace"] and names - set(record["metrics"]):
        raise KeyError(f"not measured: {sorted(names - set(record['metrics']))}")
    # a layer the workload never calls was busy for 0 s and counted 0
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"].get(m["name"], 0),
                                "unit": m["unit"]} for m in listed},
    }


def save(record: dict) -> Path:
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = runs / (f"{stamp}-{record['workload']}-seed"
                   f"{record['environment']['seed']}-trace{record['trace']}-"
                   f"{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def summary(record: dict) -> str:
    env, m, samples = record["environment"], record["metrics"], record["samples"]
    head = (f"{record['workload']} seed={env['seed']} "
            f"trace={record['trace']}:")
    if record["trace"]:
        body = (f"traced wall {m['bench.traced_wall_s']:.3f} s, "
                f"uncovered {m['bench.uncovered.s']:.3f} s, "
                f"overhead {m['trace.overhead_s']:.3f} s")
    else:
        body = (f"wall_s={m['wall_s']:.4f} s (median of "
                f"{len(samples['wall_s'])}) setup_s={m['setup_s']:.4f} s "
                f"(median of {len(samples['setup_builds_s'])} set-ups) "
                f"peak_rss_mb={m['peak_rss_mb']:.1f} MB")
    return (f"{head} {body} ops_failed={record['failed']}/"
            f"{record['attempted']} load1={env['load1_before']:.2f}->"
            f"{env['load1_after']:.2f}")


def main(argv=None, size="full", pinned=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = measure(args.workload, args.seed, args.seconds, args.trace,
                     size, pinned)
    path = save(record)
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(summary(record))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result_line(record, spec)), flush=True)
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    import_cascadelab()
    sys.exit(main())
